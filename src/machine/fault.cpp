#include "machine/fault.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

double parse_probability(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double p = 0;
  try {
    p = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  CAPSP_CHECK_MSG(used == value.size() && p >= 0 && p <= 1,
                  "fault plan: " << key << "=" << value
                                 << " is not a probability in [0, 1]");
  return p;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  CAPSP_CHECK_MSG(used == value.size() && v >= 0,
                  "fault plan: " << key << "=" << value
                                 << " is not a non-negative integer");
  return v;
}

/// "R@K" or "R@K:S" -> (rank, op index, optional stall seconds).
void parse_rank_fault(FaultPlan& plan, const std::string& key,
                      const std::string& value, bool stall) {
  const auto at = value.find('@');
  CAPSP_CHECK_MSG(at != std::string::npos,
                  "fault plan: " << key << "=" << value << " must be "
                                 << (stall ? "rank@op:seconds" : "rank@op"));
  RankFault fault;
  const auto rank =
      static_cast<RankId>(parse_int(key, value.substr(0, at)));
  std::string rest = value.substr(at + 1);
  if (stall) {
    const auto colon = rest.find(':');
    CAPSP_CHECK_MSG(colon != std::string::npos,
                    "fault plan: " << key << "=" << value
                                   << " must be rank@op:seconds");
    const std::string seconds = rest.substr(colon + 1);
    std::size_t used = 0;
    try {
      fault.stall_seconds = std::stod(seconds, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    // The timed park converts S to integer nanoseconds: an infinite or
    // huge S would overflow that conversion instead of stalling.
    const double max_seconds =
        std::chrono::duration<double>(std::chrono::nanoseconds::max())
            .count();
    CAPSP_CHECK_MSG(used == seconds.size() && fault.stall_seconds > 0 &&
                        fault.stall_seconds < max_seconds,
                    "fault plan: stall seconds must be positive, finite and "
                    "below "
                        << max_seconds << " in " << key << "=" << value);
    rest = rest.substr(0, colon);
  }
  fault.op_index = parse_int(key, rest);
  CAPSP_CHECK_MSG(plan.rank_faults.count(rank) == 0,
                  "fault plan: duplicate kill/stall for rank " << rank);
  plan.rank_faults[rank] = fault;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    CAPSP_CHECK_MSG(eq != std::string::npos,
                    "fault plan: expected key=value, got '" << item << "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "drop") {
      plan.drop = parse_probability(key, value);
    } else if (key == "dup") {
      plan.duplicate = parse_probability(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_probability(key, value);
    } else if (key == "delay") {
      plan.delay = parse_probability(key, value);
    } else if (key == "kill") {
      parse_rank_fault(plan, key, value, /*stall=*/false);
    } else if (key == "stall") {
      parse_rank_fault(plan, key, value, /*stall=*/true);
    } else {
      CAPSP_CHECK_MSG(false, "fault plan: unknown key '"
                                 << key << "' (seed|drop|dup|corrupt|delay|"
                                    "kill|stall)");
    }
  }
  CAPSP_CHECK_MSG(
      plan.drop + plan.duplicate + plan.corrupt + plan.delay <= 1.0,
      "fault plan: probabilities sum to "
          << plan.drop + plan.duplicate + plan.corrupt + plan.delay
          << " > 1");
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (drop > 0) os << ",drop=" << drop;
  if (duplicate > 0) os << ",dup=" << duplicate;
  if (corrupt > 0) os << ",corrupt=" << corrupt;
  if (delay > 0) os << ",delay=" << delay;
  for (const auto& [rank, fault] : rank_faults) {
    if (fault.stall_seconds > 0) {
      os << ",stall=" << rank << '@' << fault.op_index << ':'
         << fault.stall_seconds;
    } else {
      os << ",kill=" << rank << '@' << fault.op_index;
    }
  }
  return os.str();
}

FaultInjector::FaultInjector(const FaultPlan& plan, int num_ranks)
    : plan_(plan), ranks_(static_cast<std::size_t>(num_ranks)) {
  for (const auto& [rank, fault] : plan_.rank_faults)
    CAPSP_CHECK_MSG(rank >= 0 && rank < num_ranks,
                    "fault plan targets rank " << rank << " but the machine "
                                               << "has " << num_ranks
                                               << " ranks");
  // Per-rank streams: decisions depend only on (seed, rank, index), never
  // on thread scheduling.
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    ranks_[r].rng.reseed(plan_.seed ^
                         (0x9e3779b97f4a7c15ull * (r + 1)));
}

double FaultInjector::on_op(RankId rank) {
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  const std::int64_t index = state.ops++;
  const auto it = plan_.rank_faults.find(rank);
  if (it == plan_.rank_faults.end() || index != it->second.op_index) return 0;
  if (it->second.stall_seconds > 0) {
    ++state.counts.stalls;
    CAPSP_LOG(kWarn, "machine.fault.stall", {"rank", rank},
              {"op_index", index},
              {"seconds", it->second.stall_seconds});
    return it->second.stall_seconds;
  }
  ++state.counts.kills;
  state.dead.store(true);
  CAPSP_LOG(kWarn, "machine.fault.kill", {"rank", rank},
            {"op_index", index});
  throw RankKilledError(rank, index);
}

FaultDecision FaultInjector::decide(RankId src) {
  if (!plan_.has_message_faults()) return FaultDecision::kDeliver;
  auto& state = ranks_[static_cast<std::size_t>(src)];
  const double u = state.rng.uniform_real();
  double threshold = plan_.drop;
  if (u < threshold) {
    ++state.counts.drops;
    // Debug (ring-bound, rate-limited): drops are the common chaos
    // event; the black box wants them, the sink usually does not.
    CAPSP_LOG(kDebug, "machine.fault.drop", {"src", src});
    return FaultDecision::kDrop;
  }
  threshold += plan_.duplicate;
  if (u < threshold) {
    ++state.counts.duplicates;
    return FaultDecision::kDuplicate;
  }
  threshold += plan_.corrupt;
  if (u < threshold) {
    ++state.counts.corruptions;
    CAPSP_LOG(kDebug, "machine.fault.corrupt", {"src", src});
    return FaultDecision::kCorrupt;
  }
  threshold += plan_.delay;
  if (u < threshold) {
    ++state.counts.delays;
    return FaultDecision::kDelay;
  }
  return FaultDecision::kDeliver;
}

Payload FaultInjector::corrupted_copy(RankId src, const Payload& frame) {
  auto& state = ranks_[static_cast<std::size_t>(src)];
  if (frame.empty()) return frame;
  const auto index = static_cast<std::size_t>(state.rng.uniform(frame.size()));
  // Flip one of the low 52 bits (the mantissa), so a finite value stays
  // finite but differs and an infinite one becomes a NaN.  The frame
  // checksum catches any single-bit flip; in raw mode the victim meets it.
  const auto bit = static_cast<int>(state.rng.uniform(52));
  std::vector<Dist> words(frame.begin(), frame.end());
  auto bits = std::bit_cast<std::uint64_t>(words[index]);
  bits ^= std::uint64_t{1} << bit;
  words[index] = std::bit_cast<Dist>(bits);
  return Payload(std::move(words));
}

std::vector<RankId> FaultInjector::dead_ranks() const {
  std::vector<RankId> dead;
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    if (ranks_[r].dead.load()) dead.push_back(static_cast<RankId>(r));
  return dead;
}

FaultCounts FaultInjector::counts() const {
  FaultCounts total;
  for (const auto& rank : ranks_) total += rank.counts;
  return total;
}

}  // namespace capsp
