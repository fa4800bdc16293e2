#include "serve/servefault.hpp"

#include <bit>
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
                  "serve fault plan: " << key << "=" << value
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
                  "serve fault plan: " << key << "=" << value
                                       << " is not a non-negative integer");
  return v;
}

double parse_positive(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  CAPSP_CHECK_MSG(used == value.size() && v > 0,
                  "serve fault plan: " << key << "=" << value
                                       << " must be a positive number");
  return v;
}

/// "T:K" -> tile T's first K read attempts fail.
void parse_bad_tile(ServeFaultPlan& plan, const std::string& key,
                    const std::string& value) {
  const auto colon = value.find(':');
  CAPSP_CHECK_MSG(colon != std::string::npos,
                  "serve fault plan: " << key << "=" << value
                                       << " must be tile:failures");
  plan.bad_tile = parse_int(key, value.substr(0, colon));
  plan.bad_tile_fails = parse_int(key, value.substr(colon + 1));
  CAPSP_CHECK_MSG(plan.bad_tile_fails > 0,
                  "serve fault plan: " << key << "=" << value
                                       << " needs failures >= 1");
}

/// "W@J:S" -> worker W sleeps S seconds at its J-th job.
void parse_stuck(ServeFaultPlan& plan, const std::string& key,
                 const std::string& value) {
  const auto at = value.find('@');
  const auto colon = value.find(':', at == std::string::npos ? 0 : at);
  CAPSP_CHECK_MSG(at != std::string::npos && colon != std::string::npos,
                  "serve fault plan: " << key << "=" << value
                                       << " must be worker@job:seconds");
  const int worker =
      static_cast<int>(parse_int(key, value.substr(0, at)));
  WorkerStick stick;
  stick.job_index = parse_int(key, value.substr(at + 1, colon - at - 1));
  stick.seconds = parse_positive(key, value.substr(colon + 1));
  CAPSP_CHECK_MSG(plan.stuck.count(worker) == 0,
                  "serve fault plan: duplicate stuck for worker " << worker);
  plan.stuck[worker] = stick;
}

}  // namespace

ServeFaultPlan ServeFaultPlan::parse(const std::string& spec) {
  ServeFaultPlan plan;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    CAPSP_CHECK_MSG(eq != std::string::npos,
                    "serve fault plan: expected key=value, got '" << item
                                                                  << "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "read_error") {
      plan.read_error = parse_probability(key, value);
    } else if (key == "eintr") {
      plan.eintr = parse_probability(key, value);
    } else if (key == "short") {
      plan.short_read = parse_probability(key, value);
    } else if (key == "flip") {
      plan.flip = parse_probability(key, value);
    } else if (key == "delay") {
      plan.delay = parse_probability(key, value);
    } else if (key == "delay_ms") {
      plan.delay_ms = parse_positive(key, value);
    } else if (key == "alloc") {
      plan.alloc = parse_probability(key, value);
    } else if (key == "bad_tile") {
      parse_bad_tile(plan, key, value);
    } else if (key == "stuck") {
      parse_stuck(plan, key, value);
    } else {
      CAPSP_CHECK_MSG(false, "serve fault plan: unknown key '"
                                 << key
                                 << "' (seed|read_error|eintr|short|flip|"
                                    "delay|delay_ms|alloc|bad_tile|stuck)");
    }
  }
  const double sum = plan.read_error + plan.eintr + plan.short_read +
                     plan.flip + plan.delay;
  CAPSP_CHECK_MSG(sum <= 1.0,
                  "serve fault plan: read probabilities sum to " << sum
                                                                 << " > 1");
  return plan;
}

std::string ServeFaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (read_error > 0) os << ",read_error=" << read_error;
  if (eintr > 0) os << ",eintr=" << eintr;
  if (short_read > 0) os << ",short=" << short_read;
  if (flip > 0) os << ",flip=" << flip;
  if (delay > 0) os << ",delay=" << delay;
  if (delay > 0 && delay_ms != 2) os << ",delay_ms=" << delay_ms;
  if (alloc > 0) os << ",alloc=" << alloc;
  if (bad_tile >= 0)
    os << ",bad_tile=" << bad_tile << ':' << bad_tile_fails;
  for (const auto& [worker, stick] : stuck)
    os << ",stuck=" << worker << '@' << stick.job_index << ':'
       << stick.seconds;
  return os.str();
}

ServeFaultInjector::ServeFaultInjector(ServeFaultPlan plan)
    : plan_(std::move(plan)) {}

Rng ServeFaultInjector::decision_rng(std::int64_t tile_id,
                                     std::int64_t attempt,
                                     std::uint64_t salt) const {
  // One fresh splitmix-seeded stream per (tile, attempt): the decision is
  // a pure function of the plan and the tile's own history, independent
  // of which worker thread happens to issue the read.
  std::uint64_t key = plan_.seed;
  key ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(tile_id) + 1);
  key ^= 0xbf58476d1ce4e5b9ull * (static_cast<std::uint64_t>(attempt) + 1);
  key ^= salt;
  return Rng(key);
}

ServeFaultInjector::ReadFault ServeFaultInjector::next_read_fault(
    std::int64_t tile_id) {
  std::int64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attempt = read_attempts_[tile_id]++;
  }
  // Every injected fault is logged at kDebug under one event name, so a
  // flight-recorder dump of a dying chaos run names the faults that
  // preceded the death (docs/observability.md).
  const auto injected = [&](const char* kind, ReadFault fault) {
    CAPSP_LOG(kDebug, "serve.fault.inject", {"kind", kind},
              {"tile", tile_id}, {"attempt", attempt});
    return fault;
  };
  // The deterministic bad sector overrides the probabilistic draws while
  // its failure budget lasts, then the tile heals.
  if (tile_id == plan_.bad_tile && attempt < plan_.bad_tile_fails) {
    eio_.fetch_add(1, std::memory_order_relaxed);
    return injected("bad_tile_eio", ReadFault::kEio);
  }
  if (plan_.read_error + plan_.eintr + plan_.short_read + plan_.flip +
          plan_.delay <=
      0)
    return ReadFault::kNone;
  Rng rng = decision_rng(tile_id, attempt, /*salt=*/0x726561640ull);
  const double u = rng.uniform_real();
  double threshold = plan_.read_error;
  if (u < threshold) {
    eio_.fetch_add(1, std::memory_order_relaxed);
    return injected("eio", ReadFault::kEio);
  }
  threshold += plan_.eintr;
  if (u < threshold) {
    eintr_.fetch_add(1, std::memory_order_relaxed);
    return injected("eintr", ReadFault::kEintr);
  }
  threshold += plan_.short_read;
  if (u < threshold) {
    short_reads_.fetch_add(1, std::memory_order_relaxed);
    return injected("short_read", ReadFault::kShort);
  }
  threshold += plan_.flip;
  if (u < threshold) {
    flips_.fetch_add(1, std::memory_order_relaxed);
    return injected("flip", ReadFault::kFlip);
  }
  threshold += plan_.delay;
  if (u < threshold) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    return injected("delay", ReadFault::kDelay);
  }
  return ReadFault::kNone;
}

bool ServeFaultInjector::next_alloc_fails(std::int64_t tile_id) {
  if (plan_.alloc <= 0) return false;
  std::int64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attempt = alloc_attempts_[tile_id]++;
  }
  Rng rng = decision_rng(tile_id, attempt, /*salt=*/0x616c6c6f63ull);
  if (!rng.bernoulli(plan_.alloc)) return false;
  allocs_.fetch_add(1, std::memory_order_relaxed);
  CAPSP_LOG(kDebug, "serve.fault.inject", {"kind", "alloc"},
            {"tile", tile_id}, {"attempt", attempt});
  return true;
}

void ServeFaultInjector::flip_payload(std::int64_t tile_id,
                                      std::span<Dist> payload) {
  if (payload.empty()) return;
  // Keyed off the tile alone so the flipped bit is stable for a given
  // plan; which *attempt* flips was already decided by next_read_fault.
  Rng rng = decision_rng(tile_id, /*attempt=*/0, /*salt=*/0x666c6970ull);
  const auto index =
      static_cast<std::size_t>(rng.uniform(payload.size()));
  // Low 52 bits only (the mantissa): finite stays finite, and the tile
  // checksum catches any single-bit flip.
  const auto bit = static_cast<int>(rng.uniform(52));
  auto bits = std::bit_cast<std::uint64_t>(payload[index]);
  bits ^= std::uint64_t{1} << bit;
  payload[index] = std::bit_cast<Dist>(bits);
}

double ServeFaultInjector::stick_seconds(int worker_index,
                                         std::int64_t job_index) {
  const auto it = plan_.stuck.find(worker_index);
  if (it == plan_.stuck.end() || it->second.job_index != job_index)
    return 0;
  sticks_.fetch_add(1, std::memory_order_relaxed);
  CAPSP_LOG(kWarn, "serve.fault.inject", {"kind", "stuck_worker"},
            {"worker", worker_index}, {"job_index", job_index},
            {"seconds", it->second.seconds});
  return it->second.seconds;
}

ServeFaultInjector::Counts ServeFaultInjector::counts() const {
  return {eio_.load(std::memory_order_relaxed),
          eintr_.load(std::memory_order_relaxed),
          short_reads_.load(std::memory_order_relaxed),
          flips_.load(std::memory_order_relaxed),
          delays_.load(std::memory_order_relaxed),
          allocs_.load(std::memory_order_relaxed),
          sticks_.load(std::memory_order_relaxed)};
}

}  // namespace capsp
