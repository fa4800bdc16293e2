#include "serve/resilience.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace capsp {

double retry_backoff_ms(int retry_index, Rng& rng) {
  CAPSP_CHECK_MSG(retry_index >= 0, "retry_index " << retry_index);
  double backoff = kRetryBackoffBaseMs;
  for (int i = 0; i < retry_index && backoff < kRetryBackoffMaxMs; ++i)
    backoff *= 2;
  return std::min(backoff, kRetryBackoffMaxMs) * rng.uniform_real(0.5, 1.0);
}

QuarantineRegistry::Admission QuarantineRegistry::admit(
    std::int64_t tile_id, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tiles_.find(tile_id);
  if (it == tiles_.end() || !it->second.quarantined)
    return Admission::kAllow;
  TileState& state = it->second;
  const auto cooldown =
      std::chrono::duration<double, std::milli>(cooldown_ms_);
  if (state.probe_in_flight || now - state.since < cooldown) {
    ++blocked_;
    return Admission::kBlocked;
  }
  state.probe_in_flight = true;
  ++probes_;
  return Admission::kProbe;
}

bool QuarantineRegistry::record_failure(std::int64_t tile_id,
                                        Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  TileState& state = tiles_[tile_id];
  ++failures_;
  ++state.consecutive_failures;
  state.probe_in_flight = false;
  state.since = now;  // restart the cooldown after every failure
  if (!state.quarantined &&
      state.consecutive_failures >= kThreshold) {
    state.quarantined = true;
    ++enters_;
    CAPSP_LOG(kWarn, "serve.quarantine.enter", {"tile", tile_id},
              {"consecutive_failures", state.consecutive_failures});
    return true;
  }
  return false;
}

bool QuarantineRegistry::record_success(std::int64_t tile_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tiles_.find(tile_id);
  if (it == tiles_.end()) return false;
  const bool exited = it->second.quarantined;
  // A healthy tile needs no ledger entry; erasing keeps the map bounded
  // by the number of *currently* suspect tiles.
  tiles_.erase(it);
  if (exited) {
    ++exits_;
    CAPSP_LOG(kInfo, "serve.quarantine.exit", {"tile", tile_id});
  }
  return exited;
}

std::vector<std::int64_t> QuarantineRegistry::due_for_probe(
    Clock::time_point now) {
  std::vector<std::int64_t> due;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto cooldown =
      std::chrono::duration<double, std::milli>(cooldown_ms_);
  for (auto& [tile_id, state] : tiles_) {
    if (!state.quarantined || state.probe_in_flight) continue;
    if (now - state.since < cooldown) continue;
    state.probe_in_flight = true;
    ++probes_;
    due.push_back(tile_id);
  }
  return due;
}

QuarantineRegistry::Stats QuarantineRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  for (const auto& [tile_id, state] : tiles_)
    if (state.quarantined) ++stats.active;
  stats.enters = enters_;
  stats.exits = exits_;
  stats.blocked = blocked_;
  stats.probes = probes_;
  stats.failures = failures_;
  return stats;
}

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "unknown";
}

}  // namespace capsp
