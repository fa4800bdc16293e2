// Tests for the serving-side fault-tolerance primitives
// (serve/resilience + the pread layer in util/read_exact):
// backoff bounds and jitter, the full QuarantineRegistry lifecycle
// (failures → enter → blocked → probe → exit), health-state naming, and
// pread_exact's EINTR/short-read transparency vs its hard truncation and
// IO errors.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "serve/resilience.hpp"
#include "util/check.hpp"
#include "util/read_exact.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

using Clock = QuarantineRegistry::Clock;
using Admission = QuarantineRegistry::Admission;

std::chrono::milliseconds ms(int n) { return std::chrono::milliseconds(n); }

// ---------------------------------------------------------------------------
// retry_backoff_ms

/// Backoff before retry `retry` (0-based): 0.2 ms doubled per retry and
/// capped at 20 ms.
const double kExpectedBackoffMs[] = {0.2, 0.4, 0.8, 1.6, 3.2,
                                     6.4, 12.8, 20, 20};

TEST(RetryBackoff, DoublesFromBaseAndCaps) {
  // A fresh Rng(1) per call draws the same jitter factor every time, so
  // the draws differ only by the backoff they scale.
  const auto drawn = [](int retry) {
    Rng rng(1);
    return retry_backoff_ms(retry, rng);
  };
  const double factor = drawn(0) / kRetryBackoffBaseMs;
  for (int retry = 0; retry < 9; ++retry)
    EXPECT_DOUBLE_EQ(drawn(retry), kExpectedBackoffMs[retry] * factor)
        << retry;
  EXPECT_DOUBLE_EQ(drawn(30), kRetryBackoffMaxMs * factor);  // capped
}

TEST(RetryBackoff, JitterStaysInsideItsBand) {
  // Each draw is jittered into [backoff / 2, backoff] so concurrent
  // retries de-synchronize.
  Rng rng(7);
  for (int retry = 0; retry < 9; ++retry) {
    const double backoff = kExpectedBackoffMs[retry];
    bool varied = false;
    double first = -1;
    for (int i = 0; i < 200; ++i) {
      const double drawn = retry_backoff_ms(retry, rng);
      EXPECT_GE(drawn, backoff / 2) << retry;
      EXPECT_LE(drawn, backoff) << retry;
      if (first < 0) first = drawn;
      if (drawn != first) varied = true;
    }
    EXPECT_TRUE(varied) << retry;  // jitter actually randomizes
  }
}

// ---------------------------------------------------------------------------
// QuarantineRegistry

/// Enough consecutive failures at `now` to quarantine `tile_id`; true when
/// the last one entered quarantine.
bool fail_to_quarantine(QuarantineRegistry& registry, std::int64_t tile_id,
                        Clock::time_point now) {
  bool entered = false;
  for (int i = 0; i < QuarantineRegistry::kThreshold; ++i)
    entered = registry.record_failure(tile_id, now);
  return entered;
}

TEST(Quarantine, BelowThresholdStaysAllowed) {
  QuarantineRegistry registry(/*cooldown_ms=*/50);
  const auto t0 = Clock::now();
  EXPECT_EQ(registry.admit(7, t0), Admission::kAllow);
  for (int i = 1; i < QuarantineRegistry::kThreshold; ++i)
    EXPECT_FALSE(registry.record_failure(7, t0));
  EXPECT_EQ(registry.admit(7, t0), Admission::kAllow);
  EXPECT_EQ(registry.stats().active, 0);
  EXPECT_EQ(registry.stats().failures, QuarantineRegistry::kThreshold - 1);
}

TEST(Quarantine, SuccessResetsTheConsecutiveCount) {
  QuarantineRegistry registry(50);
  const auto t0 = Clock::now();
  registry.record_failure(7, t0);
  registry.record_failure(7, t0);
  EXPECT_FALSE(registry.record_success(7));  // not an exit: never entered
  // The streak restarts: two more failures still do not quarantine.
  registry.record_failure(7, t0);
  EXPECT_FALSE(registry.record_failure(7, t0));
  EXPECT_EQ(registry.stats().active, 0);
}

TEST(Quarantine, FullLifecycleEnterBlockProbeExit) {
  QuarantineRegistry registry(/*cooldown_ms=*/10);
  const auto t0 = Clock::now();
  EXPECT_TRUE(fail_to_quarantine(registry, 5, t0));  // threshold hit: enter
  EXPECT_EQ(registry.stats().active, 1);
  EXPECT_EQ(registry.stats().enters, 1);

  // Inside the cooldown every admit is refused without touching the disk.
  EXPECT_EQ(registry.admit(5, t0 + ms(1)), Admission::kBlocked);
  EXPECT_EQ(registry.admit(5, t0 + ms(9)), Admission::kBlocked);
  EXPECT_EQ(registry.stats().blocked, 2);

  // Cooldown elapsed: exactly one caller gets the probe slot; the rest
  // stay blocked while that probe is in flight.
  EXPECT_EQ(registry.admit(5, t0 + ms(11)), Admission::kProbe);
  EXPECT_EQ(registry.admit(5, t0 + ms(11)), Admission::kBlocked);
  EXPECT_EQ(registry.stats().probes, 1);

  // A failed probe restarts the cooldown from the failure time.
  EXPECT_FALSE(registry.record_failure(5, t0 + ms(12)));
  EXPECT_EQ(registry.admit(5, t0 + ms(13)), Admission::kBlocked);
  EXPECT_EQ(registry.admit(5, t0 + ms(23)), Admission::kProbe);

  // A successful probe exits quarantine and clears the ledger entirely.
  EXPECT_TRUE(registry.record_success(5));
  EXPECT_EQ(registry.stats().active, 0);
  EXPECT_EQ(registry.stats().exits, 1);
  EXPECT_EQ(registry.admit(5, t0 + ms(24)), Admission::kAllow);
}

TEST(Quarantine, DueForProbeClaimsSlots) {
  QuarantineRegistry registry(10);
  const auto t0 = Clock::now();
  EXPECT_TRUE(fail_to_quarantine(registry, 3, t0));
  EXPECT_TRUE(fail_to_quarantine(registry, 8, t0));
  EXPECT_TRUE(registry.due_for_probe(t0 + ms(5)).empty());  // cooling down
  auto due = registry.due_for_probe(t0 + ms(11));
  ASSERT_EQ(due.size(), 2u);
  // Slots are claimed: asking again hands out nothing until record_*.
  EXPECT_TRUE(registry.due_for_probe(t0 + ms(12)).empty());
  registry.record_success(3);
  registry.record_failure(8, t0 + ms(12));
  EXPECT_TRUE(registry.due_for_probe(t0 + ms(13)).empty());
  EXPECT_EQ(registry.due_for_probe(t0 + ms(23)),
            std::vector<std::int64_t>{8});
}

TEST(HealthState, Names) {
  EXPECT_STREQ(to_string(HealthState::kOk), "ok");
  EXPECT_STREQ(to_string(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(to_string(HealthState::kUnhealthy), "unhealthy");
  // The numeric order is part of the serve.health gauge contract.
  EXPECT_LT(static_cast<int>(HealthState::kOk),
            static_cast<int>(HealthState::kDegraded));
  EXPECT_LT(static_cast<int>(HealthState::kDegraded),
            static_cast<int>(HealthState::kUnhealthy));
}

// ---------------------------------------------------------------------------
// pread_exact (util/read_exact) — the POSIX layer where EINTR and short
// reads are retried while genuine truncation and IO errors stay fatal.

/// A scripted pread: replays `script` entries, then serves from `data`.
struct FakePread {
  struct Step {
    long result;   ///< -1 = fail with `error`, >=0 = bytes served
    int error;
  };
  std::vector<Step> script;
  std::vector<char> data;
  std::size_t cursor = 0;  ///< script cursor

  PreadFn fn() {
    return [this](int, void* buf, std::size_t count, std::int64_t offset) {
      if (cursor < script.size()) {
        const Step step = script[cursor++];
        if (step.result < 0) {
          errno = step.error;
          return static_cast<long>(-1);
        }
        count = std::min<std::size_t>(count, static_cast<std::size_t>(step.result));
      }
      if (static_cast<std::size_t>(offset) >= data.size()) return 0L;
      const std::size_t n =
          std::min(count, data.size() - static_cast<std::size_t>(offset));
      std::memcpy(buf, data.data() + offset, n);
      return static_cast<long>(n);
    };
  }
};

std::vector<char> pattern_bytes(std::size_t n) {
  std::vector<char> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<char>(i * 31 + 7);
  return data;
}

TEST(PreadExact, RetriesEintrTransparently) {
  FakePread fake;
  fake.data = pattern_bytes(64);
  fake.script = {{-1, EINTR}, {-1, EINTR}};
  std::vector<char> out(64);
  PreadStats stats;
  pread_exact(-1, out.data(), 64, 0, "test payload", fake.fn(), &stats);
  EXPECT_EQ(out, fake.data);
  EXPECT_EQ(stats.eintr_retries, 2);
  EXPECT_EQ(stats.short_reads, 0);
}

TEST(PreadExact, ContinuesAfterShortReads) {
  FakePread fake;
  fake.data = pattern_bytes(64);
  fake.script = {{16, 0}, {8, 0}};  // two torn reads, then full service
  std::vector<char> out(64);
  PreadStats stats;
  pread_exact(-1, out.data(), 64, 0, "test payload", fake.fn(), &stats);
  EXPECT_EQ(out, fake.data);
  EXPECT_EQ(stats.short_reads, 2);
}

TEST(PreadExact, ReadsFromTheRequestedOffset) {
  FakePread fake;
  fake.data = pattern_bytes(64);
  std::vector<char> out(16);
  pread_exact(-1, out.data(), 16, 32, "test payload", fake.fn());
  EXPECT_TRUE(std::memcmp(out.data(), fake.data.data() + 32, 16) == 0);
}

TEST(PreadExact, TruncationIsAHardError) {
  FakePread fake;
  fake.data = pattern_bytes(32);  // 32 bytes on "disk", 64 wanted
  std::vector<char> out(64);
  try {
    pread_exact(-1, out.data(), 64, 0, "test payload", fake.fn());
    FAIL() << "expected a CHECK failure";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(PreadExact, IoErrorIsAHardError) {
  FakePread fake;
  fake.data = pattern_bytes(64);
  fake.script = {{-1, EIO}};
  std::vector<char> out(64);
  EXPECT_THROW(
      pread_exact(-1, out.data(), 64, 0, "test payload", fake.fn()),
      check_error);
}

}  // namespace
}  // namespace capsp
