// Exact-length reads: each delivers every byte asked for or CHECK-fails
// saying which bytes of what were missing, so a truncated or garbage file
// reports what was short instead of a bare stream failure.  The snapshot
// reader (serve/snapshot) and the sketch reader (approx/sketch_io) use
// them.
#pragma once

#include <cstdint>
#include <functional>
#include <ios>
#include <iosfwd>

namespace capsp {

/// Read exactly `bytes` from `is` into `dst`, CHECK-failing with the byte
/// counts and `what` on a short read.
void read_exact_bytes(std::istream& is, void* dst, std::streamsize bytes,
                      const char* what);

/// Injectable pread for pread_exact — same contract as POSIX pread(2).
/// Tests and the serve-layer fault injector substitute one that returns
/// short counts or fails with chosen errnos.
using PreadFn =
    std::function<long(int fd, void* buf, std::size_t count,
                       std::int64_t offset)>;

/// Counters a caller can use to meter how often retries actually fired.
struct PreadStats {
  std::int64_t eintr_retries = 0;
  std::int64_t short_reads = 0;
};

/// Positional read of exactly `bytes` at `offset` — the POSIX-honest
/// sibling of read_exact_bytes.  A read(2) interrupted by a signal can
/// fail with EINTR or return fewer bytes than asked *without* the file
/// being short, so both are retried (continuing from where the partial
/// read left off); genuine truncation (pread returns 0 before `bytes`
/// arrived) and any other errno stay hard CHECK failures.  Thread-safe
/// with no shared cursor, which is why the snapshot reader uses it
/// instead of a mutex-guarded seekg/read.
void pread_exact(int fd, void* dst, std::int64_t bytes, std::int64_t offset,
                 const char* what, const PreadFn& pread_fn = {},
                 PreadStats* stats = nullptr);

}  // namespace capsp
