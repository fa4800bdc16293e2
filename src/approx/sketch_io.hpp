// CAPSPAX1 — the on-disk landmark-sketch format (docs/serving.md,
// "Tiered serving").  Same storage discipline as the CAPSPDB2 snapshot
// (serve/snapshot): a structurally self-checking header, a per-row
// index whose offsets are derivable but stored anyway for
// cross-checking, and 48-bit FNV frame checksums so a flipped bit is
// refused at load instead of served as a wrong bound.
//
//   bytes 0..7   magic "CAPSPAX1"
//   int64        n, num_landmarks            (native endianness, like DB2)
//   int64 × L    landmark vertex ids, strictly ascending
//   int64        checksum of the id table    (frame_checksum, seq -1)
//   per row      int64 offset, int64 checksum (frame_checksum keyed by
//                the landmark index)
//   payloads     n doubles per landmark row, in landmark order
//
// Unlike a snapshot, a sketch is small (L·n doubles, L ≪ n) and every
// query touches many rows, so the reader validates everything once at
// open and returns a fully resident LandmarkSketch — there is no
// faulting path to retry, and a corrupt file CHECK-fails (throws
// check_error) rather than degrading.
#pragma once

#include <string>

#include "approx/sketch.hpp"

namespace capsp {

/// Write an in-memory sketch to `path`: the rows are contiguous, so
/// their checksums are computed first and the file is written front to
/// back.
void write_sketch(const std::string& path, const LandmarkSketch& sketch);

/// Load a CAPSPAX1 file, validating magic, header sanity (the file must
/// hold what the header sizes), the id table's order and checksum, the
/// index's offsets, the exact file size, and every row checksum.  Any
/// mismatch CHECK-fails — a corrupt sketch is refused, not served.
LandmarkSketch read_sketch(const std::string& path);

}  // namespace capsp
