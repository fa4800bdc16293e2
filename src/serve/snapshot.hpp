// Tiled on-disk distance-matrix snapshots — the one file format for a
// solved matrix, written by apsp_tool --save-distances and read by the
// serving layer (docs/serving.md).
//
// The matrix is stored as fixed-size square tiles behind a seekable
// index, so a DistanceService can fault in only the tiles a query touches
// and cap its resident set with a tile cache:
//
//   bytes 0..7   magic "CAPSPDB2"
//   int64        rows, cols, tile_dim          (native endianness)
//   per tile     int64 offset, int64 checksum  (row-major over the
//                ⌈rows/tile⌉ × ⌈cols/tile⌉ tile grid)
//   payloads     row-major doubles per tile; edge tiles are clipped to the
//                matrix, so payload sizes vary but are fully determined by
//                the header
//
// The per-tile checksum is the 48-bit FNV-1a `frame_checksum` from
// machine/reliable, keyed by the tile id, so a flipped bit or swapped tile
// is caught on read, not served as a wrong distance.  Offsets are derivable
// from the header; storing them anyway lets the reader cross-check the file
// structurally before serving from it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "semiring/block.hpp"

namespace capsp {

class RequestTrace;
class ServeFaultInjector;

inline constexpr std::int64_t kDefaultTileDim = 64;

/// Geometry of a tiled snapshot: matrix dimensions plus the tile grid
/// derived from them.  Tile (tr, tc) covers rows [tr·t, min((tr+1)·t, rows))
/// and the analogous column range; tiles are numbered row-major.
struct SnapshotHeader {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t tile_dim = kDefaultTileDim;

  std::int64_t tile_rows() const { return (rows + tile_dim - 1) / tile_dim; }
  std::int64_t tile_cols() const { return (cols + tile_dim - 1) / tile_dim; }
  std::int64_t num_tiles() const { return tile_rows() * tile_cols(); }
  std::int64_t tile_id(std::int64_t tr, std::int64_t tc) const {
    return tr * tile_cols() + tc;
  }
  /// Actual row count of tile row `tr` (edge tiles are clipped).
  std::int64_t tile_row_dim(std::int64_t tr) const {
    return std::min(tile_dim, rows - tr * tile_dim);
  }
  std::int64_t tile_col_dim(std::int64_t tc) const {
    return std::min(tile_dim, cols - tc * tile_dim);
  }
};

/// Tile an in-memory matrix into `path` in one pass, holding one tile
/// beyond the matrix: the header and a placeholder index, then each tile
/// extracted, checksummed and written once, then the index again with the
/// checksums filled in.
void write_snapshot(const std::string& path, const DistBlock& matrix,
                    std::int64_t tile_dim = kDefaultTileDim);

/// Read side.  Two backings behind one interface:
///   * file-backed — a CAPSPDB2 file, validated structurally on open and
///     per-tile (checksum) on every read;
///   * in-memory — a DistBlock tiled virtually, for serving a freshly
///     computed matrix without touching disk.
/// `read_tile` is thread-safe with no shared cursor (positional pread on
/// the file-backed path — see docs/robustness.md), so the workers of a
/// DistanceService share one reader without serializing their IO; each
/// call returns a fresh tile so callers own what they cache.
///
/// Failure contract: structural problems found at *open* (bad magic, a
/// header the file cannot hold, corrupt index, wrong file size)
/// CHECK-fail — a malformed snapshot is refused, not served.  A
/// *per-read* failure (pread error, unexpected EOF, checksum mismatch,
/// injected fault) throws TileReadError (serve/resilience), which the
/// service's fetch path retries and quarantines; TileReadError derives
/// from check_error, so callers that treat any failure as fatal keep
/// their old behavior.
class SnapshotReader {
 public:
  /// Open a CAPSPDB2 file; anything else is refused at open.
  explicit SnapshotReader(const std::string& path);

  /// Serve an in-memory matrix (no file involved).
  SnapshotReader(DistBlock matrix, std::int64_t tile_dim = kDefaultTileDim);

  ~SnapshotReader();
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  const SnapshotHeader& header() const { return header_; }
  /// True when tiles are faulted in from a CAPSPDB2 file (false for the
  /// in-memory backing, which is fully resident anyway).
  bool file_backed() const { return file_backed_; }

  /// Install a fault injector (serve/servefault) consulted on every
  /// file-backed read attempt; nullptr (the default) disables injection
  /// at zero cost.  Not owned; must outlive the reader.  The in-memory
  /// backing has no IO to fault and ignores it.
  void set_fault_injector(ServeFaultInjector* injector) {
    fault_ = injector;
  }

  /// Payload bytes of one tile (what a cache should charge for it).
  std::int64_t tile_bytes(std::int64_t tile_id) const;

  /// A non-null `trace` (serve/reqtrace) gets a tile.snapshot_read span
  /// for the payload read and, on the file-backed path, a tile.checksum
  /// span for the verification.
  DistBlock read_tile(std::int64_t tile_id,
                      RequestTrace* trace = nullptr) const;

 private:
  SnapshotHeader header_;
  std::string path_;
  bool file_backed_ = false;
  // File-backed state: a plain fd read with pread, so no cursor and no
  // lock is shared between worker threads.
  int fd_ = -1;
  ServeFaultInjector* fault_ = nullptr;
  std::vector<std::int64_t> offsets_;
  std::vector<std::int64_t> checksums_;
  // In-memory state.
  DistBlock matrix_;
};

/// The whole matrix, reassembled from every tile `reader` serves (each
/// file-backed read checksummed).
DistBlock read_full_matrix(const SnapshotReader& reader);

}  // namespace capsp
