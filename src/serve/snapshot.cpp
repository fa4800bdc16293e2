#include "serve/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "machine/reliable.hpp"
#include "serve/reqtrace.hpp"
#include "serve/resilience.hpp"
#include "serve/servefault.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/prof.hpp"
#include "util/read_exact.hpp"

namespace capsp {
namespace {

static_assert(kSnapshotMagic.size() == 8);

constexpr std::int64_t kHeaderBytes =
    8 + 3 * static_cast<std::int64_t>(sizeof(std::int64_t));
constexpr std::int64_t kIndexEntryBytes =
    2 * static_cast<std::int64_t>(sizeof(std::int64_t));

std::int64_t payload_offset(const SnapshotHeader& header) {
  return kHeaderBytes + header.num_tiles() * kIndexEntryBytes;
}

std::int64_t tile_payload_bytes(const SnapshotHeader& header,
                                std::int64_t tile_id) {
  const std::int64_t tr = tile_id / header.tile_cols();
  const std::int64_t tc = tile_id % header.tile_cols();
  return header.tile_row_dim(tr) * header.tile_col_dim(tc) *
         static_cast<std::int64_t>(sizeof(Dist));
}

void check_header_sane(const SnapshotHeader& header, const std::string& path,
                       std::int64_t file_size) {
  CAPSP_CHECK_MSG(header.rows >= 0 && header.cols >= 0 &&
                      header.rows < (std::int64_t{1} << 32) &&
                      header.cols < (std::int64_t{1} << 32),
                  "snapshot " << path << " header corrupt: " << header.rows
                              << "x" << header.cols);
  CAPSP_CHECK_MSG(header.tile_dim >= 1 &&
                      header.tile_dim < (std::int64_t{1} << 32),
                  "snapshot " << path << " has bad tile_dim "
                              << header.tile_dim);
  // The index and the payloads are sized from the header, so the file
  // must be able to hold each before anything is allocated or summed.
  const std::int64_t room = file_size - kHeaderBytes;
  CAPSP_CHECK_MSG(
      product_at_most(header.tile_rows(), header.tile_cols(),
                      room / kIndexEntryBytes) &&
          product_at_most(header.rows, header.cols,
                          room / static_cast<std::int64_t>(sizeof(Dist))),
      "snapshot " << path << " is " << file_size << " bytes, too small for "
                  << header.rows << "x" << header.cols << " in tiles of "
                  << header.tile_dim << " (corrupt header)");
}

void write_i64s(std::ostream& os, std::span<const std::int64_t> values) {
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size_bytes()));
}

}  // namespace

void write_snapshot(const std::string& path, const DistBlock& matrix,
                    std::int64_t tile_dim) {
  const SnapshotHeader h{matrix.rows(), matrix.cols(), tile_dim};
  CAPSP_CHECK_MSG(h.rows >= 0 && h.cols >= 0,
                  "snapshot dims " << h.rows << "x" << h.cols);
  CAPSP_CHECK_MSG(tile_dim >= 1, "tile_dim must be >= 1, got " << tile_dim);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  CAPSP_CHECK_MSG(file.good(), "cannot open " << path << " for writing");
  file.write(kSnapshotMagic.data(), kSnapshotMagic.size());
  const std::int64_t dims[] = {h.rows, h.cols, h.tile_dim};
  write_i64s(file, dims);
  // (offset, checksum) per tile.  The offsets follow from the geometry;
  // the checksums are zero until their tile has been written.
  std::vector<std::int64_t> index(static_cast<std::size_t>(2 * h.num_tiles()));
  std::int64_t offset = payload_offset(h);
  for (std::int64_t t = 0; t < h.num_tiles(); ++t) {
    index[static_cast<std::size_t>(2 * t)] = offset;
    offset += tile_payload_bytes(h, t);
  }
  write_i64s(file, index);
  std::vector<Dist> tile;
  for (std::int64_t t = 0; t < h.num_tiles(); ++t) {
    const std::int64_t tr = t / h.tile_cols(), tc = t % h.tile_cols();
    const std::int64_t rows = h.tile_row_dim(tr), cols = h.tile_col_dim(tc);
    tile.resize(static_cast<std::size_t>(rows * cols));
    for (std::int64_t r = 0; r < rows; ++r)
      std::copy_n(matrix.row(tr * tile_dim + r) + tc * tile_dim, cols,
                  tile.data() + r * cols);
    index[static_cast<std::size_t>(2 * t + 1)] =
        static_cast<std::int64_t>(frame_checksum(t, tile));
    file.write(reinterpret_cast<const char*>(tile.data()),
               static_cast<std::streamsize>(tile.size() * sizeof(Dist)));
  }
  file.seekp(kHeaderBytes);
  write_i64s(file, index);
  file.close();
  CAPSP_CHECK_MSG(file.good(), "snapshot write failed for " << path);
}

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  std::ifstream is(path, std::ios::binary);
  CAPSP_CHECK_MSG(is.good(), "cannot open " << path);
  is.seekg(0, std::ios::end);
  const std::int64_t file_size = static_cast<std::int64_t>(is.tellg());
  is.seekg(0);
  char magic[8] = {};
  read_exact_bytes(is, magic, sizeof(magic), "snapshot magic");
  CAPSP_CHECK_MSG(std::string_view(magic, sizeof(magic)) == kSnapshotMagic,
                  "not a capsp snapshot (bad magic) in " << path);
  read_exact_bytes(is, &header_.rows, sizeof(header_.rows), "snapshot rows");
  read_exact_bytes(is, &header_.cols, sizeof(header_.cols), "snapshot cols");
  read_exact_bytes(is, &header_.tile_dim, sizeof(header_.tile_dim),
                   "snapshot tile_dim");
  check_header_sane(header_, path, file_size);
  const std::int64_t tiles = header_.num_tiles();
  offsets_.resize(static_cast<std::size_t>(tiles));
  checksums_.resize(static_cast<std::size_t>(tiles));
  for (std::int64_t t = 0; t < tiles; ++t) {
    read_exact_bytes(is, &offsets_[static_cast<std::size_t>(t)],
                     sizeof(std::int64_t), "snapshot tile index");
    read_exact_bytes(is, &checksums_[static_cast<std::size_t>(t)],
                     sizeof(std::int64_t), "snapshot tile index");
  }
  // Structural validation before serving a single byte: the offsets must
  // be exactly the geometry-derived layout and the file exactly the
  // payloads' extent — anything else is truncation or corruption.
  std::int64_t expected = payload_offset(header_);
  for (std::int64_t t = 0; t < tiles; ++t) {
    CAPSP_CHECK_MSG(offsets_[static_cast<std::size_t>(t)] == expected,
                    "snapshot tile " << t << " offset "
                                     << offsets_[static_cast<std::size_t>(t)]
                                     << " != expected " << expected
                                     << " (corrupt index)");
    expected += tile_payload_bytes(header_, t);
  }
  CAPSP_CHECK_MSG(file_size == expected,
                  "snapshot is " << file_size << " bytes, geometry wants "
                                 << expected
                                 << " (truncated or trailing bytes)");
  is.close();
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  CAPSP_CHECK_MSG(fd_ >= 0, "cannot reopen " << path << ": "
                                             << std::strerror(errno));
  file_backed_ = true;
}

SnapshotReader::SnapshotReader(DistBlock matrix, std::int64_t tile_dim)
    : matrix_(std::move(matrix)) {
  CAPSP_CHECK_MSG(tile_dim >= 1, "tile_dim must be >= 1, got " << tile_dim);
  header_ = {matrix_.rows(), matrix_.cols(), tile_dim};
}

SnapshotReader::~SnapshotReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::int64_t SnapshotReader::tile_bytes(std::int64_t tile_id) const {
  CAPSP_CHECK_MSG(tile_id >= 0 && tile_id < header_.num_tiles(),
                  "tile " << tile_id << " outside [0," << header_.num_tiles()
                          << ")");
  return tile_payload_bytes(header_, tile_id);
}

DistBlock SnapshotReader::read_tile(std::int64_t tile_id,
                                    RequestTrace* trace) const {
  CAPSP_CHECK_MSG(tile_id >= 0 && tile_id < header_.num_tiles(),
                  "tile " << tile_id << " outside [0," << header_.num_tiles()
                          << ")");
  ProfScope prof("serve.snapshot_read");
  prof.add_bytes(tile_payload_bytes(header_, tile_id));
  const std::int64_t tr = tile_id / header_.tile_cols();
  const std::int64_t tc = tile_id % header_.tile_cols();
  if (!file_backed_) {
    ScopedSpan span(trace, "tile.snapshot_read");
    span.detail("tile", tile_id);
    return matrix_.sub_block(tr * header_.tile_dim, tc * header_.tile_dim,
                             header_.tile_row_dim(tr),
                             header_.tile_col_dim(tc));
  }
  // One injector consultation per read attempt; everything below honors
  // the verdict.  kEintr/kShort are exercised *through* pread_exact's
  // retry loop, so they are invisible to callers — which is the point.
  using ReadFault = ServeFaultInjector::ReadFault;
  const ReadFault verdict =
      fault_ != nullptr ? fault_->next_read_fault(tile_id) : ReadFault::kNone;
  if (verdict == ReadFault::kDelay)
    std::this_thread::sleep_for(
        std::chrono::duration<double>(fault_->delay_seconds()));
  if (verdict == ReadFault::kEio) {
    std::ostringstream what;
    what << "snapshot tile " << tile_id << " read failed: injected EIO ("
         << path_ << ")";
    throw TileReadError(TileReadError::Kind::kIo, tile_id, what.str());
  }
  if (fault_ != nullptr && fault_->next_alloc_fails(tile_id)) {
    std::ostringstream what;
    what << "snapshot tile " << tile_id
         << " buffer allocation failed (injected)";
    throw TileReadError(TileReadError::Kind::kAlloc, tile_id, what.str());
  }
  DistBlock tile = DistBlock::for_overwrite(header_.tile_row_dim(tr),
                                            header_.tile_col_dim(tc));
  {
    ScopedSpan span(trace, "tile.snapshot_read");
    span.detail("tile", tile_id);
    PreadFn pread_fn;  // empty = the real pread
    int injected_once = 0;
    if (verdict == ReadFault::kEintr) {
      pread_fn = [&injected_once](int fd, void* buf, std::size_t count,
                                  std::int64_t offset) -> long {
        if (injected_once++ == 0) {
          errno = EINTR;
          return -1;
        }
        return static_cast<long>(::pread(fd, buf, count, offset));
      };
    } else if (verdict == ReadFault::kShort) {
      pread_fn = [&injected_once](int fd, void* buf, std::size_t count,
                                  std::int64_t offset) -> long {
        if (injected_once++ == 0 && count > 1) count /= 2;
        return static_cast<long>(::pread(fd, buf, count, offset));
      };
    }
    try {
      pread_exact(fd_, tile.data().data(),
                  static_cast<std::int64_t>(tile.data().size() *
                                            sizeof(Dist)),
                  offsets_[static_cast<std::size_t>(tile_id)],
                  "snapshot tile payload", pread_fn);
    } catch (const check_error& e) {
      // Truncation or a hard errno: recoverable from the service's point
      // of view (retry, then quarantine the tile), so narrow the type.
      std::ostringstream what;
      what << "snapshot tile " << tile_id << " read failed: " << e.what();
      throw TileReadError(TileReadError::Kind::kIo, tile_id, what.str());
    }
  }
  if (verdict == ReadFault::kFlip)
    fault_->flip_payload(tile_id, tile.data());
  ScopedSpan span(trace, "tile.checksum");
  span.detail("tile", tile_id);
  if (frame_checksum(tile_id, tile.data()) !=
      static_cast<std::uint64_t>(
          checksums_[static_cast<std::size_t>(tile_id)])) {
    std::ostringstream what;
    what << "snapshot tile " << tile_id
         << " failed its checksum (corrupt file)";
    throw TileReadError(TileReadError::Kind::kChecksum, tile_id, what.str());
  }
  return tile;
}

DistBlock read_full_matrix(const SnapshotReader& reader) {
  const SnapshotHeader& h = reader.header();
  DistBlock full = DistBlock::for_overwrite(h.rows, h.cols);
  for (std::int64_t t = 0; t < h.num_tiles(); ++t)
    full.set_sub_block((t / h.tile_cols()) * h.tile_dim,
                       (t % h.tile_cols()) * h.tile_dim, reader.read_tile(t));
  return full;
}

}  // namespace capsp
