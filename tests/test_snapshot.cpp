// Tests for the tiled CAPSPDB3 snapshot format (serve/snapshot):
// round-trip fidelity, the byte layout pinned to recorded constants, the
// writer's argument CHECKs and overwrite behaviour, and reader rejection
// of missing, truncated, padded, corrupt, oversized-header and
// retired-format files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/capsp_snapshot_" + name;
}

DistBlock random_matrix(std::int64_t rows, std::int64_t cols,
                        std::uint64_t seed) {
  Rng rng(seed);
  DistBlock block(rows, cols);
  for (auto& v : block.data())
    v = rng.bernoulli(0.1) ? kInf : rng.uniform_real(-100, 100);
  return block;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

void append_i64(std::string& bytes, std::int64_t v) {
  bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char byte : bytes) {
    out += kDigits[(static_cast<unsigned char>(byte) >> 4) & 0xf];
    out += kDigits[static_cast<unsigned char>(byte) & 0xf];
  }
  return out;
}

std::string unhex(const std::string& digits) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2)
    bytes += static_cast<char>(std::stoi(digits.substr(i, 2), nullptr, 16));
  return bytes;
}

/// What a check_error from `open` says ("" when nothing was thrown).
template <typename Open>
std::string refusal(Open open) {
  try {
    open();
  } catch (const check_error& e) {
    return e.what();
  }
  return "";
}

TEST(SnapshotHeader, TileGeometry) {
  const SnapshotHeader h{10, 7, 4};
  EXPECT_EQ(h.tile_rows(), 3);
  EXPECT_EQ(h.tile_cols(), 2);
  EXPECT_EQ(h.num_tiles(), 6);
  EXPECT_EQ(h.tile_row_dim(0), 4);
  EXPECT_EQ(h.tile_row_dim(2), 2);  // clipped edge tile
  EXPECT_EQ(h.tile_col_dim(1), 3);
  EXPECT_EQ(h.tile_id(2, 1), 5);
}

TEST(Snapshot, RoundTripBitExact) {
  const DistBlock matrix = random_matrix(21, 21, 7);
  const std::string path = temp_path("roundtrip.snap");
  write_snapshot(path, matrix, 8);
  const SnapshotReader reader(path);
  EXPECT_TRUE(reader.file_backed());
  EXPECT_EQ(reader.header().tile_dim, 8);
  EXPECT_EQ(read_full_matrix(reader), matrix);
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripPreservesInfinities) {
  DistBlock matrix(3, 3);  // all kInf
  matrix.zero_diagonal();
  const std::string path = temp_path("inf.snap");
  write_snapshot(path, matrix, 2);
  const DistBlock loaded = read_full_matrix(SnapshotReader(path));
  for (std::int64_t r = 0; r < 3; ++r)
    for (std::int64_t c = 0; c < 3; ++c) {
      if (r == c) {
        EXPECT_EQ(loaded.at(r, c), 0);
      } else {
        EXPECT_TRUE(is_inf(loaded.at(r, c))) << r << "," << c;
      }
    }
  std::remove(path.c_str());
}

// A 0x0 matrix has no tiles, so its file is the 32-byte header alone:
// magic, rows, cols, tile_dim, with no index and no payload.
TEST(Snapshot, ZeroByZeroIsHeaderOnly) {
  const std::string path = temp_path("zero.snap");
  write_snapshot(path, DistBlock(0, 0), 4);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(bytes.size(), 8u + 3 * sizeof(std::int64_t));
  EXPECT_EQ(bytes.substr(0, 8), kSnapshotMagic);
  const SnapshotReader reader(path);
  EXPECT_EQ(reader.header().rows, 0);
  EXPECT_EQ(reader.header().cols, 0);
  std::remove(path.c_str());
}

// A matrix with rows but no columns (or the reverse) keeps both
// dimensions through the file even though it has no tiles.
TEST(Snapshot, EmptyRowsOrColumnsKeepTheirDims) {
  const std::string path = temp_path("flat.snap");
  for (const auto& [rows, cols] :
       {std::pair<std::int64_t, std::int64_t>{0, 7}, {7, 0}}) {
    write_snapshot(path, DistBlock(rows, cols), 3);
    EXPECT_EQ(file_bytes(path).size(), 8u + 3 * sizeof(std::int64_t));
    const SnapshotReader reader(path);
    EXPECT_EQ(reader.header().rows, rows);
    EXPECT_EQ(reader.header().cols, cols);
    EXPECT_EQ(reader.header().num_tiles(), 0);
  }
  std::remove(path.c_str());
}

// write_snapshot -> tiles preserves every entry bit-exactly, over random
// dims (including degenerate ones) and tile dims (1, non-divisor,
// divisor, oversize).
TEST(Snapshot, FuzzRoundTripPreservesEveryEntry) {
  Rng rng(99);
  const std::string path = temp_path("fuzz.snap");
  for (int round = 0; round < 40; ++round) {
    std::int64_t rows = 0, cols = 0;
    switch (round) {
      case 0: rows = 0; cols = 0; break;
      case 1: rows = 1; cols = 1; break;
      case 2: rows = 0; cols = 5; break;
      default:
        rows = static_cast<std::int64_t>(rng.uniform(40));
        cols = static_cast<std::int64_t>(rng.uniform(40));
    }
    const std::int64_t tile_choices[] = {1, 3, 8, 64};
    const std::int64_t tile =
        tile_choices[rng.uniform(4)];
    const DistBlock matrix =
        random_matrix(rows, cols, 1000 + static_cast<std::uint64_t>(round));
    write_snapshot(path, matrix, tile);
    const SnapshotReader reader(path);
    ASSERT_EQ(reader.header().rows, rows);
    ASSERT_EQ(reader.header().cols, cols);
    ASSERT_EQ(read_full_matrix(reader), matrix)
        << "round " << round << ": " << rows << "x" << cols << " tile "
        << tile;
  }
  std::remove(path.c_str());
}

/// The 5x3 matrix whose file, in tiles of 2, the layout tests pin.
DistBlock layout_matrix() {
  DistBlock matrix(5, 3);
  for (std::int64_t r = 0; r < 5; ++r)
    for (std::int64_t c = 0; c < 3; ++c) matrix.at(r, c) = r * 10 + c - 0.5;
  matrix.at(3, 1) = kInf;
  return matrix;
}

// Every byte of the format, pinned to recorded constants: a 5x3 matrix
// in tiles of 2 (clipped edge tiles, a kInf entry).  A writer change that
// moves any byte fails here even when the reader still accepts the file.
TEST(Snapshot, LayoutMatchesRecordedBytes) {
  const std::string path = temp_path("layout.snap");
  write_snapshot(path, layout_matrix(), 2);
  EXPECT_EQ(hex(file_bytes(path)),
            "4341505350444233050000000000000003000000000000000200000000000000"
            "8000000000000000bb65293e90600000a0000000000000008c119c75ce7b0000"
            "b000000000000000af8e586fe48c0000d0000000000000000fdd61f89aca0000"
            "e00000000000000043573c9005ec0000f0000000000000001161cdc920bb0000"
            "000000000000e0bf000000000000e03f00000000000023400000000000002540"
            "000000000000f83f000000000000274000000000008033400000000000803440"
            "0000000000803d40000000000000f07f00000000008035400000000000803f40"
            "0000000000c0434000000000004044400000000000c04440");
  std::remove(path.c_str());
}

TEST(Snapshot, WriterRejectsBadTileDim) {
  const std::string path = temp_path("badtile.snap");
  EXPECT_THROW(write_snapshot(path, DistBlock(4, 4), 0), check_error);
  std::remove(path.c_str());
}

TEST(Snapshot, WriterRejectsUnwritablePath) {
  const std::string path =
      ::testing::TempDir() + "/capsp_no_such_dir/unwritable.snap";
  try {
    write_snapshot(path, DistBlock(2, 2), 2);
    FAIL() << "wrote into a missing directory";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// The writer seeks back to fill in the index, so it must truncate what
// was there: a small snapshot written over a larger one is byte-identical
// to the same snapshot written fresh, and a rewrite repeats every byte.
TEST(Snapshot, OverwriteLeavesNoStaleBytes) {
  const DistBlock small = random_matrix(5, 3, 11);
  const std::string fresh = temp_path("fresh.snap");
  const std::string reused = temp_path("reused.snap");
  write_snapshot(fresh, small, 2);
  write_snapshot(reused, random_matrix(20, 20, 12), 4);
  write_snapshot(reused, small, 2);
  EXPECT_EQ(file_bytes(reused), file_bytes(fresh));
  EXPECT_EQ(read_full_matrix(SnapshotReader(reused)), small);
  write_snapshot(reused, small, 2);
  EXPECT_EQ(file_bytes(reused), file_bytes(fresh));
  std::remove(fresh.c_str());
  std::remove(reused.c_str());
}

// The retired monolithic layout (its own magic, rows, cols, then the
// row-major doubles with no index or checksums) is refused at open,
// never served.
TEST(Snapshot, Db1LayoutRefusedAtOpen) {
  const DistBlock matrix = random_matrix(9, 9, 3);
  const char retired_magic[8] = {'C', 'A', 'P', 'S', 'P', 'D', 'B', '1'};
  std::string bytes(retired_magic, sizeof(retired_magic));
  append_i64(bytes, matrix.rows());
  append_i64(bytes, matrix.cols());
  bytes.append(reinterpret_cast<const char*>(matrix.data().data()),
               matrix.data().size_bytes());
  const std::string path = temp_path("retired.db1");
  write_bytes(path, bytes);
  try {
    const SnapshotReader reader(path);
    FAIL() << "a retired-format file was opened";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
  std::remove(path.c_str());
}

// The retired CAPSPDB2 layout differs from CAPSPDB3 only in its magic and
// its FNV-1a checksums.  The layout matrix's file as the CAPSPDB2 writer
// recorded it, valid in every other byte, is refused at open.
TEST(Snapshot, Db2LayoutRefusedAtOpen) {
  const std::string path = temp_path("retired.db2");
  std::string db2 = unhex(
      "4341505350444232050000000000000003000000000000000200000000000000"
      "800000000000000050034c26f4dc0000a00000000000000020cd325b82600000"
      "b00000000000000093c3e309830d0000d00000000000000022d6379ab6a60000"
      "e000000000000000359ba55581370000f000000000000000b8e3e83ad2ca0000"
      "000000000000e0bf000000000000e03f00000000000023400000000000002540"
      "000000000000f83f000000000000274000000000008033400000000000803440"
      "0000000000803d40000000000000f07f00000000008035400000000000803f40"
      "0000000000c0434000000000004044400000000000c04440");
  write_bytes(path, db2);
  EXPECT_NE(refusal([&] { SnapshotReader reader(path); }).find("bad magic"),
            std::string::npos);
  // Outside the magic's last byte and the six tiles' checksum words,
  // CAPSPDB3 writes the same bytes.
  write_snapshot(path, layout_matrix(), 2);
  std::string db3 = file_bytes(path);
  ASSERT_EQ(db3.size(), db2.size());
  for (std::string* bytes : {&db2, &db3}) {
    (*bytes)[7] = 0;
    for (std::size_t tile = 0; tile < 6; ++tile)
      bytes->replace(40 + 16 * tile, 8, 8, '\0');
  }
  EXPECT_EQ(hex(db2), hex(db3));
  std::remove(path.c_str());
}

TEST(Snapshot, InMemoryReaderTilesVirtually) {
  const DistBlock matrix = random_matrix(11, 5, 4);
  const SnapshotReader reader(matrix, 4);
  EXPECT_FALSE(reader.file_backed());
  EXPECT_EQ(reader.header().num_tiles(), 3 * 2);
  EXPECT_EQ(read_full_matrix(reader), matrix);
  EXPECT_EQ(reader.tile_bytes(0),
            4 * 4 * static_cast<std::int64_t>(sizeof(Dist)));
  // bottom-right tile is clipped to 3x1
  EXPECT_EQ(reader.tile_bytes(5),
            3 * 1 * static_cast<std::int64_t>(sizeof(Dist)));
}

TEST(SnapshotReader, RejectsBadMagic) {
  const std::string path = temp_path("badmagic.snap");
  std::ofstream(path, std::ios::binary) << "NOTADB!!garbagegarbage";
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsMissingFile) {
  const std::string path = temp_path("does_not_exist.snap");
  std::remove(path.c_str());
  try {
    const SnapshotReader reader(path);
    FAIL() << "opened a missing file";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// EOF inside the magic is a truncation naming what was short, not a
// bad-magic verdict on bytes that were never read.
TEST(SnapshotReader, RejectsTruncatedMagic) {
  const std::string path = temp_path("shortmagic.snap");
  write_bytes(path, "CAPS");
  try {
    const SnapshotReader reader(path);
    FAIL() << "opened a 4-byte file";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("snapshot magic"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

// The magic alone: the read fails at the first header field, by name.
TEST(SnapshotReader, RejectsTruncatedHeader) {
  const std::string path = temp_path("shorthdr.snap");
  write_bytes(path, std::string(kSnapshotMagic));
  const std::string what = refusal([&] { SnapshotReader reader(path); });
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("snapshot rows"), std::string::npos) << what;
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsTruncatedPayload) {
  const DistBlock matrix = random_matrix(12, 12, 6);
  const std::string path = temp_path("truncated.snap");
  write_snapshot(path, matrix, 4);
  const std::string bytes = file_bytes(path);
  // Two doubles short, and 4 bytes of padding: the file must be exactly
  // the payloads' extent.
  for (const std::string& wrong :
       {bytes.substr(0, bytes.size() - 16), bytes + "junk"}) {
    write_bytes(path, wrong);
    EXPECT_THROW(SnapshotReader reader(path), check_error)
        << wrong.size() << " bytes";
  }
  std::remove(path.c_str());
}

// A header whose index or payload the file cannot hold is refused before
// anything is sized from it: an index of 2^40 entries, a tile count past
// int64, rows past 2^32, and one tile of 2^62 doubles, each in a bare
// 32-byte file.  Each case names its own reason.
TEST(SnapshotReader, RejectsHeaderLargerThanFile) {
  const struct {
    std::int64_t rows, cols, tile_dim;
    const char* reason;
  } crafted[] = {
      {std::int64_t{1} << 20, std::int64_t{1} << 20, 1, "corrupt header"},
      {(std::int64_t{1} << 32) - 1, (std::int64_t{1} << 32) - 1, 1,
       "corrupt header"},
      {std::int64_t{1} << 32, 1, 1, "header corrupt: 4294967296x1"},
      {std::int64_t{1} << 31, std::int64_t{1} << 31, std::int64_t{1} << 31,
       "corrupt header"},
  };
  const std::string path = temp_path("crafted.snap");
  for (const auto& header : crafted) {
    std::string bytes(kSnapshotMagic);
    for (const std::int64_t field :
         {header.rows, header.cols, header.tile_dim})
      append_i64(bytes, field);
    write_bytes(path, bytes);
    const std::string what = refusal([&] { SnapshotReader reader(path); });
    EXPECT_NE(what.find(header.reason), std::string::npos)
        << header.rows << "x" << header.cols << " tile " << header.tile_dim
        << ": " << what;
  }
  std::remove(path.c_str());
}

TEST(SnapshotReader, RejectsCorruptIndex) {
  const DistBlock matrix = random_matrix(12, 12, 8);
  const std::string path = temp_path("badindex.snap");
  write_snapshot(path, matrix, 4);
  // First index entry starts at byte 32; smash its offset.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(32);
  const std::int64_t bogus = 12345;
  file.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  file.close();
  EXPECT_THROW(SnapshotReader reader(path), check_error);
  std::remove(path.c_str());
}

TEST(SnapshotReader, ChecksumCatchesFlippedPayloadBit) {
  const DistBlock matrix = random_matrix(12, 12, 9);
  const std::string path = temp_path("bitflip.snap");
  write_snapshot(path, matrix, 4);
  const SnapshotHeader h{12, 12, 4};
  // Structural checks still pass (size and offsets untouched); only the
  // per-tile checksum can catch a payload bit flip.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::int64_t payload_start = 32 + h.num_tiles() * 16;
  file.seekg(payload_start + 5);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(payload_start + 5);
  file.write(&byte, 1);
  file.close();
  const SnapshotReader reader(path);  // structural open succeeds
  EXPECT_THROW(reader.read_tile(0), check_error);
  EXPECT_NO_THROW(reader.read_tile(1));  // other tiles unaffected
  std::remove(path.c_str());
}

TEST(SnapshotReader, EmptyMatrixSnapshot) {
  const std::string path = temp_path("empty.snap");
  write_snapshot(path, DistBlock(0, 0), 4);
  const SnapshotReader reader(path);
  EXPECT_EQ(reader.header().num_tiles(), 0);
  EXPECT_THROW(reader.read_tile(0), check_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capsp
