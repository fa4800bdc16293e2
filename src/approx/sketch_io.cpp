#include "approx/sketch_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <vector>

#include "machine/reliable.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/read_exact.hpp"

namespace capsp {
namespace {

constexpr char kMagicAx1[8] = {'C', 'A', 'P', 'S', 'P', 'A', 'X', '1'};

constexpr std::int64_t kHeaderBytes =
    8 + 2 * static_cast<std::int64_t>(sizeof(std::int64_t));
constexpr std::int64_t kIndexEntryBytes =
    2 * static_cast<std::int64_t>(sizeof(std::int64_t));

/// The id table is checksummed with the same frame_checksum the rows
/// use, keyed by sequence -1 (no row uses a negative key).  Ids are
/// widened to Dist — exact for any int32 vertex — to fit its payload
/// type.
std::int64_t ids_checksum(std::span<const Vertex> landmarks) {
  std::vector<Dist> widened(landmarks.begin(), landmarks.end());
  return static_cast<std::int64_t>(frame_checksum(-1, widened));
}

std::int64_t payload_offset(std::int64_t num_landmarks) {
  return kHeaderBytes +
         num_landmarks * static_cast<std::int64_t>(sizeof(std::int64_t)) +
         static_cast<std::int64_t>(sizeof(std::int64_t)) +  // id checksum
         num_landmarks * kIndexEntryBytes;
}

std::int64_t row_bytes(std::int64_t n) {
  return n * static_cast<std::int64_t>(sizeof(Dist));
}

void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

void write_sketch(const std::string& path, const LandmarkSketch& sketch) {
  const std::int64_t n = sketch.n, num = sketch.num_landmarks();
  CAPSP_CHECK_MSG(n >= 0, "sketch n " << n);
  CAPSP_CHECK_MSG(num <= n, "sketch has " << num << " landmarks for " << n
                                          << " vertices");
  for (std::size_t i = 0; i < sketch.landmarks.size(); ++i) {
    CAPSP_CHECK_MSG(sketch.landmarks[i] >= 0 && sketch.landmarks[i] < n,
                    "landmark " << sketch.landmarks[i] << " outside [0," << n
                                << ")");
    CAPSP_CHECK_MSG(i == 0 || sketch.landmarks[i - 1] < sketch.landmarks[i],
                    "landmark ids must be strictly ascending");
  }
  CAPSP_CHECK_MSG(static_cast<std::int64_t>(sketch.rows.size()) == num * n,
                  "sketch rows hold " << sketch.rows.size() << " entries, "
                                      << num << " landmarks of " << n
                                      << " want " << num * n);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  CAPSP_CHECK_MSG(file.good(), "cannot open " << path << " for writing");
  file.write(kMagicAx1, sizeof(kMagicAx1));
  write_i64(file, n);
  write_i64(file, num);
  for (const Vertex l : sketch.landmarks)
    write_i64(file, static_cast<std::int64_t>(l));
  write_i64(file, ids_checksum(sketch.landmarks));
  std::int64_t offset = payload_offset(num);
  for (std::int64_t i = 0; i < num; ++i) {
    write_i64(file, offset);
    write_i64(file,
              static_cast<std::int64_t>(frame_checksum(i, sketch.row(i))));
    offset += row_bytes(n);
  }
  file.write(reinterpret_cast<const char*>(sketch.rows.data()),
             static_cast<std::streamsize>(sketch.rows.size() * sizeof(Dist)));
  file.close();
  CAPSP_CHECK_MSG(file.good(), "sketch write failed for " << path);
}

LandmarkSketch read_sketch(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CAPSP_CHECK_MSG(is.good(), "cannot open " << path);
  is.seekg(0, std::ios::end);
  const std::int64_t file_size = static_cast<std::int64_t>(is.tellg());
  is.seekg(0);
  char magic[8] = {};
  read_exact_bytes(is, magic, sizeof(magic), "sketch magic");
  CAPSP_CHECK_MSG(std::memcmp(magic, kMagicAx1, sizeof(magic)) == 0,
                  "not a capsp sketch (bad magic) in " << path);
  LandmarkSketch sketch;
  std::int64_t num = 0;
  read_exact_bytes(is, &sketch.n, sizeof(sketch.n), "sketch n");
  read_exact_bytes(is, &num, sizeof(num), "sketch landmark count");
  CAPSP_CHECK_MSG(sketch.n >= 0 && sketch.n < (std::int64_t{1} << 32),
                  "sketch " << path << " header corrupt: n = " << sketch.n);
  CAPSP_CHECK_MSG(num >= 0 && num <= sketch.n,
                  "sketch " << path << " header corrupt: " << num
                            << " landmarks for " << sketch.n << " vertices");
  // The id table, the index and the rows are sized from the header, so
  // the file must be able to hold each of them (an id and an index entry
  // per landmark, a row of n doubles per landmark) before anything is
  // allocated.
  const std::int64_t room = file_size - kHeaderBytes;
  const std::int64_t id_and_index_bytes =
      static_cast<std::int64_t>(sizeof(std::int64_t)) + kIndexEntryBytes;
  CAPSP_CHECK_MSG(product_at_most(num, id_and_index_bytes, room) &&
                      product_at_most(num, row_bytes(sketch.n), room),
                  "sketch " << path << " is " << file_size
                            << " bytes, too small for " << num
                            << " landmarks of " << sketch.n
                            << " vertices (corrupt header)");
  sketch.landmarks.resize(static_cast<std::size_t>(num));
  for (std::int64_t i = 0; i < num; ++i) {
    std::int64_t id = 0;
    read_exact_bytes(is, &id, sizeof(id), "sketch landmark id");
    CAPSP_CHECK_MSG(id >= 0 && id < sketch.n,
                    "sketch landmark " << id << " outside [0," << sketch.n
                                       << ") (corrupt id table)");
    CAPSP_CHECK_MSG(i == 0 ||
                        sketch.landmarks[static_cast<std::size_t>(i - 1)] <
                            static_cast<Vertex>(id),
                    "sketch landmark ids out of order (corrupt id table)");
    sketch.landmarks[static_cast<std::size_t>(i)] = static_cast<Vertex>(id);
  }
  std::int64_t stored_ids_checksum = 0;
  read_exact_bytes(is, &stored_ids_checksum, sizeof(stored_ids_checksum),
                   "sketch id checksum");
  CAPSP_CHECK_MSG(stored_ids_checksum == ids_checksum(sketch.landmarks),
                  "sketch " << path
                            << " id table failed its checksum (corrupt file)");
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(num));
  std::vector<std::int64_t> checksums(static_cast<std::size_t>(num));
  for (std::int64_t i = 0; i < num; ++i) {
    read_exact_bytes(is, &offsets[static_cast<std::size_t>(i)],
                     sizeof(std::int64_t), "sketch row index");
    read_exact_bytes(is, &checksums[static_cast<std::size_t>(i)],
                     sizeof(std::int64_t), "sketch row index");
  }
  // Structural validation before trusting a single row: the offsets must
  // be exactly the geometry-derived layout and the file exactly the
  // payloads' extent — anything else is truncation or corruption.
  std::int64_t expected = payload_offset(num);
  for (std::int64_t i = 0; i < num; ++i) {
    CAPSP_CHECK_MSG(offsets[static_cast<std::size_t>(i)] == expected,
                    "sketch row " << i << " offset "
                                  << offsets[static_cast<std::size_t>(i)]
                                  << " != expected " << expected
                                  << " (corrupt index)");
    expected += row_bytes(sketch.n);
  }
  CAPSP_CHECK_MSG(file_size == expected,
                  "sketch is " << file_size << " bytes, geometry wants "
                               << expected
                               << " (truncated or trailing bytes)");
  sketch.rows.resize(static_cast<std::size_t>(num * sketch.n));
  for (std::int64_t i = 0; i < num; ++i) {
    Dist* row = sketch.rows.data() + i * sketch.n;
    if (sketch.n > 0)
      read_exact_bytes(is, row,
                       static_cast<std::streamsize>(row_bytes(sketch.n)),
                       "sketch row payload");
    CAPSP_CHECK_MSG(
        frame_checksum(i, std::span<const Dist>(
                              row, static_cast<std::size_t>(sketch.n))) ==
            static_cast<std::uint64_t>(
                checksums[static_cast<std::size_t>(i)]),
        "sketch row " << i << " failed its checksum (corrupt file)");
  }
  return sketch;
}

}  // namespace capsp
