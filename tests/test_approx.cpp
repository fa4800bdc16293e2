// Tests for the landmark sketch (approx/sketch) and the CAPSPAX2 sketch
// file (approx/sketch_io): the bound invariant lower <= exact <= upper
// fuzzed against the exact oracle across many random graphs, landmark
// selection determinism, edge cases (disconnected graphs, a single
// vertex, zero landmarks), the file's byte layout pinned to recorded
// constants, the writer's argument CHECKs, and reader rejection of
// truncated, corrupted, oversized-header and retired-format files and of
// snapshot files (and the snapshot reader's rejection of sketch files).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "approx/sketch.hpp"
#include "approx/sketch_io.hpp"
#include "baseline/reference.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/nested_dissection.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/capsp_sketch_" + name;
}

/// The sketch's whole contract: every pair's certified interval contains
/// the exact distance (with rounding slack for real weights), and inf
/// propagates consistently.
void expect_bounds_contain_exact(const Graph& graph,
                                 const LandmarkSketch& sketch,
                                 const char* label) {
  const DistBlock exact = reference_apsp(graph);
  const Vertex n = graph.num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      const DistanceBound bound = sketch.bounds(u, v);
      const Dist d = exact.at(u, v);
      if (is_inf(d)) {
        // Unreachable: the upper bound must stay inf (no landmark may
        // "connect" a disconnected pair).
        EXPECT_TRUE(is_inf(bound.upper))
            << label << ": finite upper bound for unreachable (" << u << ","
            << v << ")";
        continue;
      }
      const Dist eps = 1e-9 * std::max(1.0, d);
      EXPECT_LE(bound.lower, d + eps)
          << label << ": lower bound above exact at (" << u << "," << v
          << ")";
      EXPECT_GE(bound.upper + eps, d)
          << label << ": upper bound below exact at (" << u << "," << v
          << ")";
      EXPECT_LE(bound.lower, bound.upper + eps)
          << label << ": inverted interval at (" << u << "," << v << ")";
    }
  }
}

TEST(Sketch, LandmarkRowsAreExact) {
  Rng rng(3);
  const Graph graph = make_named_graph("grid", 100, rng);
  const Dissection nd = nested_dissection(graph, 3, rng);
  const LandmarkSketch sketch = build_sketch(graph, nd);
  ASSERT_GT(sketch.num_landmarks(), 0);
  const DistBlock exact = reference_apsp(graph);
  // A query touching a landmark collapses the interval: the triangle
  // inequality through that landmark is tight.
  for (const Vertex landmark : sketch.landmarks) {
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      const DistanceBound bound = sketch.bounds(landmark, v);
      const Dist d = exact.at(landmark, v);
      const Dist eps = is_inf(d) ? 0 : 1e-9 * std::max(1.0, d);
      EXPECT_NEAR(bound.lower, d, eps);
      EXPECT_NEAR(bound.upper, d, eps);
      EXPECT_TRUE(bound.exact());
      EXPECT_EQ(bound.gap(), 0.0);
    }
  }
}

TEST(Sketch, SelfQueriesAreZero) {
  Rng rng(4);
  const Graph graph = make_named_graph("er", 40, rng);
  const LandmarkSketch sketch = build_sketch(graph);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const DistanceBound bound = sketch.bounds(v, v);
    EXPECT_EQ(bound.lower, 0.0);
    EXPECT_EQ(bound.upper, 0.0);
  }
}

TEST(Sketch, FuzzBoundsAgainstOracle) {
  // >= 40 random graphs across generators, sizes, seeds, and both
  // landmark-selection paths.
  const char* kinds[] = {"grid", "er", "tree", "geometric", "rmat"};
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const char* kind : kinds) {
      Rng rng(seed * 131 + 7);
      const Vertex n = 20 + static_cast<Vertex>((seed * 13) % 30);
      const Graph graph = make_named_graph(kind, n, rng);
      SketchOptions options;
      options.max_landmarks = 4 + static_cast<std::int64_t>(seed % 5) * 3;
      if (seed % 2 == 0) {
        Rng nd_rng(seed);
        const Dissection nd = nested_dissection(graph, 3, nd_rng);
        expect_bounds_contain_exact(graph, build_sketch(graph, nd, options),
                                    kind);
      } else {
        expect_bounds_contain_exact(graph, build_sketch(graph, options),
                                    kind);
      }
      ++cases;
    }
  }
  EXPECT_GE(cases, 40);
}

TEST(Sketch, SelectionIsDeterministic) {
  Rng rng_a(9), rng_b(9);
  const Graph graph_a = make_named_graph("grid", 144, rng_a);
  const Graph graph_b = make_named_graph("grid", 144, rng_b);
  Rng nd_a(2), nd_b(2);
  const Dissection da = nested_dissection(graph_a, 3, nd_a);
  const Dissection db = nested_dissection(graph_b, 3, nd_b);
  EXPECT_EQ(select_landmarks(graph_a, da), select_landmarks(graph_b, db));
  EXPECT_EQ(select_landmarks(graph_a), select_landmarks(graph_b));
}

TEST(Sketch, LandmarkBudgetRespected) {
  Rng rng(11);
  const Graph graph = make_named_graph("grid", 144, rng);
  const Dissection nd = nested_dissection(graph, 4, rng);
  for (const std::int64_t budget : {1, 3, 8, 200}) {
    SketchOptions options;
    options.max_landmarks = budget;
    options.top_levels = 9;
    const std::vector<Vertex> nd_picked =
        select_landmarks(graph, nd, options);
    const std::vector<Vertex> heur_picked = select_landmarks(graph, options);
    EXPECT_LE(static_cast<std::int64_t>(nd_picked.size()), budget);
    EXPECT_LE(static_cast<std::int64_t>(heur_picked.size()), budget);
    // Sorted, unique, in range — the file format requires ascending ids.
    for (const auto& picked : {nd_picked, heur_picked}) {
      for (std::size_t i = 0; i < picked.size(); ++i) {
        EXPECT_GE(picked[i], 0);
        EXPECT_LT(picked[i], graph.num_vertices());
        if (i > 0) {
          EXPECT_LT(picked[i - 1], picked[i]);
        }
      }
    }
  }
}

TEST(Sketch, DisconnectedPairsStayDisconnected) {
  // Two 3-vertex paths with no edge between them.
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 1);
  builder.add_edge(1, 2, 2);
  builder.add_edge(3, 4, 1);
  builder.add_edge(4, 5, 2);
  const Graph graph = std::move(builder).build();
  // Landmarks only in the first component: a cross-component query sees
  // exactly one infinite row entry, which proves disconnection.
  const LandmarkSketch sketch = build_sketch(graph, std::vector<Vertex>{0, 2});
  for (Vertex u = 0; u < 3; ++u) {
    for (Vertex v = 3; v < 6; ++v) {
      const DistanceBound bound = sketch.bounds(u, v);
      EXPECT_TRUE(is_inf(bound.lower));
      EXPECT_TRUE(is_inf(bound.upper));
      EXPECT_TRUE(bound.exact());
    }
  }
  // Within the landmark-free component there is no informative landmark:
  // the interval degrades to the vacuous [0, inf].
  const DistanceBound vacuous = sketch.bounds(3, 5);
  EXPECT_EQ(vacuous.lower, 0.0);
  EXPECT_TRUE(is_inf(vacuous.upper));
  EXPECT_FALSE(vacuous.exact());
}

TEST(SketchIo, RoundTripBitExact) {
  Rng rng(21);
  const Graph graph = make_named_graph("er", 50, rng);
  const LandmarkSketch sketch = build_sketch(graph);
  const std::string path = temp_path("roundtrip.ax1");
  write_sketch(path, sketch);
  const LandmarkSketch loaded = read_sketch(path);
  EXPECT_EQ(loaded.n, sketch.n);
  EXPECT_EQ(loaded.landmarks, sketch.landmarks);
  EXPECT_EQ(loaded.rows, sketch.rows);  // bit-exact doubles
  std::remove(path.c_str());
}

TEST(SketchIo, InfinitiesSurviveRoundTrip) {
  GraphBuilder builder(5);
  builder.add_edge(0, 1, 1.5);
  builder.add_edge(2, 3, 2.5);  // vertex 4 isolated
  const Graph graph = std::move(builder).build();
  const LandmarkSketch sketch = build_sketch(graph, std::vector<Vertex>{0, 2, 4});
  const std::string path = temp_path("inf.ax1");
  write_sketch(path, sketch);
  const LandmarkSketch loaded = read_sketch(path);
  EXPECT_EQ(loaded.rows, sketch.rows);
  // Row of the isolated landmark: inf everywhere except itself.
  const auto row = loaded.row(2);
  for (Vertex v = 0; v < 5; ++v)
    EXPECT_EQ(is_inf(row[static_cast<std::size_t>(v)]), v != 4);
  std::remove(path.c_str());
}

TEST(SketchIo, SingleVertexSketch) {
  GraphBuilder builder(1);
  const Graph graph = std::move(builder).build();
  const LandmarkSketch sketch = build_sketch(graph, std::vector<Vertex>{0});
  EXPECT_EQ(sketch.n, 1);
  EXPECT_EQ(sketch.num_landmarks(), 1);
  const DistanceBound bound = sketch.bounds(0, 0);
  EXPECT_EQ(bound.lower, 0.0);
  EXPECT_EQ(bound.upper, 0.0);
  const std::string path = temp_path("single.ax1");
  write_sketch(path, sketch);
  const LandmarkSketch loaded = read_sketch(path);
  EXPECT_EQ(loaded.n, 1);
  EXPECT_EQ(loaded.rows, sketch.rows);
  std::remove(path.c_str());
}

TEST(SketchIo, ZeroLandmarkSketch) {
  Rng rng(5);
  const Graph graph = make_named_graph("tree", 10, rng);
  const LandmarkSketch sketch = build_sketch(graph, std::vector<Vertex>{});
  EXPECT_EQ(sketch.num_landmarks(), 0);
  const DistanceBound bound = sketch.bounds(0, 5);
  EXPECT_EQ(bound.lower, 0.0);
  EXPECT_TRUE(is_inf(bound.upper));
  const std::string path = temp_path("empty.ax1");
  write_sketch(path, sketch);
  const LandmarkSketch loaded = read_sketch(path);
  EXPECT_EQ(loaded.n, 10);
  EXPECT_EQ(loaded.num_landmarks(), 0);
  std::remove(path.c_str());
}

/// Write a valid sketch file and return its bytes.
std::string sketch_bytes(const std::string& path) {
  Rng rng(31);
  const Graph graph = make_named_graph("grid", 36, rng);
  write_sketch(path, build_sketch(graph));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string file_hex(const std::string& path) {
  static const char kDigits[] = "0123456789abcdef";
  std::ifstream in(path, std::ios::binary);
  std::string hex;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    hex += kDigits[(static_cast<unsigned char>(*it) >> 4) & 0xf];
    hex += kDigits[static_cast<unsigned char>(*it) & 0xf];
  }
  return hex;
}

std::string unhex(const std::string& digits) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2)
    bytes += static_cast<char>(std::stoi(digits.substr(i, 2), nullptr, 16));
  return bytes;
}

/// The sketch whose file the layout tests pin: 2 landmarks of a 4-vertex
/// graph, with kInf, zero and negative entries.
LandmarkSketch layout_sketch() {
  LandmarkSketch sketch;
  sketch.n = 4;
  sketch.landmarks = {1, 3};
  sketch.rows = {2.5, 0, 1.25, kInf, kInf, 7, -3.5, 0};
  return sketch;
}

/// What read_sketch(path) refuses the file with ("" when it loads).
std::string refusal(const std::string& path) {
  try {
    read_sketch(path);
  } catch (const check_error& e) {
    return e.what();
  }
  return "";
}

TEST(SketchIo, TruncatedFileRejected) {
  const std::string path = temp_path("trunc.ax1");
  const std::string bytes = sketch_bytes(path);
  // Truncation anywhere — inside the header, the index, or the payload —
  // must be rejected, never silently read as a shorter sketch.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{30}, bytes.size() / 2,
        bytes.size() - 1}) {
    write_bytes(path, bytes.substr(0, keep));
    EXPECT_THROW(read_sketch(path), check_error) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(SketchIo, CorruptedFileRejected) {
  const std::string path = temp_path("corrupt.ax1");
  const std::string bytes = sketch_bytes(path);
  // A bit flip in the magic, the landmark ids, the row index, or a
  // payload row must all fail the structural checks or a checksum.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{25}, std::size_t{60},
        bytes.size() - 9}) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    write_bytes(path, corrupt);
    EXPECT_THROW(read_sketch(path), check_error) << "flipped byte " << at;
  }
  // Trailing garbage is as fatal as missing bytes.
  write_bytes(path, bytes + "x");
  EXPECT_THROW(read_sketch(path), check_error);
  std::remove(path.c_str());
}

// A header whose id table, index or rows the file cannot hold is refused
// before anything is sized from it, each in a bare 24-byte file.
TEST(SketchIo, RejectsHeaderLargerThanFile) {
  const std::int64_t crafted[][2] = {
      {std::int64_t{1} << 31, std::int64_t{1} << 31},
      {(std::int64_t{1} << 32) - 1, (std::int64_t{1} << 32) - 1},
  };
  const std::string path = temp_path("crafted.ax1");
  for (const auto& header : crafted) {
    std::string bytes(kSketchMagic);
    for (const std::int64_t field : header)
      bytes.append(reinterpret_cast<const char*>(&field), sizeof(field));
    write_bytes(path, bytes);
    const std::string what = refusal(path);
    EXPECT_NE(what.find("corrupt header"), std::string::npos)
        << "n " << header[0] << ", " << header[1] << " landmarks: " << what;
  }
  std::remove(path.c_str());
}

// The retired CAPSPAX1 layout differs from CAPSPAX2 only in its magic and
// its FNV-1a checksums.  The layout sketch's file as the CAPSPAX1 writer
// recorded it, valid in every other byte, is refused at open.
TEST(SketchIo, Ax1LayoutRefusedAtOpen) {
  const std::string path = temp_path("retired.ax1");
  std::string ax1 = unhex(
      "4341505350415831040000000000000002000000000000000100000000000000"
      "0300000000000000118bf8231ebf00005000000000000000fe7a40d6d0410000"
      "70000000000000006825532952fe000000000000000004400000000000000000"
      "000000000000f43f000000000000f07f000000000000f07f0000000000001c40"
      "0000000000000cc00000000000000000");
  write_bytes(path, ax1);
  EXPECT_NE(refusal(path).find("bad magic"), std::string::npos);
  // Outside the magic's last byte and the checksum words of the id table
  // and the two rows, CAPSPAX2 writes the same bytes.
  write_sketch(path, layout_sketch());
  std::ifstream in(path, std::ios::binary);
  std::string ax2((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  ASSERT_EQ(ax2.size(), ax1.size());
  for (std::string* bytes : {&ax1, &ax2}) {
    (*bytes)[7] = 0;
    for (const std::size_t at : {40, 56, 72}) bytes->replace(at, 8, 8, '\0');
  }
  EXPECT_EQ(ax1, ax2);
  std::remove(path.c_str());
}

// Every byte of the format, pinned to recorded constants.
TEST(SketchIo, LayoutMatchesRecordedBytes) {
  const std::string path = temp_path("layout.ax1");
  write_sketch(path, layout_sketch());
  EXPECT_EQ(file_hex(path),
            "4341505350415832040000000000000002000000000000000100000000000000"
            "03000000000000008677a40feb7600005000000000000000453e550740590000"
            "700000000000000069622759c78c000000000000000004400000000000000000"
            "000000000000f43f000000000000f07f000000000000f07f0000000000001c40"
            "0000000000000cc00000000000000000");
  std::remove(path.c_str());
}

TEST(SketchIo, WriterRejectsBadLandmarks) {
  const std::string path = temp_path("badlandmarks.ax1");
  LandmarkSketch sketch;
  sketch.n = 4;
  sketch.rows.assign(8, 0);
  sketch.landmarks = {1, 4};  // outside [0, n)
  EXPECT_THROW(write_sketch(path, sketch), check_error);
  sketch.landmarks = {3, 1};  // not ascending
  EXPECT_THROW(write_sketch(path, sketch), check_error);
  std::remove(path.c_str());
}

// The rest of the writer's argument CHECKs: a negative vertex count,
// more landmarks than vertices, and a row table of the wrong length are
// refused before the file is opened.
TEST(SketchIo, WriterRejectsBadShape) {
  const std::string path = temp_path("badshape.ax1");
  std::remove(path.c_str());
  LandmarkSketch negative;
  negative.n = -1;
  EXPECT_THROW(write_sketch(path, negative), check_error);
  LandmarkSketch crowded;
  crowded.n = 2;
  crowded.landmarks = {0, 1, 2};
  crowded.rows.assign(6, 0);
  EXPECT_THROW(write_sketch(path, crowded), check_error);
  LandmarkSketch short_rows;
  short_rows.n = 4;
  short_rows.landmarks = {1, 3};
  short_rows.rows.assign(7, 0);  // 2 landmarks x 4 vertices want 8
  EXPECT_THROW(write_sketch(path, short_rows), check_error);
  EXPECT_FALSE(std::ifstream(path).good()) << "a refused sketch left a file";
}

// One file format per artifact: each reader refuses the other's file at
// its magic, so a sketch is never served as a snapshot or the reverse.
TEST(SketchIo, FormatsRefuseEachOther) {
  const std::string sketch_path = temp_path("cross.ax1");
  const std::string snapshot_path = temp_path("cross.snap");
  sketch_bytes(sketch_path);
  DistBlock matrix(4, 4);
  matrix.zero_diagonal();
  write_snapshot(snapshot_path, matrix, 2);
  for (const auto& refuse :
       {std::function<void()>([&] { read_sketch(snapshot_path); }),
        std::function<void()>([&] { SnapshotReader reader(sketch_path); })}) {
    try {
      refuse();
      FAIL() << "a reader accepted the other format";
    } catch (const check_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
          << e.what();
    }
  }
  std::remove(sketch_path.c_str());
  std::remove(snapshot_path.c_str());
}

}  // namespace
}  // namespace capsp
