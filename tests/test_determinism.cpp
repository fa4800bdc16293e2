// Determinism is a library-wide invariant (docs/architecture.md): every
// stochastic component must be a pure function of its seed.  This suite
// sweeps the generator families and the whole pipeline twice and demands
// bit-identical results, plus abort-path robustness under load.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/collectives.hpp"
#include "partition/distributed_nd.hpp"

namespace capsp {
namespace {

void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].to, nb[i].to);
      ASSERT_EQ(na[i].weight, nb[i].weight);
    }
  }
}

TEST(Determinism, EveryGeneratorFamily) {
  using Maker = Graph (*)(Rng&);
  const Maker makers[] = {
      +[](Rng& rng) { return make_grid2d(9, 7, rng); },
      +[](Rng& rng) { return make_grid3d(3, 4, 5, rng); },
      +[](Rng& rng) { return make_path(40, rng); },
      +[](Rng& rng) { return make_cycle(30, rng); },
      +[](Rng& rng) { return make_complete(12, rng); },
      +[](Rng& rng) { return make_random_tree(50, rng); },
      +[](Rng& rng) { return make_erdos_renyi(60, 4.0, rng); },
      +[](Rng& rng) { return make_random_geometric(50, 0.25, rng); },
      +[](Rng& rng) { return make_rmat(64, 6.0, rng); },
      +[](Rng& rng) { return make_ladder(30, rng); },
      +[](Rng& rng) { return make_small_world(40, 2, 0.3, rng); },
  };
  for (std::size_t m = 0; m < std::size(makers); ++m) {
    Rng a(77), b(77);
    expect_identical(makers[m](a), makers[m](b));
  }
}

TEST(Determinism, WholePipelineTwiceBitIdentical) {
  Rng rng(9);
  const Graph graph = make_random_geometric(70, 0.2, rng);
  SparseApspOptions options;
  options.height = 3;
  const SparseApspResult a = run_sparse_apsp(graph, options);
  const SparseApspResult b = run_sparse_apsp(graph, options);
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.costs.critical_latency, b.costs.critical_latency);
  EXPECT_EQ(a.costs.critical_bandwidth, b.costs.critical_bandwidth);
  EXPECT_EQ(a.costs.total_messages, b.costs.total_messages);
  EXPECT_EQ(a.ops_per_rank, b.ops_per_rank);
  ASSERT_EQ(a.clock_after_level.size(), b.clock_after_level.size());
  for (std::size_t l = 0; l < a.clock_after_level.size(); ++l) {
    EXPECT_EQ(a.clock_after_level[l].latency,
              b.clock_after_level[l].latency);
    EXPECT_EQ(a.clock_after_level[l].words, b.clock_after_level[l].words);
  }
  // Per-phase volumes too.
  EXPECT_EQ(a.costs.phase_total.size(), b.costs.phase_total.size());
  for (const auto& [phase, volume] : a.costs.phase_total) {
    ASSERT_TRUE(b.costs.phase_total.count(phase));
    EXPECT_EQ(volume.messages, b.costs.phase_total.at(phase).messages);
    EXPECT_EQ(volume.words, b.costs.phase_total.at(phase).words);
  }
}

TEST(Determinism, TracedRunsProduceIdenticalTimelines) {
  // Tracing (docs/observability.md) must be as deterministic as the
  // costs: two identical traced runs record identical per-rank event
  // timelines, field for field.  The 36x36 grid's leaves (612 and 648
  // vertices) dissect their own pattern inside the solve.
  Rng geometric_rng(9), grid_rng(10);
  const Graph geometric = make_random_geometric(70, 0.2, geometric_rng);
  const Graph grid = make_grid2d(36, 36, grid_rng);
  for (const auto& [graph, height] :
       {std::pair{&geometric, 3}, std::pair{&grid, 2}}) {
    SparseApspOptions options;
    options.height = height;
    options.collect_distances = false;
    options.trace = true;
    const SparseApspResult a = run_sparse_apsp(*graph, options);
    const SparseApspResult b = run_sparse_apsp(*graph, options);
    ASSERT_TRUE(a.trace.enabled());
    EXPECT_GT(a.trace.num_events(), 0u);
    ASSERT_EQ(a.trace.per_rank.size(), b.trace.per_rank.size());
    for (std::size_t r = 0; r < a.trace.per_rank.size(); ++r) {
      const auto& ta = a.trace.per_rank[r];
      const auto& tb = b.trace.per_rank[r];
      ASSERT_EQ(ta.size(), tb.size()) << "rank " << r;
      for (std::size_t i = 0; i < ta.size(); ++i) {
        const TraceEvent& ea = ta[i];
        const TraceEvent& eb = tb[i];
        ASSERT_EQ(ea.kind, eb.kind) << "rank " << r << " event " << i;
        EXPECT_EQ(ea.phase, eb.phase);
        EXPECT_EQ(ea.label, eb.label);
        EXPECT_EQ(ea.peer, eb.peer);
        EXPECT_EQ(ea.tag, eb.tag);
        EXPECT_EQ(ea.words, eb.words);
        EXPECT_EQ(ea.ops, eb.ops);
        EXPECT_EQ(ea.before.latency, eb.before.latency);
        EXPECT_EQ(ea.before.words, eb.before.words);
        EXPECT_EQ(ea.after.latency, eb.after.latency);
        EXPECT_EQ(ea.after.words, eb.after.words);
        EXPECT_EQ(ea.peer_event, eb.peer_event);
        EXPECT_EQ(ea.latency_from_message, eb.latency_from_message);
        EXPECT_EQ(ea.words_from_message, eb.words_from_message);
      }
    }
    // And the critical-path walk over them is reproducible too.
    const CriticalPathReport pa = extract_critical_path(a.trace,
                                                        CostAxis::kLatency);
    const CriticalPathReport pb = extract_critical_path(b.trace,
                                                        CostAxis::kLatency);
    EXPECT_EQ(pa.total, pb.total);
    ASSERT_EQ(pa.hops.size(), pb.hops.size());
    for (std::size_t i = 0; i < pa.hops.size(); ++i) {
      EXPECT_EQ(pa.hops[i].src, pb.hops[i].src);
      EXPECT_EQ(pa.hops[i].dst, pb.hops[i].dst);
      EXPECT_EQ(pa.hops[i].tag, pb.hops[i].tag);
    }
  }
}

/// 64-bit FNV-1a over every rank's traced events, field by field.
class TimelineHash {
 public:
  std::uint64_t of(const Trace& trace) {
    for (const auto& timeline : trace.per_rank) {
      mix(timeline.size());
      for (const TraceEvent& e : timeline) {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.phase);
        mix(e.label);
        mix(static_cast<std::uint64_t>(e.peer));
        mix(static_cast<std::uint64_t>(e.tag));
        mix(static_cast<std::uint64_t>(e.words));
        mix(static_cast<std::uint64_t>(e.ops));
        mix(e.before.latency);
        mix(e.before.words);
        mix(e.after.latency);
        mix(e.after.words);
        mix(static_cast<std::uint64_t>(e.peer_event));
      }
    }
    return hash_;
  }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void mix(std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) byte(static_cast<unsigned char>(v >> s));
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TEST(Determinism, TimelinesMatchParentFingerprint) {
  // Two runs of one build agree (above), but that cannot see a send
  // moved to another place in a rank's order.  These fingerprints pin
  // every rank's timeline — order of sends, receives, kernel calls and
  // phase changes, with tags and clocks — to recorded constants, so a
  // schedule change that moves any of them fails here.
  struct Case {
    int height;
    R4Strategy strategy;
    CollectiveAlgorithm collectives;
    std::uint64_t fingerprint;
  };
  using R4 = R4Strategy;
  using CA = CollectiveAlgorithm;
  const Case cases[] = {
      {3, R4::kOneToOne, CA::kBinomialTree, 8247204259940115476ULL},
      {3, R4::kOneToOne, CA::kPipelined, 277036493254531499ULL},
      {3, R4::kSharedWorkers, CA::kBinomialTree, 11802011542482025644ULL},
      {3, R4::kSharedWorkers, CA::kPipelined, 8575721079845675076ULL},
      {3, R4::kSequential, CA::kBinomialTree, 18019620837232616410ULL},
      {3, R4::kSequential, CA::kPipelined, 9605692109164346959ULL},
      {4, R4::kOneToOne, CA::kBinomialTree, 456907257327946708ULL},
      {4, R4::kOneToOne, CA::kPipelined, 15030199272462645778ULL},
      {4, R4::kSharedWorkers, CA::kBinomialTree, 13861802100351261016ULL},
      {4, R4::kSharedWorkers, CA::kPipelined, 11117289536439401905ULL},
      {4, R4::kSequential, CA::kBinomialTree, 16106999365650225959ULL},
      {4, R4::kSequential, CA::kPipelined, 1162469926604425736ULL},
  };
  Rng rng(12);
  const Graph graph = make_grid2d(10, 10, rng);
  for (const Case& c : cases) {
    SparseApspOptions options;
    options.height = c.height;
    options.r4_strategy = c.strategy;
    options.collectives = c.collectives;
    options.collect_distances = false;
    options.trace = true;
    const SparseApspResult result = run_sparse_apsp(graph, options);
    EXPECT_EQ(TimelineHash().of(result.trace), c.fingerprint)
        << "h=" << c.height << " strategy=" << static_cast<int>(c.strategy)
        << " collectives=" << static_cast<int>(c.collectives);
  }
}

TEST(Determinism, DistributedNdTrafficBitIdentical) {
  Rng rng(10);
  const Graph graph = make_grid2d(12, 12, rng);
  const auto a = distributed_nested_dissection(graph, 4, 3);
  const auto b = distributed_nested_dissection(graph, 4, 3);
  EXPECT_EQ(a.nd.perm, b.nd.perm);
  EXPECT_EQ(a.costs.total_words, b.costs.total_words);
  EXPECT_EQ(a.costs.critical_latency, b.costs.critical_latency);
}

TEST(Determinism, AbortUnderLoadStillUnwinds) {
  // A rank failing in the middle of heavy collective traffic must not
  // deadlock the machine, repeatedly.
  for (int round = 0; round < 10; ++round) {
    Machine machine(9);
    EXPECT_THROW(
        machine.run([&](Comm& comm) {
          std::vector<RankId> group{0, 1, 2, 3, 4, 5, 6, 7, 8};
          DistBlock block(8, 8, 1.0);
          for (int i = 0; i < 5; ++i)
            block = group_broadcast(comm, group, 0, block, block.rows(),
                                    block.cols(), i);
          if (comm.rank() == 4) throw check_error("injected failure");
          for (int i = 5; i < 10; ++i)
            block = group_broadcast(comm, group, 0, block, block.rows(),
                                    block.cols(), i);
        }),
        check_error);
  }
}

}  // namespace
}  // namespace capsp
