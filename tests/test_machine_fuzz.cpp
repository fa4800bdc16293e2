// Randomized stress tests of the machine simulator and collectives:
// arbitrary communication patterns checked against locally computed
// expectations, and collectives over random groups checked against a
// naive direct-send reference.  The simulator carries every distributed
// result in this repository, so it gets fuzzed hardest.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "machine/collectives.hpp"
#include "machine/machine.hpp"
#include "semiring/semirings.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

TEST(MachineFuzz, RandomPointToPointPatterns) {
  // Generate a random set of (src, dst, tag, payload) messages; every
  // rank sends its share in a random order and receives its share in a
  // different random order.  All payloads must arrive intact.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(900 + seed);
    const int p = static_cast<int>(2 + rng.uniform(9));
    struct Msg {
      RankId src, dst;
      Tag tag;
      std::vector<Dist> payload;
    };
    std::vector<Msg> messages;
    const int count = static_cast<int>(20 + rng.uniform(60));
    for (int i = 0; i < count; ++i) {
      Msg m;
      m.src = static_cast<RankId>(rng.uniform(static_cast<std::uint64_t>(p)));
      do {
        m.dst = static_cast<RankId>(rng.uniform(static_cast<std::uint64_t>(p)));
      } while (m.dst == m.src);
      m.tag = i;  // unique tags keep matching unambiguous
      const auto words = rng.uniform(20);
      for (std::uint64_t w = 0; w < words; ++w)
        m.payload.push_back(rng.uniform_real(-5, 5));
      messages.push_back(std::move(m));
    }
    // Per-rank send/recv orders, shuffled deterministically.
    std::vector<std::vector<int>> send_order(static_cast<std::size_t>(p));
    std::vector<std::vector<int>> recv_order(static_cast<std::size_t>(p));
    for (int i = 0; i < count; ++i) {
      send_order[static_cast<std::size_t>(messages[static_cast<std::size_t>(i)].src)]
          .push_back(i);
      recv_order[static_cast<std::size_t>(messages[static_cast<std::size_t>(i)].dst)]
          .push_back(i);
    }
    for (auto& order : recv_order)
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform(i)]);

    Machine machine(p);
    machine.run([&](Comm& comm) {
      for (int i : send_order[static_cast<std::size_t>(comm.rank())]) {
        const auto& m = messages[static_cast<std::size_t>(i)];
        comm.send(m.dst, m.tag, m.payload);
      }
      for (int i : recv_order[static_cast<std::size_t>(comm.rank())]) {
        const auto& m = messages[static_cast<std::size_t>(i)];
        const auto got = comm.recv(m.src, m.tag);
        ASSERT_EQ(got, m.payload) << "seed " << seed << " msg " << i;
      }
    });
    std::int64_t words = 0;
    for (const auto& m : messages)
      words += static_cast<std::int64_t>(m.payload.size());
    EXPECT_EQ(machine.report().total_messages, count);
    EXPECT_EQ(machine.report().total_words, words);
  }
}

TEST(MachineFuzz, RandomGroupsBroadcastBothAlgorithms) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(1200 + seed);
    const int p = static_cast<int>(3 + rng.uniform(10));
    // Random subset of ranks as the group, random root, random payload.
    std::vector<RankId> group;
    for (RankId r = 0; r < p; ++r)
      if (rng.bernoulli(0.6)) group.push_back(r);
    if (group.size() < 2) group = {0, static_cast<RankId>(p - 1)};
    const RankId root = group[rng.uniform(group.size())];
    const std::int64_t rows = static_cast<std::int64_t>(1 + rng.uniform(6));
    const std::int64_t cols = static_cast<std::int64_t>(1 + rng.uniform(6));
    DistBlock payload(rows, cols);
    for (auto& v : payload.data()) v = rng.uniform_real(0, 99);

    for (auto algorithm : {CollectiveAlgorithm::kBinomialTree,
                           CollectiveAlgorithm::kPipelined}) {
      Machine machine(p);
      machine.run([&](Comm& comm) {
        if (std::find(group.begin(), group.end(), comm.rank()) ==
            group.end())
          return;
        DistBlock block(rows, cols);
        if (comm.rank() == root) block = payload;
        group_broadcast(comm, group, root, block, 7, algorithm);
        ASSERT_EQ(block, payload)
            << "seed " << seed << " rank " << comm.rank();
      });
    }
  }
}

TEST(MachineFuzz, RandomGroupsReduceAgainstNaive) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(1500 + seed);
    const int p = static_cast<int>(3 + rng.uniform(10));
    std::vector<RankId> group;
    for (RankId r = 0; r < p; ++r)
      if (rng.bernoulli(0.7)) group.push_back(r);
    if (group.size() < 2) group = {0, 1};
    const RankId root = group[rng.uniform(group.size())];
    const std::int64_t dim = static_cast<std::int64_t>(1 + rng.uniform(5));

    // Contributions and the expected elementwise min.
    std::map<RankId, DistBlock> contribution;
    DistBlock expected(dim, dim);
    for (RankId r : group) {
      DistBlock block(dim, dim);
      for (auto& v : block.data())
        v = rng.bernoulli(0.2) ? kInf : rng.uniform_real(-10, 10);
      semiring_elementwise_plus<MinPlusSemiring>(expected, block);
      contribution.emplace(r, std::move(block));
    }

    for (auto algorithm : {CollectiveAlgorithm::kBinomialTree,
                           CollectiveAlgorithm::kPipelined}) {
      Machine machine(p);
      machine.run([&](Comm& comm) {
        if (!contribution.count(comm.rank())) return;
        DistBlock block = contribution.at(comm.rank());
        group_reduce_min(comm, group, root, block, 3, algorithm);
        if (comm.rank() == root) {
          ASSERT_EQ(block, expected) << "seed " << seed;
        }
      });
    }
  }
}

TEST(MachineFuzz, InterleavedCollectivesOnDisjointGroups) {
  // Two disjoint groups run collectives with the same tag concurrently —
  // they must not interfere (disjoint rank pairs).
  Machine machine(8);
  const std::vector<RankId> group_a{0, 1, 2, 3};
  const std::vector<RankId> group_b{4, 5, 6, 7};
  machine.run([&](Comm& comm) {
    const bool in_a = comm.rank() < 4;
    const auto& group = in_a ? group_a : group_b;
    const RankId root = in_a ? 1 : 6;
    DistBlock block(2, 2);
    if (comm.rank() == root) block = DistBlock(2, 2, in_a ? 1.0 : 2.0);
    group_broadcast(comm, group, root, block, 0);
    EXPECT_EQ(block.at(0, 0), in_a ? 1.0 : 2.0);
    group_reduce_min(comm, group, root, block, 1);
  });
}

TEST(MachineFuzz, ManySmallMachinesSequentially) {
  // Machine construction/teardown is cheap and leak-free across many
  // iterations (the test harness itself would hang on leaked threads).
  for (int iteration = 0; iteration < 50; ++iteration) {
    Machine machine(3);
    machine.run([](Comm& comm) {
      if (comm.rank() == 0)
        comm.send(1, 0, std::vector<Dist>{1.0});
      if (comm.rank() == 1) comm.recv(0, 0);
    });
  }
}

}  // namespace
}  // namespace capsp
