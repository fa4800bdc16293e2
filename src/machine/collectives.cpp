#include "machine/collectives.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "semiring/semirings.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace capsp {
namespace {

/// Fan-out depth of a k-member collective: rounds on the critical path —
/// ⌈log₂k⌉ for the binomial tree, k for the scatter+ring pipeline.
/// Recorded by the root only, so each collective counts once.
void observe_collective(Comm& comm, RankId root, std::size_t k,
                        CollectiveAlgorithm algorithm, const char* group_metric,
                        const char* depth_metric) {
  if (comm.rank() != root) return;
  const double depth = algorithm == CollectiveAlgorithm::kPipelined
                           ? static_cast<double>(k)
                           : static_cast<double>(std::bit_width(k - 1));
  metrics().observe(group_metric, static_cast<double>(k));
  metrics().observe(depth_metric, depth);
}

/// Position of `rank` in `group`; CHECK-fails if absent or duplicated.
std::size_t position_in(std::span<const RankId> group, RankId rank) {
  std::size_t pos = group.size();
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i] == rank) {
      CAPSP_CHECK_MSG(pos == group.size(), "rank " << rank
                                                   << " duplicated in group");
      pos = i;
    }
  }
  CAPSP_CHECK_MSG(pos < group.size(), "rank " << rank << " not in group");
  return pos;
}

RankId member(std::span<const RankId> group, std::size_t root_pos,
              std::size_t rel) {
  return group[(root_pos + rel) % group.size()];
}

/// The one copy a broadcast root makes: the payload every tree edge
/// shares.  A block that already reads a payload is shared, not copied.
Payload snapshot(const DistBlock& block) {
  if (block.is_shared()) return block.shared_payload();
  ProfScope prof("machine.copy");
  return Payload::copy_of(block.data());
}

/// Word range [begin, end) of pipeline chunk `chunk` of a `words`-word
/// payload split into `parts` chunks.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t words,
                                                std::size_t parts,
                                                std::size_t chunk) {
  return {words * chunk / parts, words * (chunk + 1) / parts};
}

/// Pipelined broadcast: root scatters one chunk per member, then a ring
/// allgather circulates every chunk to everyone.  Message matching within
/// a (src, dst, tag) triple is FIFO, so the whole collective uses the
/// caller's single tag.
DistBlock broadcast_pipelined(Comm& comm, std::span<const RankId> group,
                              RankId root, const DistBlock& source,
                              std::int64_t rows, std::int64_t cols, Tag tag) {
  const std::size_t k = group.size();
  const std::size_t pos = position_in(group, comm.rank());
  const std::size_t root_pos = position_in(group, root);
  const bool is_root = pos == root_pos;
  // The root reads its snapshot; the others assemble theirs from chunks.
  DistBlock block = is_root ? DistBlock(rows, cols, snapshot(source))
                            : DistBlock(rows, cols);
  const std::span<const Dist> data = std::as_const(block).data();
  const std::size_t words = data.size();
  const auto receive_chunk = [&](RankId src, std::size_t begin,
                                 std::size_t end) {
    const Payload piece = comm.recv(src, tag);
    CAPSP_CHECK(piece.size() == end - begin);
    if (!is_root)  // the root already holds every chunk
      std::copy(piece.begin(), piece.end(), block.data().begin() + begin);
  };

  // Scatter: root keeps its own chunk, ships the rest.
  if (is_root) {
    for (std::size_t m = 0; m < k; ++m) {
      if (m == root_pos) continue;
      const auto [begin, end] = chunk_range(words, k, m);
      comm.send(group[m], tag, data.subspan(begin, end - begin));
    }
  } else {
    const auto [begin, end] = chunk_range(words, k, pos);
    receive_chunk(root, begin, end);
  }

  // Ring allgather: at step t, member m forwards chunk (m - t) and
  // receives chunk (m - 1 - t) from its left neighbour.
  const RankId right = group[(pos + 1) % k];
  const RankId left = group[(pos + k - 1) % k];
  for (std::size_t t = 0; t + 1 < k; ++t) {
    const std::size_t send_chunk = (pos + k - t % k) % k;
    const auto [sb, se] = chunk_range(words, k, send_chunk);
    comm.send(right, tag, data.subspan(sb, se - sb));
    const std::size_t recv_chunk = (pos + k - 1 - t % k + k) % k;
    const auto [rb, re] = chunk_range(words, k, recv_chunk);
    receive_chunk(left, rb, re);
  }
  return block;
}

/// Pipelined reduction: ring reduce-scatter (after k-1 steps member m owns
/// the fully combined chunk (m+1) mod k), then the owners ship their
/// chunks to the root.
void reduce_pipelined(Comm& comm, std::span<const RankId> group, RankId root,
                      DistBlock& block, Tag tag, ReduceCombiner combine) {
  const std::size_t k = group.size();
  const std::size_t pos = position_in(group, comm.rank());
  const std::size_t root_pos = position_in(group, root);
  DistBlock accum = block;
  auto data = accum.data();
  const std::size_t words = data.size();

  const RankId right = group[(pos + 1) % k];
  const RankId left = group[(pos + k - 1) % k];
  for (std::size_t t = 0; t + 1 < k; ++t) {
    const std::size_t send_chunk = (pos + k - t % k) % k;
    const auto [sb, se] = chunk_range(words, k, send_chunk);
    comm.send(right, tag, data.subspan(sb, se - sb));
    const std::size_t recv_chunk = (pos + k - 1 - t % k + k) % k;
    const auto [rb, re] = chunk_range(words, k, recv_chunk);
    const auto piece = comm.recv(left, tag);
    CAPSP_CHECK(piece.size() == re - rb);
    if (!piece.empty()) {
      // Wrap the word ranges as 1-row blocks so the elementwise combiner
      // applies uniformly.
      DistBlock mine(1, static_cast<std::int64_t>(piece.size()));
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(rb),
                data.begin() + static_cast<std::ptrdiff_t>(re),
                mine.data().begin());
      const DistBlock theirs(1, static_cast<std::int64_t>(piece.size()),
                             piece);
      combine(mine, theirs);
      std::copy(mine.data().begin(), mine.data().end(),
                data.begin() + static_cast<std::ptrdiff_t>(rb));
    }
  }

  // Member m now owns chunk (m + 1) mod k; gather the chunks at the root.
  const std::size_t owned = (pos + 1) % k;
  if (pos != root_pos) {
    const auto [begin, end] = chunk_range(words, k, owned);
    comm.send(root, tag, data.subspan(begin, end - begin));
  } else {
    DistBlock result = std::move(accum);
    auto out = result.data();
    for (std::size_t m = 0; m < k; ++m) {
      if (m == root_pos) continue;
      const std::size_t their_chunk = (m + 1) % k;
      const auto [begin, end] = chunk_range(words, k, their_chunk);
      const auto piece = comm.recv(group[m], tag);
      CAPSP_CHECK(piece.size() == end - begin);
      std::copy(piece.begin(), piece.end(), out.begin() + begin);
    }
    block = std::move(result);
  }
}

}  // namespace

DistBlock group_broadcast(Comm& comm, std::span<const RankId> group,
                          RankId root, const DistBlock& source,
                          std::int64_t rows, std::int64_t cols, Tag tag,
                          CollectiveAlgorithm algorithm) {
  if (comm.rank() == root)
    CAPSP_CHECK_MSG(source.rows() == rows && source.cols() == cols,
                    "broadcast root holds " << source.rows() << "x"
                                            << source.cols() << ", expected "
                                            << rows << "x" << cols);
  const std::size_t k = group.size();
  if (k <= 1) return source;
  observe_collective(comm, root, k, algorithm, "machine.collective.bcast_group",
                     "machine.collective.bcast_depth");
  const CommClassScope scope(comm, "bcast");
  if (algorithm == CollectiveAlgorithm::kPipelined)
    return broadcast_pipelined(comm, group, root, source, rows, cols, tag);
  const std::size_t root_pos = position_in(group, root);
  const std::size_t pos = position_in(group, comm.rank());
  const std::size_t rel = (pos + k - root_pos) % k;

  // Classic binomial broadcast: receive from the peer that differs in the
  // lowest set bit, then forward down the remaining bits, high to low.
  // Every edge shares the root's one snapshot.
  DistBlock block;
  if (rel == 0) block = DistBlock(rows, cols, snapshot(source));
  std::size_t mask = 1;
  while (mask < k) {
    if (rel & mask) {
      block = comm.recv_block(member(group, root_pos, rel - mask), tag, rows,
                              cols);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < k)
      comm.send_block(member(group, root_pos, rel + mask), tag, block);
    mask >>= 1;
  }
  return block;
}

void group_reduce(Comm& comm, std::span<const RankId> group, RankId root,
                  DistBlock& block, Tag tag, ReduceCombiner combine,
                  CollectiveAlgorithm algorithm) {
  const std::size_t k = group.size();
  if (k <= 1) return;
  observe_collective(comm, root, k, algorithm,
                     "machine.collective.reduce_group",
                     "machine.collective.reduce_depth");
  const CommClassScope scope(comm, "reduce");
  if (algorithm == CollectiveAlgorithm::kPipelined) {
    reduce_pipelined(comm, group, root, block, tag, combine);
    return;
  }
  const std::size_t root_pos = position_in(group, root);
  const std::size_t pos = position_in(group, comm.rank());
  const std::size_t rel = (pos + k - root_pos) % k;

  // Binomial reduction mirror-image of the broadcast.  Non-root members
  // work on a copy so they keep their contribution intact; the root's
  // block is overwritten with the result anyway, so it accumulates in it.
  DistBlock accum = rel == 0 ? std::move(block) : block;
  std::size_t mask = 1;
  bool sent = false;
  while (mask < k) {
    if ((rel & mask) == 0) {
      const std::size_t peer = rel + mask;
      if (peer < k) {
        const DistBlock contribution =
            comm.recv_block(member(group, root_pos, peer), tag, accum.rows(),
                            accum.cols());
        combine(accum, contribution);
      }
    } else {
      comm.send_block(member(group, root_pos, rel - mask), tag,
                      std::move(accum));
      sent = true;
      break;
    }
    mask <<= 1;
  }
  if (rel == 0) {
    CAPSP_CHECK(!sent);
    block = std::move(accum);
  }
}

void group_reduce_min(Comm& comm, std::span<const RankId> group, RankId root,
                      DistBlock& block, Tag tag,
                      CollectiveAlgorithm algorithm) {
  group_reduce(comm, group, root, block, tag,
               &semiring_elementwise_plus<MinPlusSemiring>, algorithm);
}

}  // namespace capsp
