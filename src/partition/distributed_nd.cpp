#include "partition/distributed_nd.hpp"

#include <algorithm>
#include <mutex>

#include "partition/separator.hpp"
#include "tree/etree.hpp"

namespace capsp {
namespace {

struct WireEdge {
  Vertex u, v;
  Weight w;
};

/// Edges/vertices cross the wire as flat Dist payloads (ids are exact in
/// a double up to 2^53).
std::vector<Dist> pack_edges(std::span<const WireEdge> edges) {
  std::vector<Dist> out;
  out.reserve(edges.size() * 3);
  for (const auto& e : edges) {
    out.push_back(static_cast<Dist>(e.u));
    out.push_back(static_cast<Dist>(e.v));
    out.push_back(e.w);
  }
  return out;
}

std::vector<WireEdge> unpack_edges(std::span<const Dist> payload) {
  CAPSP_CHECK(payload.size() % 3 == 0);
  std::vector<WireEdge> out(payload.size() / 3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {static_cast<Vertex>(payload[3 * i]),
              static_cast<Vertex>(payload[3 * i + 1]), payload[3 * i + 2]};
  }
  return out;
}

std::vector<Dist> pack_vertices(std::span<const Vertex> vertices) {
  return {vertices.begin(), vertices.end()};
}

std::vector<Vertex> unpack_vertices(std::span<const Dist> payload) {
  std::vector<Vertex> out(payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i)
    out[i] = static_cast<Vertex>(payload[i]);
  return out;
}

/// Evenly slice [0, count) into `parts` ranges; returns range `part`.
std::pair<std::size_t, std::size_t> slice(std::size_t count,
                                          std::size_t parts,
                                          std::size_t part) {
  return {count * part / parts, count * (part + 1) / parts};
}

}  // namespace

DistributedNdResult distributed_nested_dissection(
    const Graph& graph, int height, std::uint64_t seed,
    const BisectOptions& options) {
  CAPSP_CHECK(height >= 1 && height < 16);
  const int p = 1 << (height - 1);
  const EliminationTree tree(height);

  // Initial distribution: rank r owns an even slice of the edge list and
  // of the vertex list (this is the input condition, not communication).
  std::vector<WireEdge> all_edges;
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    for (const auto& nb : graph.neighbors(v))
      if (v < nb.to) all_edges.push_back({v, nb.to, nb.weight});
  std::vector<Vertex> all_vertices(
      static_cast<std::size_t>(graph.num_vertices()));
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    all_vertices[static_cast<std::size_t>(v)] = v;

  // Supernode member lists, filled by the team leaders (one writer per
  // label — no race).
  std::vector<std::vector<Vertex>> members(
      static_cast<std::size_t>(tree.num_supernodes()) + 1);

  Machine machine(p);
  machine.run([&](Comm& comm) {
    comm.set_phase("setup");
    std::vector<WireEdge> my_edges;
    {
      const auto [begin, end] = slice(
          all_edges.size(), static_cast<std::size_t>(p),
          static_cast<std::size_t>(comm.rank()));
      my_edges.assign(all_edges.begin() + static_cast<std::ptrdiff_t>(begin),
                      all_edges.begin() + static_cast<std::ptrdiff_t>(end));
    }
    std::vector<Vertex> my_vertices;
    {
      const auto [begin, end] = slice(
          all_vertices.size(), static_cast<std::size_t>(p),
          static_cast<std::size_t>(comm.rank()));
      my_vertices.assign(
          all_vertices.begin() + static_cast<std::ptrdiff_t>(begin),
          all_vertices.begin() + static_cast<std::ptrdiff_t>(end));
    }
    comm.reset_clock();
    comm.set_phase("nd");

    // Walk down the tree.  The team for node (level l, index t) is the
    // rank range [t·2^(l-1), (t+1)·2^(l-1)).
    for (int l = height; l >= 1; --l) {
      const int team_size = 1 << (l - 1);
      const int t = comm.rank() / team_size;       // my node's index
      const int team_lo = t * team_size;
      const Snode label = tree.node_at(l, t);
      // Four disjoint tag windows of width p per tree node: gather-edges,
      // gather-vertices, scatter-edges, scatter-vertices.
      const Tag tag_base = static_cast<Tag>(label) * 4 * p;
      const Tag kGatherE = 0, kGatherV = p, kScatterE = 2 * p,
                kScatterV = 3 * p;

      if (l == 1) {
        // Singleton team: everything left is my leaf supernode.
        members[static_cast<std::size_t>(label)] = my_vertices;
        break;
      }

      // Gather the team's subgraph at the leader.
      const RankId leader = team_lo;
      if (comm.rank() != leader) {
        comm.send(leader, tag_base + kGatherE + comm.rank() - team_lo,
                  Payload(pack_edges(my_edges)));
        comm.send(leader, tag_base + kGatherV + comm.rank() - team_lo,
                  Payload(pack_vertices(my_vertices)));
      } else {
        for (int m = 1; m < team_size; ++m) {
          const auto edges = unpack_edges(
              comm.recv(leader + m, tag_base + kGatherE + m).words());
          my_edges.insert(my_edges.end(), edges.begin(), edges.end());
          const auto vertices = unpack_vertices(
              comm.recv(leader + m, tag_base + kGatherV + m).words());
          my_vertices.insert(my_vertices.end(), vertices.begin(),
                             vertices.end());
        }
      }

      std::vector<WireEdge> edges_v1, edges_v2;
      std::vector<Vertex> verts_v1, verts_v2;
      if (comm.rank() == leader) {
        // Separator extraction on the gathered subgraph (local ids).
        std::sort(my_vertices.begin(), my_vertices.end());
        std::vector<Vertex> local_of(
            static_cast<std::size_t>(graph.num_vertices()), -1);
        for (std::size_t i = 0; i < my_vertices.size(); ++i)
          local_of[static_cast<std::size_t>(my_vertices[i])] =
              static_cast<Vertex>(i);
        GraphBuilder builder(static_cast<Vertex>(my_vertices.size()));
        for (const auto& e : my_edges)
          builder.add_edge(local_of[static_cast<std::size_t>(e.u)],
                           local_of[static_cast<std::size_t>(e.v)], e.w);
        const Graph sub = std::move(builder).build();
        // Deterministic per-node stream so results don't depend on the
        // schedule.
        Rng rng(seed ^ (0x9e3779b97f4a7c15ull *
                        static_cast<std::uint64_t>(label)));
        const SeparatorPartition part = find_separator(sub, rng, options);

        auto to_original = [&](const std::vector<Vertex>& local) {
          std::vector<Vertex> out;
          out.reserve(local.size());
          for (Vertex v : local)
            out.push_back(my_vertices[static_cast<std::size_t>(v)]);
          return out;
        };
        members[static_cast<std::size_t>(label)] =
            to_original(part.separator);
        verts_v1 = to_original(part.v1);
        verts_v2 = to_original(part.v2);

        // Split the edges: an edge belongs to the side holding both
        // endpoints; separator-incident edges disappear.
        std::vector<std::uint8_t> side_of(
            static_cast<std::size_t>(my_vertices.size()), 2);
        for (Vertex v : part.v1) side_of[static_cast<std::size_t>(v)] = 0;
        for (Vertex v : part.v2) side_of[static_cast<std::size_t>(v)] = 1;
        for (const auto& e : my_edges) {
          const auto su = side_of[static_cast<std::size_t>(
              local_of[static_cast<std::size_t>(e.u)])];
          const auto sv = side_of[static_cast<std::size_t>(
              local_of[static_cast<std::size_t>(e.v)])];
          if (su == 0 && sv == 0) edges_v1.push_back(e);
          if (su == 1 && sv == 1) edges_v2.push_back(e);
        }
      }

      // Scatter each half evenly over its half-team.
      const int half = team_size / 2;
      if (comm.rank() == leader) {
        for (int m = 0; m < team_size; ++m) {
          const bool first_half = m < half;
          const auto& edges = first_half ? edges_v1 : edges_v2;
          const auto& verts = first_half ? verts_v1 : verts_v2;
          const auto idx = static_cast<std::size_t>(first_half ? m
                                                               : m - half);
          const auto parts = static_cast<std::size_t>(half);
          const auto [eb, ee] = slice(edges.size(), parts, idx);
          const auto [vb, ve] = slice(verts.size(), parts, idx);
          std::vector<WireEdge> edge_slice(
              edges.begin() + static_cast<std::ptrdiff_t>(eb),
              edges.begin() + static_cast<std::ptrdiff_t>(ee));
          std::vector<Vertex> vert_slice(
              verts.begin() + static_cast<std::ptrdiff_t>(vb),
              verts.begin() + static_cast<std::ptrdiff_t>(ve));
          if (team_lo + m == leader) {
            my_edges = std::move(edge_slice);
            my_vertices = std::move(vert_slice);
          } else {
            comm.send(team_lo + m, tag_base + kScatterE + m,
                      Payload(pack_edges(edge_slice)));
            comm.send(team_lo + m, tag_base + kScatterV + m,
                      Payload(pack_vertices(vert_slice)));
          }
        }
      } else {
        const int m = comm.rank() - team_lo;
        my_edges =
            unpack_edges(comm.recv(leader, tag_base + kScatterE + m).words());
        my_vertices = unpack_vertices(
            comm.recv(leader, tag_base + kScatterV + m).words());
      }
    }
  });

  // Assemble the Dissection exactly as the sequential driver does:
  // post-order layout of the member lists.
  DistributedNdResult result{Dissection(height), machine.report(), p};
  Dissection& nd = result.nd;
  std::vector<Snode> post_order;
  {
    std::vector<std::pair<Snode, bool>> stack{{tree.num_supernodes(), false}};
    while (!stack.empty()) {
      auto [s, expanded] = stack.back();
      stack.pop_back();
      if (expanded || tree.level_of(s) == 1) {
        post_order.push_back(s);
        continue;
      }
      stack.push_back({s, true});
      const auto [left, right] = tree.children(s);
      stack.push_back({right, false});
      stack.push_back({left, false});
    }
  }
  nd.ranges.assign(static_cast<std::size_t>(tree.num_supernodes()) + 1, {});
  nd.perm.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  nd.iperm.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  Vertex next = 0;
  for (Snode s : post_order) {
    auto& range = nd.ranges[static_cast<std::size_t>(s)];
    range.begin = next;
    for (Vertex original : members[static_cast<std::size_t>(s)]) {
      nd.perm[static_cast<std::size_t>(original)] = next;
      nd.iperm[static_cast<std::size_t>(next)] = original;
      ++next;
    }
    range.end = next;
  }
  CAPSP_CHECK_MSG(next == graph.num_vertices(),
                  "distributed ND lost vertices: " << next << " of "
                                                   << graph.num_vertices());
  return result;
}

}  // namespace capsp
