// The supernodal elimination tree (paper Sec. 4.2, Figs. 2–3).
//
// Recursive nested dissection with h levels produces a perfect binary tree:
// level 1 holds the 2^(h-1) leaf supernodes, level h holds the top-level
// separator, N = 2^h - 1 supernodes in total.  The paper relabels the
// supernodes *bottom-up, level by level* (Fig. 3a): level 1 gets labels
// 1..2^(h-1), level 2 the next 2^(h-2), ..., level h gets label N.  All of
// Algorithm 1's processor-index arithmetic (Lemmas 5.3-5.4, Corollary 5.5)
// is expressed in these labels, so this class is the single source of truth
// for that algebra: levels, ancestors/descendants/cousins, level sets Q_l.
//
// Labels are 1-based to match the paper; 0 is never a valid supernode.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"

namespace capsp {

/// Supernode label in the paper's bottom-up order (1..N).
using Snode = std::int32_t;

class EliminationTree {
 public:
  /// Perfect elimination tree with `height` >= 1 levels.
  explicit EliminationTree(int height) : h_(height) {
    CAPSP_CHECK_MSG(height >= 1 && height < 30, "height " << height);
    n_ = (Snode{1} << h_) - 1;
  }

  int height() const { return h_; }

  /// Number of supernodes N = 2^h - 1 (also √p in the block layout).
  Snode num_supernodes() const { return n_; }

  bool valid(Snode s) const { return s >= 1 && s <= n_; }

  /// Level of a supernode: leaves are level 1, the root is level h.
  int level_of(Snode s) const {
    check(s);
    // Level l occupies labels (2^h - 2^(h-l+1), 2^h - 2^(h-l)].
    const Snode from_top = static_cast<Snode>((n_ + 1) - s);  // in [1, 2^h)
    return h_ - floor_log2(static_cast<std::uint64_t>(from_top));
  }

  /// 0-based position of s within its level (left to right).
  Snode index_in_level(Snode s) const {
    check(s);
    return s - level_begin(level_of(s));
  }

  /// First label of level l.
  Snode level_begin(int l) const {
    check_level(l);
    // Labels below level l: 2^h - 2^(h-l+1); +1 for 1-based.
    return n_ + 1 - (Snode{1} << (h_ - l + 1)) + 1;
  }

  /// Number of supernodes in level l: |Q_l| = 2^(h-l).
  Snode level_size(int l) const {
    check_level(l);
    return Snode{1} << (h_ - l);
  }

  /// Label of the node at (level, 0-based index within level).
  Snode node_at(int level, Snode index) const {
    check_level(level);
    CAPSP_CHECK(index >= 0 && index < level_size(level));
    return level_begin(level) + index;
  }

  /// The level set Q_l as a label vector (ascending).
  std::vector<Snode> level_set(int l) const {
    std::vector<Snode> q(static_cast<std::size_t>(level_size(l)));
    for (std::size_t i = 0; i < q.size(); ++i)
      q[i] = level_begin(l) + static_cast<Snode>(i);
    return q;
  }

  /// Parent label; s must not be the root.
  Snode parent(Snode s) const {
    const int l = level_of(s);
    CAPSP_CHECK_MSG(l < h_, "root has no parent");
    return node_at(l + 1, index_in_level(s) / 2);
  }

  /// Children labels (level >= 2 only).
  std::pair<Snode, Snode> children(Snode s) const {
    const int l = level_of(s);
    CAPSP_CHECK_MSG(l >= 2, "leaf has no children");
    const Snode t = index_in_level(s);
    return {node_at(l - 1, 2 * t), node_at(l - 1, 2 * t + 1)};
  }

  /// Ancestor of s at level `target_level` (>= level(s)); identity when
  /// target_level == level(s).
  Snode ancestor_at_level(Snode s, int target_level) const {
    const int l = level_of(s);
    CAPSP_CHECK(target_level >= l && target_level <= h_);
    return node_at(target_level, index_in_level(s) >> (target_level - l));
  }

  /// True iff a is a proper ancestor of b (a on b's path to the root, a≠b).
  bool is_ancestor(Snode a, Snode b) const {
    const int la = level_of(a), lb = level_of(b);
    return la > lb && ancestor_at_level(b, la) == a;
  }

  bool is_descendant(Snode a, Snode b) const { return is_ancestor(b, a); }

  /// Cousins: neither ancestor nor descendant nor equal (paper's C(·)).
  bool is_cousin(Snode a, Snode b) const {
    return a != b && !is_ancestor(a, b) && !is_ancestor(b, a);
  }

  /// A(s): all proper ancestors, nearest first (|A(s)| = h - level(s)).
  std::vector<Snode> ancestors(Snode s) const {
    std::vector<Snode> out;
    for (int l = level_of(s) + 1; l <= h_; ++l)
      out.push_back(ancestor_at_level(s, l));
    return out;
  }

  /// D(s): all proper descendants, ascending labels (|D(s)| = 2^level - 2).
  std::vector<Snode> descendants(Snode s) const {
    std::vector<Snode> out;
    const int l = level_of(s);
    const Snode t = index_in_level(s);
    for (int dl = 1; dl < l; ++dl) {
      const int shift = l - dl;
      const Snode first = t << shift, count = Snode{1} << shift;
      for (Snode i = 0; i < count; ++i) out.push_back(node_at(dl, first + i));
    }
    return out;
  }

  /// A(s) ∪ D(s): every supernode related to s except s itself,
  /// ascending labels.
  std::vector<Snode> related_set(Snode s) const {
    std::vector<Snode> out = descendants(s);
    for (int l = level_of(s) + 1; l <= h_; ++l)
      out.push_back(ancestor_at_level(s, l));
    return out;
  }

  /// Descendants of s at exactly level dl (contiguous labels).
  std::pair<Snode, Snode> descendant_range_at_level(Snode s, int dl) const {
    const int l = level_of(s);
    CAPSP_CHECK(dl >= 1 && dl <= l);
    const int shift = l - dl;
    const Snode first = node_at(dl, index_in_level(s) << shift);
    return {first, first + (Snode{1} << shift)};  // [first, last)
  }

  /// C(s): every supernode that is neither s nor related to s.
  std::vector<Snode> cousins(Snode s) const {
    std::vector<Snode> out;
    for (Snode v = 1; v <= n_; ++v)
      if (is_cousin(s, v)) out.push_back(v);
    return out;
  }

  /// True iff a == b or one is an ancestor of the other — i.e. they lie on
  /// a common root path, which is exactly when block A(a,b) can ever hold
  /// finite values before the elimination of their common ancestors.
  bool related(Snode a, Snode b) const {
    return a == b || is_ancestor(a, b) || is_ancestor(b, a);
  }

  /// The top `k` *separator* levels as label vectors, root level first,
  /// each ascending.  Level 1 (the leaves) holds interior vertices, not
  /// separators, so it is never included; k is clamped to the h-1
  /// separator levels available.  This is the landmark-selection order
  /// of the approximate serving tier (src/approx): separators near the
  /// root cut the most shortest paths, so they come first.
  std::vector<std::vector<Snode>> top_separator_levels(int k) const {
    std::vector<std::vector<Snode>> out;
    for (int l = h_; l >= 2 && static_cast<int>(out.size()) < k; --l)
      out.push_back(level_set(l));
    return out;
  }

 private:
  void check(Snode s) const {
    CAPSP_CHECK_MSG(valid(s), "supernode " << s << " outside [1," << n_
                                           << "]");
  }
  void check_level(int l) const {
    CAPSP_CHECK_MSG(l >= 1 && l <= h_, "level " << l << " outside [1," << h_
                                                << "]");
  }

  int h_;
  Snode n_;
};

}  // namespace capsp
