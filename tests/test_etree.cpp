// Exhaustive tests of the elimination-tree label algebra (paper Sec. 4.2,
// Fig. 3a).  Most properties are checked for every node of every tree up
// to height 7 (N = 127 supernodes), so the index arithmetic the scheduler
// relies on is verified over the whole range the benches use.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "tree/etree.hpp"

namespace capsp {
namespace {

TEST(ETree, CountsMatchPerfectTree) {
  for (int h = 1; h <= 7; ++h) {
    const EliminationTree tree(h);
    EXPECT_EQ(tree.num_supernodes(), (1 << h) - 1);
    Snode total = 0;
    for (int l = 1; l <= h; ++l) {
      EXPECT_EQ(tree.level_size(l), 1 << (h - l));
      total += tree.level_size(l);
    }
    EXPECT_EQ(total, tree.num_supernodes());
  }
}

TEST(ETree, Figure3aLabels) {
  // The paper's 4-level example: leaves 1..8, then 9..12, 13..14, root 15.
  const EliminationTree tree(4);
  EXPECT_EQ(tree.level_begin(1), 1);
  EXPECT_EQ(tree.level_begin(2), 9);
  EXPECT_EQ(tree.level_begin(3), 13);
  EXPECT_EQ(tree.level_begin(4), 15);
  EXPECT_EQ(tree.parent(1), 9);
  EXPECT_EQ(tree.parent(2), 9);
  EXPECT_EQ(tree.parent(3), 10);
  EXPECT_EQ(tree.parent(9), 13);
  EXPECT_EQ(tree.parent(12), 14);
  EXPECT_EQ(tree.parent(13), 15);
}

TEST(ETree, PaperFig2bExample) {
  // Fig. 2b: 3-level tree, A(3) = {7}, D(3) = {1, 2}, C(3) = {4, 5, 6}.
  // In bottom-up labels the node "3" of the figure is supernode 5 (first
  // level-2 node); its leaves are 1, 2.
  const EliminationTree tree(3);
  EXPECT_EQ(tree.ancestors(5), (std::vector<Snode>{7}));
  EXPECT_EQ(tree.descendants(5), (std::vector<Snode>{1, 2}));
  EXPECT_EQ(tree.cousins(5), (std::vector<Snode>{3, 4, 6}));
}

TEST(ETree, LevelOfRoundTripsNodeAt) {
  for (int h = 1; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      const int l = tree.level_of(s);
      EXPECT_EQ(tree.node_at(l, tree.index_in_level(s)), s);
    }
  }
}

TEST(ETree, LevelSetsPartitionLabels) {
  for (int h = 1; h <= 7; ++h) {
    const EliminationTree tree(h);
    std::set<Snode> seen;
    for (int l = 1; l <= h; ++l)
      for (Snode s : tree.level_set(l)) {
        EXPECT_TRUE(seen.insert(s).second) << "duplicate " << s;
        EXPECT_EQ(tree.level_of(s), l);
      }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(tree.num_supernodes()));
  }
}

TEST(ETree, ParentChildConsistency) {
  for (int h = 2; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      if (tree.level_of(s) >= 2) {
        const auto [left, right] = tree.children(s);
        EXPECT_EQ(tree.parent(left), s);
        EXPECT_EQ(tree.parent(right), s);
        EXPECT_EQ(left + 1, right);
      }
      if (tree.level_of(s) < h) {
        EXPECT_GT(tree.parent(s), s);  // bottom-up labels grow upward
      }
    }
  }
}

TEST(ETree, AncestorCountsMatchPaper) {
  // |A(k)| = h - level(k), |D(k)| = 2^level - 2 (Lemma 5.6's census).
  for (int h = 1; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      const int l = tree.level_of(s);
      EXPECT_EQ(tree.ancestors(s).size(), static_cast<std::size_t>(h - l));
      EXPECT_EQ(tree.descendants(s).size(),
                static_cast<std::size_t>((1 << l) - 2));
    }
  }
}

TEST(ETree, AncestorDescendantDuality) {
  for (int h = 1; h <= 6; ++h) {
    const EliminationTree tree(h);
    for (Snode a = 1; a <= tree.num_supernodes(); ++a)
      for (Snode b = 1; b <= tree.num_supernodes(); ++b) {
        EXPECT_EQ(tree.is_ancestor(a, b), tree.is_descendant(b, a));
        if (a == b) {
          EXPECT_FALSE(tree.is_ancestor(a, b));
          EXPECT_FALSE(tree.is_cousin(a, b));
          EXPECT_TRUE(tree.related(a, b));
        }
      }
  }
}

TEST(ETree, TrichotomyEqualAncestorDescendantCousin) {
  for (int h = 1; h <= 6; ++h) {
    const EliminationTree tree(h);
    for (Snode a = 1; a <= tree.num_supernodes(); ++a)
      for (Snode b = 1; b <= tree.num_supernodes(); ++b) {
        const int classes = (a == b) + tree.is_ancestor(a, b) +
                            tree.is_ancestor(b, a) + tree.is_cousin(a, b);
        EXPECT_EQ(classes, 1) << "a=" << a << " b=" << b;
      }
  }
}

TEST(ETree, AncestorListMatchesParentWalk) {
  for (int h = 1; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      std::vector<Snode> walk;
      Snode cursor = s;
      while (tree.level_of(cursor) < h) {
        cursor = tree.parent(cursor);
        walk.push_back(cursor);
      }
      EXPECT_EQ(tree.ancestors(s), walk);
    }
  }
}

TEST(ETree, AncestorAtLevelAgreesWithList) {
  for (int h = 2; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      const int l = tree.level_of(s);
      EXPECT_EQ(tree.ancestor_at_level(s, l), s);
      const auto ancestors = tree.ancestors(s);
      for (int target = l + 1; target <= h; ++target)
        EXPECT_EQ(tree.ancestor_at_level(s, target),
                  ancestors[static_cast<std::size_t>(target - l - 1)]);
    }
  }
}

TEST(ETree, DescendantRangeIsContiguousAndCorrect) {
  for (int h = 2; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      const int l = tree.level_of(s);
      for (int dl = 1; dl <= l; ++dl) {
        const auto [begin, end] = tree.descendant_range_at_level(s, dl);
        EXPECT_EQ(end - begin, 1 << (l - dl));
        for (Snode k = begin; k < end; ++k) {
          EXPECT_EQ(tree.level_of(k), dl);
          EXPECT_TRUE(k == s || tree.is_descendant(k, s));
        }
        // Nothing else at level dl descends from s.
        for (Snode k : tree.level_set(dl)) {
          const bool inside = (k >= begin && k < end);
          EXPECT_EQ(inside, k == s || tree.is_descendant(k, s));
        }
      }
    }
  }
}

TEST(ETree, CousinsAreSymmetric) {
  const EliminationTree tree(5);
  for (Snode a = 1; a <= tree.num_supernodes(); ++a)
    for (Snode b = 1; b <= tree.num_supernodes(); ++b)
      EXPECT_EQ(tree.is_cousin(a, b), tree.is_cousin(b, a));
}

TEST(ETree, RootRelatedToEverything) {
  for (int h = 1; h <= 6; ++h) {
    const EliminationTree tree(h);
    const Snode root = tree.num_supernodes();
    for (Snode s = 1; s < root; ++s) {
      EXPECT_TRUE(tree.is_ancestor(root, s));
      EXPECT_TRUE(tree.related(root, s));
    }
    EXPECT_EQ(tree.cousins(root).size(), 0u);
  }
}

TEST(ETree, RelatedSetIsAncestorsAndDescendantsAscending) {
  for (int h = 1; h <= 7; ++h) {
    const EliminationTree tree(h);
    for (Snode s = 1; s <= tree.num_supernodes(); ++s) {
      std::set<Snode> want;
      for (Snode v = 1; v <= tree.num_supernodes(); ++v)
        if (v != s && tree.related(s, v)) want.insert(v);
      EXPECT_EQ(tree.related_set(s),
                std::vector<Snode>(want.begin(), want.end()))
          << "h=" << h << " s=" << s;
    }
  }
}

TEST(ETree, InvalidArgumentsRejected) {
  const EliminationTree tree(3);
  EXPECT_THROW(tree.level_of(0), check_error);
  EXPECT_THROW(tree.level_of(8), check_error);
  EXPECT_THROW(tree.parent(7), check_error);     // root
  EXPECT_THROW(tree.children(1), check_error);   // leaf
  EXPECT_THROW(tree.level_set(0), check_error);
  EXPECT_THROW(tree.level_set(4), check_error);
  EXPECT_THROW(EliminationTree(0), check_error);
}

TEST(ETree, HeightOneDegenerateTree) {
  const EliminationTree tree(1);
  EXPECT_EQ(tree.num_supernodes(), 1);
  EXPECT_EQ(tree.level_of(1), 1);
  EXPECT_TRUE(tree.ancestors(1).empty());
  EXPECT_TRUE(tree.descendants(1).empty());
  EXPECT_TRUE(tree.related_set(1).empty());
  EXPECT_TRUE(tree.cousins(1).empty());
}

}  // namespace
}  // namespace capsp
