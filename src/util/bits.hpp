// Small integer helpers: the elimination-tree index arithmetic, and the
// overflow-safe size checks the file readers make on untrusted headers.
#pragma once

#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace capsp {

/// floor(log2(v)); v must be positive.
constexpr int floor_log2(std::uint64_t v) {
  CAPSP_CHECK(v > 0);
  return 63 - std::countl_zero(v);
}

/// ceil(log2(v)); v must be positive.
constexpr int ceil_log2(std::uint64_t v) {
  CAPSP_CHECK(v > 0);
  return (v == 1) ? 0 : floor_log2(v - 1) + 1;
}

constexpr bool is_power_of_two(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// True iff v == 2^h - 1 for some h >= 1 (a perfect-binary-tree node count).
constexpr bool is_perfect_tree_size(std::uint64_t v) {
  return v != 0 && is_power_of_two(v + 1);
}

/// Integer square root (floor).
constexpr std::uint64_t isqrt(std::uint64_t v) {
  if (v == 0) return 0;
  std::uint64_t x = v, y = (x + 1) / 2;
  while (y < x) {
    x = y;
    y = (x + v / x) / 2;
  }
  return x;
}

/// ceil(a / b) for positive b.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  CAPSP_CHECK(b > 0);
  return (a + b - 1) / b;
}

/// a·b <= limit for non-negative operands, decided without forming a·b,
/// so a crafted file header cannot overflow the product.
constexpr bool product_at_most(std::int64_t a, std::int64_t b,
                               std::int64_t limit) {
  return a == 0 || b <= limit / a;
}

}  // namespace capsp
