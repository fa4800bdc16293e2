// Unit tests for the util module: checking macros, RNG determinism and
// distribution sanity, bit helpers, exact-length reads, regression
// fitting, CLI parsing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/fit.hpp"
#include "util/read_exact.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace capsp {
namespace {

TEST(Check, PassingCheckIsSilent) { CAPSP_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    CAPSP_CHECK(2 + 2 == 5);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2 + 2 == 5"), std::string::npos);
  }
}

TEST(Check, MessageCarriesStreamedContext) {
  try {
    const int x = 3;
    CAPSP_CHECK_MSG(x == 4, "x=" << x);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("x=3"), std::string::npos);
  }
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(77);
  const auto first = a();
  a.reseed(77);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformBoundOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(9);
  std::array<int, 8> histogram{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.uniform(8)];
  for (int count : histogram) {
    EXPECT_GT(count, kDraws / 8 * 0.9);
    EXPECT_LT(count, kDraws / 8 * 1.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(11);
  Rng child = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == child());
  EXPECT_LT(equal, 3);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
}

TEST(Bits, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(6));
}

TEST(Bits, PerfectTreeSizes) {
  // 2^h - 1 for h = 1..5: 1, 3, 7, 15, 31.
  for (std::uint64_t v : {1u, 3u, 7u, 15u, 31u})
    EXPECT_TRUE(is_perfect_tree_size(v)) << v;
  for (std::uint64_t v : {2u, 4u, 5u, 8u, 16u})
    EXPECT_FALSE(is_perfect_tree_size(v)) << v;
}

TEST(Bits, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(225), 15u);
  EXPECT_EQ(isqrt(226), 15u);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(Bits, ProductAtMostNeverOverflows) {
  EXPECT_TRUE(product_at_most(3, 4, 12));
  EXPECT_FALSE(product_at_most(3, 4, 11));
  EXPECT_TRUE(product_at_most(0, INT64_MAX, 0));
  // Products at and past 2^63 are decided by division, never formed.
  const std::int64_t big = std::int64_t{1} << 32;
  EXPECT_FALSE(product_at_most(big, big, INT64_MAX));
  EXPECT_FALSE(product_at_most(big, big / 2, INT64_MAX));
  EXPECT_TRUE(product_at_most(big, big / 2 - 1, INT64_MAX));
}

TEST(ReadExact, ReadExactBytesReportsShortfall) {
  std::stringstream stream(std::string("abc"),
                           std::ios::in | std::ios::binary);
  char buffer[8];
  try {
    read_exact_bytes(stream, buffer, 8, "probe");
    FAIL() << "expected a truncation CHECK";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("probe"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

// Each call takes exactly the bytes asked for and leaves the stream just
// past them, so consecutive fields read back in order; a zero-byte read
// at the end of the stream is not a shortfall.
TEST(ReadExact, ReadsExactlyTheBytesAskedFor) {
  std::stringstream stream(std::string("abcdef"),
                           std::ios::in | std::ios::binary);
  char head[4] = {};
  char tail[2] = {};
  read_exact_bytes(stream, head, 4, "head");
  read_exact_bytes(stream, tail, 2, "tail");
  EXPECT_EQ(std::string(head, 4), "abcd");
  EXPECT_EQ(std::string(tail, 2), "ef");
  EXPECT_NO_THROW(read_exact_bytes(stream, head, 0, "nothing"));
  EXPECT_THROW(read_exact_bytes(stream, head, 1, "past the end"),
               check_error);
}

TEST(Fit, ExactLineRecovered) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 2x + 1
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, PowerLawExponentRecovered) {
  std::vector<double> x, y;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    x.push_back(v);
    y.push_back(5.0 * v * v * v);  // y = 5 x^3
  }
  const LinearFit fit = power_law_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Fit, NoisyFitStillCloseAndRSquaredBelowOne) {
  Rng rng(8);
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + rng.uniform_real(-1, 1));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Cli, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "128", "--graph=grid", "--verbose"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_EQ(cli.get_string("graph", ""), "grid");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  cli.check_unused();
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(cli.get_bool("flag", false));
}

TEST(Cli, UnknownFlagDetected) {
  const char* argv[] = {"prog", "--typo", "1"};
  const Cli cli(3, argv);
  cli.get_int("n", 0);
  EXPECT_THROW(cli.check_unused(), check_error);
}

TEST(Table, AlignsAndCounts) {
  TextTable table({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);  // header+rule+2
}

TEST(Table, RowWidthMismatchRejected) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), check_error);
}

}  // namespace
}  // namespace capsp
