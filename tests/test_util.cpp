// Unit tests for the util module: checking macros, RNG determinism and
// distribution sanity, bit helpers, exact-length reads, regression
// fitting, CLI parsing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

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
  EXPECT_THROW(cli.check_unused(), UsageError);
}

/// `read` must throw a UsageError that names the flag and the value.
void expect_usage_error(const std::function<void()>& read,
                        const std::string& flag, const std::string& value) {
  try {
    read();
    ADD_FAILURE() << "no UsageError for --" << flag << " '" << value << "'";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(Cli, NonIntegerValueIsUsageError) {
  const char* argv[] = {"prog", "--n", "abc"};
  const Cli cli(3, argv);
  expect_usage_error([&] { cli.get_int("n", 256); }, "n", "abc");
}

TEST(Cli, EmptyValueIsUsageError) {
  const char* argv[] = {"prog", "--n="};
  const Cli cli(2, argv);
  expect_usage_error([&] { cli.get_int("n", 256); }, "n", "''");
}

TEST(Cli, IntegerOutOfRangeIsUsageError) {
  const char* argv[] = {"prog", "--landmarks", "99999999999999999999"};
  const Cli cli(3, argv);
  expect_usage_error([&] { cli.get_int("landmarks", 64); }, "landmarks",
                     "99999999999999999999");
}

TEST(Cli, TrailingCharactersAreUsageError) {
  const char* argv[] = {"prog", "--n", "12abc", "--rate", "0.5x"};
  const Cli cli(5, argv);
  expect_usage_error([&] { cli.get_int("n", 256); }, "n", "12abc");
  expect_usage_error([&] { cli.get_double("rate", 1); }, "rate", "0.5x");
}

TEST(Cli, RealIsNotAnInteger) {
  const char* argv[] = {"prog", "--landmarks", "1e3"};
  const Cli cli(3, argv);
  expect_usage_error([&] { cli.get_int("landmarks", 64); }, "landmarks",
                     "1e3");
  EXPECT_EQ(cli.get_double("landmarks", 0), 1000.0);
}

TEST(Cli, ValueMustFitTheStoredType) {
  const char* argv[] = {"prog", "--top-levels", "4294967298", "--count",
                        "-1"};
  const Cli cli(5, argv);
  expect_usage_error([&] { cli.get<int>("top-levels", 2); }, "top-levels",
                     "4294967298");
  EXPECT_EQ(cli.get<std::int64_t>("top-levels", 2), 4294967298);
  expect_usage_error([&] { cli.get<std::size_t>("count", 1); }, "count",
                     "-1");
}

TEST(Cli, SwitchTakesOnlyBooleanWords) {
  const char* argv[] = {"prog", "--verify", "maybe"};
  const Cli cli(3, argv);
  expect_usage_error([&] { cli.get_bool("verify", false); }, "verify",
                     "maybe");
  for (const char* word : {"true", "1", "yes", "false", "0", "no"}) {
    const char* set[] = {"prog", "--verify", word};
    EXPECT_EQ(Cli(3, set).get_bool("verify", false), word[0] == 't' ||
                                                         word[0] == '1' ||
                                                         word[0] == 'y');
  }
}

TEST(Cli, PositionalArgumentIsUsageError) {
  const char* argv[] = {"prog", "solve", "--n", "4"};
  const Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 4);
  try {
    cli.check_unused();
    ADD_FAILURE() << "no UsageError for the positional 'solve'";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("'solve'"), std::string::npos);
  }
}

/// A two-mode declaration: --n in every mode, --k only in "b".
std::vector<Flag> two_mode_flags() {
  return {{"mode", Flag::kChoice, {"a", "b"}, "a", "what to run"},
          {"n", Flag::kInt, {"<count>"}, "256", "size"},
          {"k", Flag::kInt, {"<k>"}, "8", "neighbors", {"b"}},
          {"on", Flag::kSwitch, {}, "", "a switch", {"a", "b"}}};
}

TEST(Cli, DeclaredFlagsReadTheirDefaults) {
  const char* argv[] = {"prog", "--mode", "b"};
  const Cli cli(3, argv, two_mode_flags());
  cli.validate();
  EXPECT_EQ(cli.mode(), "b");
  EXPECT_EQ(cli.get<int>("n"), 256);
  EXPECT_EQ(cli.get<int>("k"), 8);
  EXPECT_FALSE(cli.get<bool>("on"));
  cli.check_unused();
  // Reading a flag the declarations do not give the mode is a program
  // error, not a usage error.
  const char* a[] = {"prog"};
  EXPECT_THROW(Cli(1, a, two_mode_flags()).get<int>("k"), check_error);
  EXPECT_THROW(Cli(1, a, two_mode_flags()).get<int>("undeclared"),
               check_error);
}

TEST(Cli, ValidateRefusesWhatTheModeDoesNotRead) {
  const auto refused = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    const Cli cli(static_cast<int>(argv.size()), argv.data(),
                  two_mode_flags());
    EXPECT_THROW(cli.validate(), UsageError) << argv[1];
  };
  refused({"--k", "3"});               // --k is read by --mode b only
  refused({"--mode", "c"});            // not one of a|b
  refused({"--mode", "a|b"});          // two of them, not one
  refused({"--mode", "b", "--nn", "3"});  // undeclared
  refused({"--mode", "b", "--n", "x"});   // does not parse
  refused({"--on", "maybe"});
  refused({"b"});                      // positional
}

TEST(Cli, ConditionallyUnreadFlagIsUsageError) {
  const char* argv[] = {"prog", "--mode", "b", "--k", "3"};
  const Cli cli(5, argv, two_mode_flags());
  cli.validate();
  cli.get<int>("n");
  EXPECT_THROW(cli.check_unused(), UsageError);
}

TEST(Cli, HelpListsEachFlagOfTheModeOnceWithItsDefault) {
  const char* argv[] = {"prog", "--mode", "b"};
  std::ostringstream out;
  Cli(3, argv, two_mode_flags()).print_flags(out);
  const std::string help = out.str();
  for (const char* line : {"--n <count>", "--k <k>", "--on", "--mode a|b"}) {
    const std::size_t at = help.find(line);
    ASSERT_NE(at, std::string::npos) << line << " missing:\n" << help;
    EXPECT_EQ(help.find(line, at + 1), std::string::npos) << line;
  }
  EXPECT_NE(help.find("size (default 256)"), std::string::npos) << help;
  EXPECT_NE(help.find("neighbors (default 8)"), std::string::npos) << help;
  // Without --mode, every mode's section is printed; --mode a omits --k.
  const char* a[] = {"prog", "--mode", "a"};
  std::ostringstream only_a;
  Cli(3, a, two_mode_flags()).print_flags(only_a);
  EXPECT_EQ(only_a.str().find("--k"), std::string::npos) << only_a.str();
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
