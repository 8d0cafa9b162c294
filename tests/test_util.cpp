// Unit tests for the util module: rng, strings, table, thread pool, bench
// export, and the benches' SJC_SCALE switch.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "core/experiments.hpp"
#include "util/bench_io.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) ++differences;
  }
  EXPECT_GE(differences, 15);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NextBelowIsUnbiasedish) {
  Rng rng(99);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(5)]++;
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 5, n / 50);  // within 10% of expectation
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(123);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsOrderIndependent) {
  Rng parent(77);
  Rng f1 = parent.fork(3);
  Rng f2 = parent.fork(9);
  // Forking again in reverse order yields the same streams.
  Rng parent2(77);
  Rng g2 = parent2.fork(9);
  Rng g1 = parent2.fork(3);
  EXPECT_EQ(f1.next_u64(), g1.next_u64());
  EXPECT_EQ(f2.next_u64(), g2.next_u64());
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(77);
  Rng f1 = parent.fork(1);
  Rng f2 = parent.fork(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) {
    if (f1.next_u64() != f2.next_u64()) ++diff;
  }
  EXPECT_GE(diff, 15);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  const auto p = rng.permutation(100);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitBasic) {
  const auto parts = split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitEmptyInput) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinInvertsSplit) {
  const std::string text = "x,y,z";
  EXPECT_EQ(join(split_copy(text, ','), ','), text);
}

TEST(Strings, TrimRemovesWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ParseDoubleRoundTrip) {
  for (const double v : {0.0, -1.5, 3.14159265358979, 1e300, -2.5e-308}) {
    EXPECT_EQ(parse_double(format_double(v)), v);
  }
}

TEST(Strings, ParseDoubleRejectsJunk) {
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_THROW(parse_u64("-1"), ParseError);
  EXPECT_THROW(parse_u64("12.5"), ParseError);
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(3ULL * 1024 * 1024 * 1024), "3.0 GB");
}

TEST(Strings, FormatSecondsUsesThousandsSeparators) {
  EXPECT_EQ(format_seconds(3327.4), "3,327");
  EXPECT_EQ(format_seconds(42.0), "42");
  EXPECT_EQ(format_seconds(1234567.0), "1,234,567");
  EXPECT_EQ(format_seconds(std::nan("")), "-");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("indexA/map", "indexA/"));
  EXPECT_FALSE(starts_with("indexA", "indexA/"));
}

// ---------------------------------------------------------------------------
// table
// ---------------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "2"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a      | 1 |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2 |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"1"}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsAllIterations) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw SjcError("boom");
                                 }),
               SjcError);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    ThreadPool::shared().parallel_for(4, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 16);
}

}  // namespace
}  // namespace sjc

namespace sjc {
namespace {

TEST(BenchIo, BadDirectoryThrows) {
  setenv("SJC_BENCH_DIR", "/nonexistent-dir-xyz", 1);
  EXPECT_THROW(write_bench_json("t", "{}"), SjcError);
  unsetenv("SJC_BENCH_DIR");
}

// ru_maxrss unit handling: POSIX leaves the unit unspecified — Linux reports
// kilobytes, macOS bytes. Both conversions are pinned here explicitly so a
// regression on either platform convention fails on every host.
TEST(BenchIo, RssConversionPinsBothPlatformConventions) {
  // Linux convention: raw value is kilobytes.
  EXPECT_EQ(rss_bytes_from_ru_maxrss(0, /*raw_is_bytes=*/false), 0u);
  EXPECT_EQ(rss_bytes_from_ru_maxrss(1, /*raw_is_bytes=*/false), 1024u);
  EXPECT_EQ(rss_bytes_from_ru_maxrss(524288, /*raw_is_bytes=*/false),
            512u * 1024 * 1024);  // 512 MiB reported as KiB
  // macOS convention: raw value is already bytes — must pass through
  // unscaled (multiplying would inflate RSS 1024x).
  EXPECT_EQ(rss_bytes_from_ru_maxrss(0, /*raw_is_bytes=*/true), 0u);
  EXPECT_EQ(rss_bytes_from_ru_maxrss(524288, /*raw_is_bytes=*/true), 524288u);

  // The compile-time default matches this build's platform.
#if defined(__APPLE__)
  EXPECT_TRUE(kRuMaxrssIsBytes);
#else
  EXPECT_FALSE(kRuMaxrssIsBytes);
#endif

  // And the live reading is unit-sane: a process running gtest holds more
  // than 1 MiB but far less than 1 TiB resident. A kilobyte/byte mix-up
  // shifts the value by 1024x in one direction or the other, which this
  // window catches on any realistic host.
  const std::uint64_t rss = peak_rss_bytes();
  if (rss != 0) {  // 0 => platform without getrusage
    EXPECT_GT(rss, std::uint64_t{1} << 20);
    EXPECT_LT(rss, std::uint64_t{1} << 40);
  }
}

// SJC_SCALE falls back only when unset; any other value outside (0, 1]
// fails the bench loudly instead of quietly running another scale.
class BenchScaleEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("SJC_SCALE"); }
};

TEST_F(BenchScaleEnv, UnsetFallsBack) {
  unsetenv("SJC_SCALE");
  EXPECT_EQ(core::bench_scale(), 1e-3);
  EXPECT_EQ(core::bench_scale(0.25), 0.25);
}

TEST_F(BenchScaleEnv, ReadsValidValues) {
  setenv("SJC_SCALE", "2e-5", 1);
  EXPECT_EQ(core::bench_scale(), 2e-5);
  setenv("SJC_SCALE", "1", 1);
  EXPECT_EQ(core::bench_scale(), 1.0);
}

TEST_F(BenchScaleEnv, RejectsMalformedOrOutOfRangeValues) {
  for (const char* bad : {"2e-5x", "0", "1.5", "-1e-3", "nan", ""}) {
    setenv("SJC_SCALE", bad, 1);
    try {
      core::bench_scale();
      ADD_FAILURE() << "SJC_SCALE='" << bad << "' was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace sjc
