// Unit tests: util (rng, hash, stats, strings, time, result).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/time.h"

namespace mercury::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::map<std::int64_t, int> counts;
  for (int i = 0; i < 6'000; ++i) ++counts[rng.uniform_int(1, 6)];
  ASSERT_EQ(counts.size(), 6u);
  EXPECT_EQ(counts.begin()->first, 1);
  EXPECT_EQ(counts.rbegin()->first, 6);
  for (const auto& [value, count] : counts) EXPECT_GT(count, 800);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, NormalAtLeastClampsBelow) {
  Rng rng(15);
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_GE(rng.normal_at_least(1.0, 0.5, 0.8), 0.8);
  }
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(16);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20'000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 20'000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20'000.0, 0.6, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng child_a = parent.fork("a");
  Rng child_b = parent.fork("b");
  // Streams should differ from each other and from the parent.
  EXPECT_NE(child_a.next_u64(), child_b.next_u64());

  // Forking is deterministic in (seed, order, tag).
  Rng parent2(99);
  Rng child_a2 = parent2.fork("a");
  EXPECT_EQ(Rng(99).fork("a").next_u64(), child_a2.next_u64());
}

TEST(Rng, ExponentialDurationOverload) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20'000; ++i) {
    stats.add(rng.exponential(Duration::seconds(2.0)).to_seconds());
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.06);
}

// --- Hash --------------------------------------------------------------------

TEST(Hash, Fnv1aMatchesPublishedVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
  // Continuing from a previous hash is hashing the concatenation.
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

// --- Stats -------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(20);
  RunningStats combined;
  RunningStats part_a;
  RunningStats part_b;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    combined.add(x);
    (i % 2 == 0 ? part_a : part_b).add(x);
  }
  part_a.merge(part_b);
  EXPECT_EQ(part_a.count(), combined.count());
  EXPECT_NEAR(part_a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(part_a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(part_a.min(), combined.min());
  EXPECT_DOUBLE_EQ(part_a.max(), combined.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats stats;
  stats.add(1.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 1u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SampleStats, PercentilesInterpolate) {
  SampleStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile(100.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.median(), 3.0);
  EXPECT_DOUBLE_EQ(stats.percentile(25.0), 2.0);
  EXPECT_DOUBLE_EQ(stats.percentile(12.5), 1.5);
}

TEST(SampleStats, PercentileClampsOutOfRange) {
  SampleStats stats;
  stats.add(1.0);
  stats.add(2.0);
  EXPECT_DOUBLE_EQ(stats.percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile(200.0), 2.0);
}

TEST(SampleStats, AddAfterSortedQueryStaysCorrect) {
  SampleStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
  stats.add(7.0);  // invalidates the cached sort
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
  EXPECT_DOUBLE_EQ(stats.min(), 3.0);
}

TEST(SampleStats, Ci95ShrinksWithSamples) {
  Rng rng(21);
  SampleStats small;
  SampleStats large;
  for (int i = 0; i < 10; ++i) small.add(rng.normal(0.0, 1.0));
  for (int i = 0; i < 1'000; ++i) large.add(rng.normal(0.0, 1.0));
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SampleStats, CvZeroWhenMeanZero) {
  SampleStats stats;
  stats.add(-1.0);
  stats.add(1.0);
  EXPECT_DOUBLE_EQ(stats.cv(), 0.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram histogram(0.0, 10.0, 10);
  histogram.add(0.5);
  histogram.add(9.5);
  histogram.add(-100.0);  // clamps to first bin
  histogram.add(100.0);   // clamps to last bin
  EXPECT_EQ(histogram.bin_count(0), 2u);
  EXPECT_EQ(histogram.bin_count(9), 2u);
  EXPECT_EQ(histogram.total(), 4u);
  EXPECT_DOUBLE_EQ(histogram.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.bin_high(9), 10.0);
  EXPECT_FALSE(histogram.render().empty());
}

// --- Strings -----------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("mercury", "mer"));
  EXPECT_FALSE(starts_with("mer", "mercury"));
  EXPECT_TRUE(ends_with("mercury", "ury"));
  EXPECT_FALSE(ends_with("ury", "mercury"));
}

TEST(Strings, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(pad_left("1234", 3), "1234");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(Strings, IsAllDigits) {
  EXPECT_TRUE(is_all_digits("0123"));
  EXPECT_FALSE(is_all_digits(""));
  EXPECT_FALSE(is_all_digits("12a"));
  EXPECT_FALSE(is_all_digits("-1"));
}

// --- Time --------------------------------------------------------------------

TEST(Time, DurationArithmetic) {
  const Duration d = Duration::seconds(90.0);
  EXPECT_DOUBLE_EQ(d.to_seconds(), 90.0);
  EXPECT_DOUBLE_EQ(Duration::minutes(1.5).to_seconds(), 90.0);
  EXPECT_DOUBLE_EQ(Duration::hours(2.0).to_seconds(), 7200.0);
  EXPECT_DOUBLE_EQ(Duration::days(1.0).to_hours(), 24.0);
  EXPECT_DOUBLE_EQ((d + Duration::seconds(10.0)).to_seconds(), 100.0);
  EXPECT_DOUBLE_EQ((d - Duration::seconds(100.0)).to_seconds(), -10.0);
  EXPECT_DOUBLE_EQ((d * 2.0).to_seconds(), 180.0);
  EXPECT_DOUBLE_EQ((2.0 * d).to_seconds(), 180.0);
  EXPECT_DOUBLE_EQ((d / 3.0).to_seconds(), 30.0);
  EXPECT_DOUBLE_EQ(d / Duration::seconds(45.0), 2.0);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t = TimePoint::from_seconds(100.0);
  EXPECT_DOUBLE_EQ((t + Duration::seconds(5.0)).to_seconds(), 105.0);
  EXPECT_DOUBLE_EQ((t - Duration::seconds(5.0)).to_seconds(), 95.0);
  EXPECT_DOUBLE_EQ((t - TimePoint::from_seconds(40.0)).to_seconds(), 60.0);
  EXPECT_LT(TimePoint::origin(), t);
  EXPECT_TRUE(TimePoint::infinity() > t);
  EXPECT_FALSE(TimePoint::infinity().is_finite());
}

TEST(Time, DurationOrderingAndPredicates) {
  EXPECT_LT(Duration::seconds(1.0), Duration::seconds(2.0));
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE(Duration::seconds(-1.0).is_negative());
  EXPECT_FALSE(Duration::infinity().is_finite());
}

TEST(Time, HumanReadableStrings) {
  EXPECT_EQ(Duration::seconds(5.0).str(), "5.000s");
  EXPECT_EQ(Duration::minutes(2.0).str(), "2.000m");
  EXPECT_EQ(Duration::hours(3.0).str(), "3.000h");
  EXPECT_EQ(Duration::days(4.0).str(), "4.000d");
}

// --- Result ------------------------------------------------------------------

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> bad = Error("boom");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message(), "boom");
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_EQ(ok.value_or(7), 42);
}

TEST(Result, ErrorWrapPrependsContext) {
  const Error inner("bad attribute");
  EXPECT_EQ(inner.wrap("parsing <msg>").message(), "parsing <msg>: bad attribute");
}

TEST(Status, OkAndError) {
  Status ok = Status::ok_status();
  EXPECT_TRUE(ok.ok());
  Status bad = Error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message(), "nope");
}

}  // namespace
}  // namespace mercury::util
