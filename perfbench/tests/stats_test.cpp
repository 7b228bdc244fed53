// Unit tests of the benchmark's own arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SumOfFastest, EachOperationAtItsFastestRepetition) {
  // Operation 0 is fastest in repetition 1, operation 1 in repetition 0.
  EXPECT_DOUBLE_EQ(sum_of_fastest({{3.0, 1.0}, {2.0, 4.0}, {5.0, 6.0}}), 3.0);
  EXPECT_DOUBLE_EQ(sum_of_fastest({{2.0, 7.0, 1.5}, {1.0}}), 9.5);
  EXPECT_DOUBLE_EQ(sum_of_fastest({}), 0.0);
}

TEST(TailPercentile, P99WhenTenSamplesLieBeyond) {
  const Tail t = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond) {
  // 200 samples: p99 would leave 2 beyond, so report rank 190 = p95.
  const Tail t = tail_percentile(one_to(200));
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, TooFewSamplesReportsTheMinimum) {
  const Tail t = tail_percentile(one_to(8));
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 7u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(FailureShare, CountsAgainstAttempted) {
  EXPECT_DOUBLE_EQ(failure_share(0, 40), 0.0);
  EXPECT_DOUBLE_EQ(failure_share(1, 4), 0.25);
  EXPECT_DOUBLE_EQ(failure_share(0, 0), 0.0);
}

TEST(Unattributed, WallMinusLayers) {
  EXPECT_DOUBLE_EQ(unattributed(10.0, {2.0, 3.0, 4.0}), 1.0);
  EXPECT_DOUBLE_EQ(unattributed(5.0, {}), 5.0);
  EXPECT_LT(unattributed(1.0, {0.75, 0.5}), 0.0);  // overlapping layers
}

TEST(CompareDigests, IdenticalRunsMatch) {
  const SimDigest a{123.5, 1000, 3, {0.5, 1.0, 1.5}};
  EXPECT_EQ(compare_digests(a, a), "");
}

TEST(CompareDigests, ReportsTheFirstDifference) {
  const SimDigest a{123.5, 1000, 3, {0.5, 1.0, 1.5}};
  SimDigest b = a;
  b.events = 1001;
  EXPECT_NE(compare_digests(a, b).find("events"), std::string::npos);
  b = a;
  b.switches = 4;
  EXPECT_NE(compare_digests(a, b).find("switches"), std::string::npos);
  b = a;
  b.iteration_end_times[1] = std::nextafter(1.0, 2.0);
  EXPECT_NE(compare_digests(a, b).find("iteration 1"), std::string::npos);
  b = a;
  b.iteration_end_times.pop_back();
  EXPECT_NE(compare_digests(a, b).find("iteration count"), std::string::npos);
  b = a;
  b.throughput = std::nextafter(a.throughput, 0.0);
  EXPECT_NE(compare_digests(a, b).find("throughput"), std::string::npos);
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  SpanLog log(true);
  const auto outer = log.open("outer", 0);
  const auto inner = log.open("inner", 100);
  const auto leaf = log.open("leaf", 150);
  log.close(leaf, 170);
  log.close(inner, 300);
  log.add("worker", 400, 450, 7);
  log.close(outer, 1000);
  const auto self = log.self_seconds();
  EXPECT_NEAR(self.at("outer"), (1000 - 200 - 50) * 1e-9, 1e-15);
  EXPECT_NEAR(self.at("inner"), (200 - 20) * 1e-9, 1e-15);
  EXPECT_NEAR(self.at("leaf"), 20 * 1e-9, 1e-15);
  EXPECT_NEAR(log.total_seconds().at("outer"), 1000 * 1e-9, 1e-15);
  EXPECT_EQ(log.spans()[3].run, 7u);
  EXPECT_EQ(log.spans()[3].parent, 0);
}

TEST(SpanLog, DisabledRecordsNothingButScopesStillTime) {
  SpanLog log(false);
  Scope scope(log, "x");
  EXPECT_GE(scope.stop(), 0.0);
  EXPECT_TRUE(log.spans().empty());
  std::ostringstream os;
  log.write_tsv(os);
  EXPECT_EQ(os.str(), "run\tname\tstart_ns\tend_ns\tparent\n");
}

}  // namespace
}  // namespace perfbench
