#include "measure.h"

#include <gtest/gtest.h>

namespace ldp::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(NearestRank, MedianAndTailCarryTheirCounts) {
  auto values = OneTo(100);
  Quantile p50 = NearestRank(values, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(NearestRank(values, 0.99).value, 99);
  EXPECT_EQ(NearestRank(values, 1.0).value, 100);
}

TEST(NearestRank, RoundsTheRankUp) {
  auto values = OneTo(3);
  EXPECT_EQ(NearestRank(values, 0.5).value, 2);  // rank ceil(1.5) = 2
  EXPECT_EQ(NearestRank(values, 0.01).value, 1);
  EXPECT_EQ(NearestRank({}, 0.5).samples, 0u);
}

TEST(Median, SortsACopy) {
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);  // nearest rank: the lower middle
  EXPECT_EQ(Median({}), 0);
}

TEST(HighestSupportedPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);      // p50 rank 10, 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);    // 10 beyond
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);   // p99 has 1 beyond
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(200000), 0.9999);
}

TEST(LatencyWithFailures, FailuresRankAboveEveryAnswer) {
  auto answered = OneTo(6);
  // 6 answered + 4 failed: p50 is still answered, p70 lands on a failure.
  EXPECT_EQ(LatencyWithFailures(answered, 4, 0.5, 1e6).value, 5);
  Quantile p70 = LatencyWithFailures(answered, 4, 0.7, 1e6);
  EXPECT_EQ(p70.value, 1e6);
  EXPECT_EQ(p70.samples, 10u);
}

TEST(DueTime, LagAndLatencyAreMeasuredFromTheDueTime) {
  // Due 1 ms into the run, sent 40 us late, replied 150 us after sending.
  int64_t due = 1'000'000, sent = 1'040'000, replied = 1'190'000;
  EXPECT_EQ(SendLagNs(due, sent), 40'000);
  EXPECT_EQ(DueLatencyNs(due, replied), 190'000);
  // A generator stall delays the send; latency includes the stall.
  EXPECT_EQ(DueLatencyNs(due, replied + 500'000), 690'000);
}

TEST(RateErrorsPct, ComparesSentAgainstDuePerBucket) {
  // Due: 4 queries in bucket 0, 2 in bucket 1. Sent: one slips into bucket
  // 1, and one of bucket 1 never reaches the wire.
  std::vector<int64_t> due = {10, 20, 30, 90, 110, 150};
  std::vector<int64_t> sent = {12, 22, 35, 101, 115};
  auto errors = RateErrorsPct(due, sent, 100);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_DOUBLE_EQ(errors[0], -25.0);  // 3 sent of 4 due
  EXPECT_DOUBLE_EQ(errors[1], 0.0);    // 2 sent of 2 due
  // A bucket with sends but nothing due has no defined error.
  EXPECT_EQ(RateErrorsPct({10}, {10, 250}, 100).size(), 1u);
}

TEST(MaxConcurrent, TouchingIntervalsDoNotOverlap) {
  EXPECT_EQ(MaxConcurrent({}), 0u);
  EXPECT_EQ(MaxConcurrent({{0, 10}, {10, 20}}), 1u);
  EXPECT_EQ(MaxConcurrent({{0, 10}, {5, 20}, {6, 7}}), 3u);
}

TEST(ParseStatCpuTicks, CountsFieldsFromTheLastParen) {
  std::string stat =
      "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
      "170 30 0 0 20 0 4 0 100 1000 50";
  EXPECT_EQ(ParseStatCpuTicks(stat), 200u);
  EXPECT_FALSE(ParseStatCpuTicks("no paren here").has_value());
  EXPECT_FALSE(ParseStatCpuTicks("1 (x) S 1 2").has_value());
}

TEST(ParseHostCpu, SumsColumnsAndPicksSteal) {
  // user nice system idle iowait irq softirq steal guest guest_nice
  auto cpu = ParseHostCpu("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n");
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(cpu->total, 1000u);
  EXPECT_EQ(cpu->steal, 35u);
  EXPECT_FALSE(ParseHostCpu("cpu0 1 2 3").has_value());
  EXPECT_FALSE(ParseHostCpu("").has_value());
}

TEST(ParseStatusKb, ReadsTheNamedField) {
  std::string status =
      "Name:\tperfbench\nVmPeak:\t  200 kB\nVmHWM:\t   5120 kB\n"
      "VmRSS:\t   4096 kB\n";
  EXPECT_EQ(ParseStatusKb(status, "VmHWM"), 5120u);
  EXPECT_EQ(ParseStatusKb(status, "VmRSS"), 4096u);
  EXPECT_FALSE(ParseStatusKb(status, "VmSwap").has_value());
}

TEST(ParseSnmp, PairsHeaderAndValueLines) {
  std::string snmp =
      "Ip: Forwarding DefaultTTL\nIp: 1 64\n"
      "Tcp: RtoAlgorithm RetransSegs\nTcp: 1 17\n"
      "Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors "
      "SndbufErrors\nUdp: 900 1 3 800 2 0\n";
  auto fields = ParseSnmp(snmp);
  EXPECT_EQ(fields["Tcp.RetransSegs"], 17);
  EXPECT_EQ(fields["Udp.InErrors"], 3);
  EXPECT_EQ(fields["Udp.RcvbufErrors"], 2);
  EXPECT_EQ(fields["Udp.SndbufErrors"], 0);
  EXPECT_EQ(fields["Ip.DefaultTTL"], 64);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  Span parent{"p", 0, 100};
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  // Two overlapping children cover [10, 40); one disjoint covers [60, 70).
  std::vector<Span> children = {{"a", 10, 30}, {"b", 20, 40}, {"c", 60, 70}};
  EXPECT_EQ(SelfTimeNs(parent, children), 100 - 30 - 10);
  // A child sticking out of the parent only counts inside it.
  EXPECT_EQ(SelfTimeNs(parent, {{"d", 90, 150}}), 90);
  EXPECT_EQ(SelfTimeNs(parent, {{"e", -50, 200}}), 0);
}

}  // namespace
}  // namespace ldp::perfbench
