// Pure measurement helpers for the perfbench harness: percentiles with
// their sample counts, due-time arithmetic for open-loop replay, parsers
// for the /proc files the harness reads, and span self-time. Everything
// here is a function of its arguments so measure_test.cc can pin it down.
#ifndef LDPLAYER_PERFBENCH_MEASURE_H
#define LDPLAYER_PERFBENCH_MEASURE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ldp::perfbench {

// A percentile read off a sample, with the count it was read from.
struct Quantile {
  double value = 0;
  size_t samples = 0;
};

// The 1-based nearest rank of percentile p (in (0, 1]) among n > 0
// samples: ceil(p * n), at least 1.
inline size_t NearestRankIndex(size_t n, double p) {
  double exact = p * static_cast<double>(n);
  auto rank = static_cast<size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  return std::clamp<size_t>(rank, 1, n);
}

// Nearest-rank percentile over an ascending sample.
inline Quantile NearestRank(const std::vector<double>& sorted, double p) {
  Quantile q;
  q.samples = sorted.size();
  if (sorted.empty()) return q;
  q.value = sorted[NearestRankIndex(sorted.size(), p) - 1];
  return q;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5).value;
}

// The highest of p50, p90, p99, p99.9, p99.99 that still has at least ten
// samples beyond its rank; 0 when even the median does not.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0;
  if (n == 0) return best;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (n - NearestRankIndex(n, p) >= 10) best = p;
  }
  return best;
}

// Latency percentile over every scheduled request, where each of the
// `failed` requests counts as missing any limit: it ranks above every
// answered latency and reads as `failure_value` if the rank lands on it.
inline Quantile LatencyWithFailures(const std::vector<double>& answered_sorted,
                                    size_t failed, double p,
                                    double failure_value) {
  std::vector<double> all = answered_sorted;
  all.insert(all.end(), failed, failure_value);
  return NearestRank(all, p);
}

// Open-loop replay timing. A query is due at epoch + its trace offset; the
// replay reports sent and replied relative to that same epoch, so both
// differences below need no further anchoring. Generator stalls therefore
// count against latency as well as lag.
inline int64_t SendLagNs(int64_t due_ns, int64_t sent_ns) {
  return sent_ns - due_ns;
}
inline int64_t DueLatencyNs(int64_t due_ns, int64_t replied_ns) {
  return replied_ns - due_ns;
}

// Rate fidelity (paper Fig 8) at a finer grain than whole seconds: per
// bucket of `bucket_ns`, (replayed - original) / original query count, in
// percent, for every bucket the original schedule uses. `due_ns` holds each
// query's due time and `sent_ns` the send time of each query that reached
// the wire, on the same epoch.
inline std::vector<double> RateErrorsPct(const std::vector<int64_t>& due_ns,
                                         const std::vector<int64_t>& sent_ns,
                                         int64_t bucket_ns) {
  std::map<int64_t, std::pair<int64_t, int64_t>> counts;
  for (int64_t t : due_ns) ++counts[t / bucket_ns].first;
  for (int64_t t : sent_ns) ++counts[t / bucket_ns].second;
  std::vector<double> errors;
  for (const auto& [bucket, c] : counts) {
    if (c.first == 0) continue;
    errors.push_back(100.0 * static_cast<double>(c.second - c.first) /
                     static_cast<double>(c.first));
  }
  return errors;
}

// Most queries simultaneously between send and reply (or end), swept over
// [start, end) intervals.
inline size_t MaxConcurrent(std::vector<std::pair<int64_t, int64_t>> spans) {
  std::vector<std::pair<int64_t, int>> events;
  events.reserve(spans.size() * 2);
  for (auto [start, end] : spans) {
    events.emplace_back(start, +1);
    events.emplace_back(end, -1);
  }
  // Ends sort before starts at the same instant: [a,b) and [b,c) never
  // overlap.
  std::sort(events.begin(), events.end());
  size_t live = 0, peak = 0;
  for (auto [t, delta] : events) {
    live = delta > 0 ? live + 1 : live - 1;
    peak = std::max(peak, live);
  }
  return peak;
}

// CPU ticks (user + system) from the text of /proc/<pid>/stat. The comm
// field may hold spaces and parentheses, so fields are counted from the
// last ')': state is field 3, utime 14 and stime 15.
inline std::optional<uint64_t> ParseStatCpuTicks(std::string_view text) {
  size_t close = text.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  std::istringstream in{std::string(text.substr(close + 1))};
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int index = 3; index <= 15; ++index) {
    if (!(in >> field)) return std::nullopt;
    if (index == 14 || index == 15) {
      try {
        (index == 14 ? utime : stime) = std::stoull(field);
      } catch (...) {
        return std::nullopt;
      }
    }
  }
  return utime + stime;
}

// Aggregate CPU time from the "cpu" line of /proc/stat, in ticks: the sum
// of every column, and the steal column (time the hypervisor ran something
// else while this VM's vCPUs wanted to run).
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
inline std::optional<HostCpu> ParseHostCpu(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string label;
  if (!(in >> label) || label != "cpu") return std::nullopt;
  HostCpu cpu;
  uint64_t value = 0;
  for (int column = 1; in >> value; ++column) {
    cpu.total += value;
    if (column == 8) cpu.steal = value;
  }
  if (cpu.total == 0) return std::nullopt;
  return cpu;
}

// A "Key:  <n> kB" line of /proc/<pid>/status (VmHWM, VmRSS), in kB.
inline std::optional<uint64_t> ParseStatusKb(std::string_view text,
                                             std::string_view key) {
  std::istringstream in{std::string(text)};
  std::string line;
  std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    uint64_t kb = 0;
    if (fields >> kb) return kb;
    return std::nullopt;
  }
  return std::nullopt;
}

// /proc/net/snmp as "Proto.Field" -> value. Each protocol appears as a
// header line of field names followed by a line of values with the same
// "Proto:" prefix.
inline std::map<std::string, int64_t> ParseSnmp(std::string_view text) {
  std::map<std::string, int64_t> out;
  std::istringstream in{std::string(text)};
  std::string header, values;
  while (std::getline(in, header) && std::getline(in, values)) {
    std::istringstream h(header), v(values);
    std::string proto, proto_v;
    h >> proto;
    v >> proto_v;
    if (proto.empty() || proto != proto_v || proto.back() != ':') continue;
    proto.pop_back();
    std::string name, value;
    while (h >> name && v >> value) {
      try {
        out[proto + "." + name] = std::stoll(value);
      } catch (...) {
        // Non-numeric cell: skip it, keep the rest of the row.
      }
    }
  }
  return out;
}

// One traced interval. `parent` indexes the span list (-1 = root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t query = 0;
};

// A span's duration minus the part of it its children cover (overlapping
// children are counted once; parts of a child outside the span are not
// subtracted).
inline int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span& child : children) {
    int64_t start = std::max(child.start_ns, span.start_ns);
    int64_t end = std::min(child.end_ns, span.end_ns);
    if (end > start) cover.emplace_back(start, end);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0, reach = span.start_ns;
  for (auto [start, end] : cover) {
    start = std::max(start, reach);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return (span.end_ns - span.start_ns) - covered;
}

}  // namespace ldp::perfbench

#endif  // LDPLAYER_PERFBENCH_MEASURE_H
