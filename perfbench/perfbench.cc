// perfbench: one workload of the repo benchmark, replayed open-loop over
// loopback sockets through replay -> [proxy] -> server, measured from
// outside. See README.md for the workloads, the metrics and what each
// layer metric is expected to move.
//
//   perfbench --workload broot-udp --seed 1 --seconds 15 --trace 0
//             [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 replays twice (once
// untraced, once with the MetricsRegistry attached on every process), runs
// the offline stage pass, writes its spans to DIR, and prints the
// per-layer metrics. The last stdout line is one JSON object; the process
// exits 1 if any correctness check failed and 2 on a usage or set-up error.
#include <malloc.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain.h"
#include "measure.h"
#include "replay/realtime.h"
#include "stage_pass.h"
#include "stats/metrics.h"
#include "trace/binary.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace ldp;
using namespace ldp::perfbench;

namespace {

constexpr int kSetupRepeats = 5;
constexpr NanoDuration kQueryTimeout = Seconds(2);
// A workload that sends straight to the server replays as consecutive
// segments of this length, each with fresh querier sockets. The kernel
// spreads the 3 queriers' flows over the 2 server shards by a hash of their
// random source ports, and 1 draw in 4 puts all three on one shard, which
// moves CPU and RSS; one draw per segment averages that out instead of
// letting one draw decide the run. Behind the proxy the server sees the
// proxy's per-flow sockets instead, so there is no such draw, and fresh
// querier sockets would only make the proxy set up every flow again:
// hierarchy-proxy replays as one segment. Timing and CPU figures are read
// per segment and then summarised over segments at these quantiles (see
// SegmentFigures).
constexpr NanoDuration kSegment = Seconds(1);
constexpr double kTimingQuantile = 0.25;
constexpr double kCpuQuantile = 0.5;
// Rate fidelity is compared per bucket of this width (a segment holds ten).
constexpr NanoDuration kRateBucket = Millis(100);
constexpr size_t kMaxSampledQueries = 8192;

bool OptimizedBuild() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::string out_dir = ".";
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds < 1) {
    return std::nullopt;
  }
  return options;
}

// --- Results -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Share of host CPU time stolen between two /proc/stat readings, in %.
double StealPct(const std::optional<HostCpu>& before,
                const std::optional<HostCpu>& after) {
  if (!before || !after) return 0;
  return 100.0 * Ratio(after->steal - before->steal,
                       after->total - before->total);
}

// --- One chain: set-up, replay, teardown ---------------------------------

struct Chain {
  // Destroyed (quit + reaped) in reverse: proxy first, then server.
  std::unique_ptr<Child> server;
  std::unique_ptr<Child> proxy;
  ServerHello server_hello;
  uint16_t proxy_port = 0;
  std::vector<std::vector<trace::QueryRecord>> segments;  // the trace
  size_t scheduled = 0;
  uint64_t expected_nxdomain = 0;
  double setup_s = 0;
  double trace_gen_ms = 0;
};

std::vector<std::vector<trace::QueryRecord>> Split(
    std::vector<trace::QueryRecord> records, NanoDuration segment) {
  std::vector<std::vector<trace::QueryRecord>> segments;
  for (auto& record : records) {
    auto index = static_cast<size_t>(record.timestamp / segment);
    if (segments.size() <= index) segments.resize(index + 1);
    segments[index].push_back(std::move(record));
  }
  std::erase_if(segments, [](const auto& s) { return s.empty(); });
  return segments;
}

std::vector<trace::QueryRecord> Flatten(
    const std::vector<std::vector<trace::QueryRecord>>& segments) {
  std::vector<trace::QueryRecord> records;
  for (const auto& segment : segments) {
    records.insert(records.end(), segment.begin(), segment.end());
  }
  return records;
}

// Forks the server (and proxy) before generating the trace so the children
// inherit none of it; the children build zones while the trace generates.
std::unique_ptr<Chain> SetUp(const WorkloadSpec& spec, const Options& options,
                             bool metrics) {
  malloc_trim(0);
  int64_t start = SteadyNs();
  auto chain = std::make_unique<Chain>();
  chain->server = ForkServer(spec, metrics);
  if (chain->server == nullptr) return nullptr;
  if (spec.via_proxy) {
    chain->proxy = ForkProxy(metrics);
    if (chain->proxy == nullptr) return nullptr;
  }
  int64_t gen_start = SteadyNs();
  NanoDuration duration = Seconds(options.seconds);
  auto trace = MakeTraceInChild(spec, options.seed, duration);
  if (!trace) return nullptr;
  chain->trace_gen_ms = static_cast<double>(SteadyNs() - gen_start) / 1e6;
  chain->scheduled = trace->records.size();
  chain->expected_nxdomain = trace->expected_nxdomain;
  chain->segments =
      Split(std::move(trace->records), spec.via_proxy ? duration : kSegment);
  auto hello = ReadServerHello(*chain->server);
  if (!hello) return nullptr;
  chain->server_hello = *hello;
  if (spec.via_proxy) {
    auto proxy_hello =
        StartProxy(*chain->proxy, hello->port, trace->proxy_addresses);
    if (!proxy_hello) return nullptr;
    chain->proxy_port = proxy_hello->port;
  }
  chain->setup_s = static_cast<double>(SteadyNs() - start) / 1e9;
  return chain;
}

// Outcome counts summed over a run's segments.
struct ReplayTotals {
  uint64_t sent = 0, answered = 0, timed_out = 0, send_failed = 0,
           retransmits = 0, id_collisions = 0;
  void Add(const replay::RealtimeReport& r) {
    sent += r.queries_sent;
    answered += r.answered;
    timed_out += r.timed_out;
    send_failed += r.send_failed;
    retransmits += r.retransmits;
    id_collisions += r.id_collisions;
  }
};

struct ReplayRun {
  std::vector<replay::RealtimeReport> segments;
  std::vector<double> segment_cpu_us;  // the whole chain's, per segment
  std::vector<double> segment_steal_pct;
  ReplayTotals totals;
  ServerReport server;
  ProxyReport proxy;
  double cpu_us_replay = 0, cpu_us_server = 0, cpu_us_proxy = 0;
  uint64_t rss_kb_replay = 0, rss_kb_server = 0, rss_kb_proxy = 0;
  std::map<std::string, int64_t> snmp_delta;
  // Share of the host's CPU time stolen by the hypervisor during the
  // replay: the usual cause of a run that reads slower than its neighbours.
  double host_steal_pct = 0;
  double replay_loop_lag_p99_ns = 0;
  double replay_epoll_batch_mean = 0;
};

std::optional<ReplayRun> Replay(const WorkloadSpec& spec, Chain& chain,
                                bool metrics) {
  stats::MetricsRegistry registry;
  replay::RealtimeConfig config;
  config.server = Endpoint{IpAddress::Loopback(), chain.server_hello.port};
  config.n_distributors = kDistributors;
  config.queriers_per_distributor = kQueriersPerDistributor;
  config.query_timeout = kQueryTimeout;
  config.max_retransmits = 0;
  if (spec.via_proxy) {
    config.follow_trace_dst = true;
    config.loopback_alias_dst = true;
    config.dst_port_override = chain.proxy_port;
  }
  config.metrics = metrics ? &registry : nullptr;

  pid_t server_pid = chain.server->pid();
  pid_t proxy_pid = chain.proxy ? chain.proxy->pid() : -1;
  auto ticks = [](pid_t pid) {
    return pid < 0 ? 0 : CpuTicks(pid).value_or(0);
  };
  struct Ticks {
    uint64_t replay, server, proxy;
  };
  auto sample = [&] {
    return Ticks{ticks(0), ticks(server_pid), ticks(proxy_pid)};
  };
  auto snmp_before = ReadSnmp();
  auto host_before = ReadHostCpu();
  auto host_last = host_before;
  Ticks first = sample(), last = first;
  ReplayRun run;
  for (const auto& segment : chain.segments) {
    auto report = replay::RunRealtimeReplay(segment, config);
    if (!report.ok()) {
      std::fprintf(stderr, "replay: %s\n", report.error().ToString().c_str());
      return std::nullopt;
    }
    Ticks now = sample();
    run.segment_cpu_us.push_back(
        TicksToMicros((now.replay - last.replay) + (now.server - last.server) +
                      (now.proxy - last.proxy)));
    last = now;
    auto host_now = ReadHostCpu();
    run.segment_steal_pct.push_back(StealPct(host_last, host_now));
    host_last = host_now;
    run.totals.Add(*report);
    run.segments.push_back(std::move(*report));
  }
  auto snmp_after = ReadSnmp();
  run.host_steal_pct = StealPct(host_before, host_last);
  run.cpu_us_replay = TicksToMicros(last.replay - first.replay);
  run.cpu_us_server = TicksToMicros(last.server - first.server);
  run.cpu_us_proxy = TicksToMicros(last.proxy - first.proxy);
  if (!chain.server->Request('S', &run.server, sizeof(run.server))) {
    return std::nullopt;
  }
  if (chain.proxy &&
      !chain.proxy->Request('S', &run.proxy, sizeof(run.proxy))) {
    return std::nullopt;
  }
  run.rss_kb_replay = PeakRssKb(0).value_or(0);
  run.rss_kb_server = PeakRssKb(server_pid).value_or(0);
  run.rss_kb_proxy = chain.proxy ? PeakRssKb(proxy_pid).value_or(0) : 0;
  std::fprintf(stderr,
               "chain: cpu_us replay=%.0f server=%.0f proxy=%.0f  peak_rss_kb "
               "replay=%llu server=%llu proxy=%llu\n",
               run.cpu_us_replay, run.cpu_us_server, run.cpu_us_proxy,
               static_cast<unsigned long long>(run.rss_kb_replay),
               static_cast<unsigned long long>(run.rss_kb_server),
               static_cast<unsigned long long>(run.rss_kb_proxy));
  for (const char* key : {"Udp.InErrors", "Udp.RcvbufErrors",
                          "Udp.SndbufErrors", "Tcp.RetransSegs"}) {
    run.snmp_delta[key] = snmp_after[key] - snmp_before[key];
  }
  if (metrics) {
    auto snapshot = registry.Snapshot();
    run.replay_loop_lag_p99_ns =
        HistogramQuantile(snapshot, "replay.loop_lag_ns", 0.99);
    run.replay_epoll_batch_mean = HistogramMean(snapshot, "replay.epoll_batch");
  }
  return run;
}

// --- Derived numbers --------------------------------------------------------

// Per-query timing pooled over some segments. Each segment's times share
// its own epoch, so only differences within one query (and the inflight
// sweep within one segment) are taken.
struct Timing {
  std::vector<double> latency_us;  // answered, ascending
  std::vector<double> lag_us;      // reached the wire, ascending
  std::vector<double> rate_err_pct;  // |rate error| per bucket, ascending
  size_t failed = 0;
  size_t inflight_max = 0;
};

Timing DeriveTiming(std::span<const replay::RealtimeReport> reports) {
  Timing t;
  for (const auto& report : reports) {
    std::vector<std::pair<int64_t, int64_t>> inflight;
    std::vector<int64_t> due, sent;
    for (const auto& send : report.sends) {
      bool on_wire = send.state == replay::SendOutcome::State::kAnswered ||
                     send.state == replay::SendOutcome::State::kTimedOut;
      due.push_back(send.trace_time);
      if (on_wire) {
        sent.push_back(send.sent);
        t.lag_us.push_back(SendLagNs(send.trace_time, send.sent) / 1e3);
      }
      if (send.answered()) {
        t.latency_us.push_back(DueLatencyNs(send.trace_time, send.replied) /
                               1e3);
        inflight.emplace_back(send.sent, send.replied);
      } else {
        ++t.failed;
        if (on_wire) {
          inflight.emplace_back(send.sent, send.sent + kQueryTimeout);
        }
      }
    }
    t.inflight_max =
        std::max(t.inflight_max, MaxConcurrent(std::move(inflight)));
    for (double err : RateErrorsPct(due, sent, kRateBucket)) {
      t.rate_err_pct.push_back(std::abs(err));
    }
  }
  std::sort(t.latency_us.begin(), t.latency_us.end());
  std::sort(t.lag_us.begin(), t.lag_us.end());
  std::sort(t.rate_err_pct.begin(), t.rate_err_pct.end());
  return t;
}

// The correctness gate for one replay.
void GateReplay(const WorkloadSpec& spec, const Chain& chain,
                const ReplayRun& run, const std::string& label,
                std::vector<Check>& checks) {
  const auto& r = run.totals;
  const auto& e = run.server.engine;
  auto add = [&](const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({label + name, ok, detail});
  };
  auto n = [](uint64_t v) { return std::to_string(v); };
  add("ledger", r.sent == r.answered + r.timed_out + r.send_failed,
      "sent=" + n(r.sent) + " answered=" + n(r.answered) +
          " timed_out=" + n(r.timed_out) + " send_failed=" + n(r.send_failed));
  add("all_scheduled_sent", r.sent == chain.scheduled,
      "scheduled=" + n(chain.scheduled) + " sent=" + n(r.sent));
  uint64_t delivered = r.sent - r.send_failed + r.retransmits;
  add("server_queries_match_delivered", e.queries == delivered,
      "server queries=" + n(e.queries) + " delivered=" + n(delivered));
  add("server_dropped_none", e.dropped == 0, "dropped=" + n(e.dropped));
  if (spec.via_proxy) {
    add("proxy_forwarded_all", run.proxy.queries_in == delivered,
        "proxy queries_in=" + n(run.proxy.queries_in) +
            " delivered=" + n(delivered));
    add("refused_none", e.refused == 0, "refused=" + n(e.refused));
  } else {
    add("nxdomain_matches_junk", e.nxdomain == chain.expected_nxdomain,
        "nxdomain=" + n(e.nxdomain) +
            " junk names=" + n(chain.expected_nxdomain));
  }
  if (spec.tcp) {
    // One connection per folded source in each segment.
    uint64_t connections = kTcpClients * chain.segments.size();
    add("tcp_accepted_4_per_segment", run.server.tcp.accepted == connections,
        "accepted=" + n(run.server.tcp.accepted) +
            " expected=" + n(connections));
    add("tcp_no_framing_drops",
        run.server.framing_drops == 0 && run.server.tcp.rejected == 0,
        "framing_drops=" + n(run.server.framing_drops) +
            " rejected=" + n(run.server.tcp.rejected));
  }
}

// One segment's figures. On a shared VM the hypervisor steals CPU time in
// bursts; a segment it hits reads slower (its latency p50 rose from about
// 120 us to several ms at 15% steal) and a run can carry one burst or
// none. Interference only ever adds delay, so the replay.latency_p50_us
// and replay.send_lag_* metrics report the lower quartile over segments:
// the program's own speed, read from the least disturbed quarter of the
// run. A slower program moves every segment, that quarter too. CPU per
// query, which steal moves both ways (backlogs batch better), reports the
// median.
struct SegmentFigures {
  double latency_p50_us = 0;
  double lag_p50_us = 0;
  double lag_p90_us = 0;
  double cpu_us_per_query = 0;
  double steal_pct = 0;
  uint64_t sent = 0;
  uint64_t answered = 0;
};

std::vector<SegmentFigures> PerSegment(const ReplayRun& run) {
  double timeout_us = static_cast<double>(kQueryTimeout) / 1e3;
  std::vector<SegmentFigures> out;
  for (size_t i = 0; i < run.segments.size(); ++i) {
    Timing t = DeriveTiming(std::span(&run.segments[i], 1));
    out.push_back({
        LatencyWithFailures(t.latency_us, t.failed, 0.5, timeout_us).value,
        NearestRank(t.lag_us, 0.5).value,
        NearestRank(t.lag_us, 0.9).value,
        Ratio(run.segment_cpu_us[i], run.segments[i].answered),
        run.segment_steal_pct[i],
        run.segments[i].queries_sent,
        run.segments[i].answered,
    });
  }
  return out;
}

double QuantileOver(const std::vector<SegmentFigures>& segments,
                    double SegmentFigures::*field, double p) {
  std::vector<double> values;
  for (const auto& s : segments) values.push_back(s.*field);
  std::sort(values.begin(), values.end());
  return NearestRank(values, p).value;
}

std::vector<Metric> EndToEndMetrics(const Chain& chain, const ReplayRun& run,
                                    const std::vector<double>& setup_s) {
  const auto& r = run.totals;
  auto segments = PerSegment(run);
  size_t scheduled = chain.scheduled;
  double rss_mb = static_cast<double>(run.rss_kb_replay + run.rss_kb_server +
                                      run.rss_kb_proxy) /
                  1024.0;
  const auto& e = run.server.engine;
  uint64_t processes = chain.proxy ? 3 : 2;
  return {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"answered_frac", Ratio(r.answered, scheduled), "fraction", scheduled},
      {"cpu_us_per_query",
       QuantileOver(segments, &SegmentFigures::cpu_us_per_query, kCpuQuantile),
       "us", segments.size()},
      {"peak_rss_mb", rss_mb, "MB", processes},
      {"resp_bytes_per_query", Ratio(e.response_bytes, e.responses), "bytes",
       e.responses},
  };
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<std::vector<Span>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) children[span.parent].push_back(span);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"q\":" << s.query << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent
        << ",\"self_ns\":" << SelfTimeNs(s, children[i]) << "}\n";
  }
  return static_cast<bool>(out);
}

// Replay outcomes of the sampled queries as due -> sent -> replied spans,
// keyed by trace index. Their time base is their segment's replay epoch,
// so these trees stand apart from the stage pass's.
void AddReplaySpans(const ReplayRun& run, const std::vector<Span>& stage_spans,
                    std::vector<Span>& out) {
  std::vector<bool> sampled(run.totals.sent, false);
  for (const Span& s : stage_spans) {
    if (s.parent < 0 && s.query < sampled.size()) sampled[s.query] = true;
  }
  uint64_t offset = 0;
  for (const auto& report : run.segments) {
    for (const auto& send : report.sends) {
      uint64_t q = offset + send.trace_index;
      if (q >= sampled.size() || !sampled[q] || !send.answered()) continue;
      auto root = static_cast<int64_t>(out.size());
      out.push_back({"replay.query", send.trace_time, send.replied, -1, q});
      out.push_back({"replay.send_lag", send.trace_time, send.sent, root, q});
      out.push_back({"replay.wait", send.sent, send.replied, root, q});
    }
    offset += report.sends.size();
  }
}

// `run` is the replay with the MetricsRegistry attached; the registry's
// figures, CPU and memory come from it. The replay's fidelity figures
// (latency, send lag, rate error, inflight) come from `untraced`, the same
// workload replayed with the registry off, as in the end-to-end runs.
std::vector<Metric> PerLayerMetrics(const Chain& chain, const ReplayRun& run,
                                    const ReplayRun& untraced,
                                    const StagePassResult& stages,
                                    double encode_ns, double decode_ns) {
  const auto& r = run.totals;
  Timing t = DeriveTiming(untraced.segments);
  auto fidelity = PerSegment(untraced);
  const auto& e = run.server.engine;
  const auto& p = run.proxy;
  const StageMedians& m = stages.medians;
  double timeout_us = static_cast<double>(kQueryTimeout) / 1e3;
  // p99, or the highest percentile that keeps ten samples beyond it when a
  // run is too short for p99.
  double tail = std::min(0.99, HighestSupportedPercentile(t.lag_us.size()));
  auto lat99 = LatencyWithFailures(t.latency_us, t.failed, tail, timeout_us);
  auto lag99 = NearestRank(t.lag_us, tail);
  auto rate50 = NearestRank(t.rate_err_pct, 0.5);
  uint64_t lookups = e.cache_hits + e.cache_misses;
  double cpu_traced = QuantileOver(
      PerSegment(run), &SegmentFigures::cpu_us_per_query, kCpuQuantile);
  double cpu_untraced = QuantileOver(
      fidelity, &SegmentFigures::cpu_us_per_query, kCpuQuantile);
  auto mb = [](uint64_t kb) { return static_cast<double>(kb) / 1024.0; };
  uint64_t s = stages.sampled;
  auto snmp = [&](const char* key) {
    return static_cast<double>(run.snmp_delta.at(key));
  };
  return {
      {"workload.trace_gen_ms", chain.trace_gen_ms, "ms", 1},
      {"trace.encode_ns", encode_ns, "ns", chain.scheduled},
      {"trace.decode_ns", decode_ns, "ns", chain.scheduled},
      {"zone.build_ms", chain.server_hello.zone_build_ns / 1e6, "ms", 1},
      {"zone.bytes", static_cast<double>(chain.server_hello.zone_bytes),
       "bytes", 1},
      {"server.rss_mb", mb(run.rss_kb_server), "MB", 1},
      {"proxy.rss_mb", mb(run.rss_kb_proxy), "MB", 1},
      {"replay.rss_mb", mb(run.rss_kb_replay), "MB", 1},
      {"dns.decode_ns", m.decode, "ns", s},
      {"zone.build_response_ns", m.build_response, "ns", s},
      {"dns.encode_ns", m.encode, "ns", s},
      {"server.parse_wire_ns", m.parse_wire, "ns", s},
      {"server.cache_probe_ns", m.cache_probe, "ns", s},
      {"zone.view_match_ns", m.view_match, "ns", s},
      {"zone.find_zone_ns", m.find_zone, "ns", s},
      {"server.handle_wire_ns", m.handle_wire, "ns", s},
      {"server.engine_self_ns", m.engine_self, "ns", s},
      {"server.cache_hit_ratio", Ratio(e.cache_hits, lookups), "fraction",
       lookups},
      {"server.cache_lookups", static_cast<double>(lookups), "count", 1},
      {"server.busiest_shard_share",
       Ratio(run.server.busiest_shard_queries, e.queries), "fraction",
       e.queries},
      {"server.cpu_us_per_query", Ratio(run.cpu_us_server, e.queries), "us",
       e.queries},
      {"server.udp_batch_mean", run.server.udp_batch_mean, "count", 1},
      {"server.epoll_batch_mean", run.server.epoll_batch_mean, "count", 1},
      {"server.tcp_accepted", static_cast<double>(run.server.tcp.accepted),
       "count", 1},
      {"server.framing_drops", static_cast<double>(run.server.framing_drops),
       "count", 1},
      {"proxy.cpu_us_per_query", Ratio(run.cpu_us_proxy, p.queries_in), "us",
       p.queries_in},
      {"proxy.rewrite_p50_ns", p.rewrite_p50_ns, "ns", p.queries_in},
      {"proxy.loop_lag_p99_us", p.loop_lag_p99_ns / 1e3, "us", 1},
      {"proxy.flows_created", static_cast<double>(p.flows_created), "count",
       1},
      {"proxy.flows_evicted", static_cast<double>(p.flows_evicted), "count",
       1},
      {"proxy.meta_send_errors", static_cast<double>(p.meta_send_errors),
       "count", 1},
      {"replay.cpu_us_per_query", Ratio(run.cpu_us_replay, r.sent), "us",
       r.sent},
      {"replay.loop_lag_p99_us", run.replay_loop_lag_p99_ns / 1e3, "us", 1},
      {"replay.epoll_batch_mean", run.replay_epoll_batch_mean, "count", 1},
      {"replay.inflight_max", static_cast<double>(t.inflight_max), "count",
       untraced.totals.sent},
      {"replay.timed_out", static_cast<double>(r.timed_out), "count", 1},
      {"replay.send_failed", static_cast<double>(r.send_failed), "count", 1},
      {"replay.retransmits", static_cast<double>(r.retransmits), "count", 1},
      {"replay.id_collisions", static_cast<double>(r.id_collisions), "count",
       1},
      {"replay.latency_p50_us",
       QuantileOver(fidelity, &SegmentFigures::latency_p50_us,
                    kTimingQuantile),
       "us", fidelity.size()},
      {"replay.send_lag_p50_us",
       QuantileOver(fidelity, &SegmentFigures::lag_p50_us, kTimingQuantile),
       "us", fidelity.size()},
      {"replay.send_lag_p90_us",
       QuantileOver(fidelity, &SegmentFigures::lag_p90_us, kTimingQuantile),
       "us", fidelity.size()},
      {"replay.latency_p99_us", lat99.value, "us", lat99.samples},
      {"replay.send_lag_p99_us", lag99.value, "us", lag99.samples},
      {"replay.rate_err_p50_pct", rate50.value, "%", rate50.samples},
      {"net.udp_rcvbuf_errors", snmp("Udp.RcvbufErrors"), "count", 1},
      {"net.udp_in_errors", snmp("Udp.InErrors"), "count", 1},
      {"net.udp_sndbuf_errors", snmp("Udp.SndbufErrors"), "count", 1},
      {"net.tcp_retrans_segs", snmp("Tcp.RetransSegs"), "count", 1},
      {"host.steal_pct", run.host_steal_pct, "%", 1},
      {"stats.trace_overhead_pct",
       cpu_untraced > 0 ? (cpu_traced - cpu_untraced) / cpu_untraced * 100
                        : 0,
       "%", 2},
  };
}

void PrintResult(const WorkloadSpec& spec, const Options& options,
                 const ReplayRun& run, const std::vector<Metric>& metrics,
                 const std::vector<Check>& checks, uint64_t attempted,
                 uint64_t failed) {
  bool correct = true;
  for (const Check& c : checks) {
    if (!c.ok) {
      correct = false;
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", c.name.c_str(),
                   c.detail.c_str());
    }
  }
  std::string out = "{\"workload\":" + JsonString(spec.name) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + std::to_string(options.seconds) +
                    ",\"trace\":" + (options.trace ? "1" : "0") +
                    ",\"rate_qps\":" + JsonNumber(spec.rate_qps) +
                    ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                    ",\"datapath\":\"epoll\",\"loopback\":true" +
                    ",\"host_steal_pct\":" + JsonNumber(run.host_steal_pct) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    out += std::string(i ? "," : "") + "{\"name\":" +
           JsonString(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + JsonString(checks[i].detail) + "}";
  }
  // Per-segment figures, for telling a noisy host from a slow program.
  out += "],\"segments\":[";
  auto segments = PerSegment(run);
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& g = segments[i];
    out += std::string(i ? "," : "") +
           "{\"latency_p50_us\":" + JsonNumber(g.latency_p50_us) +
           ",\"lag_p50_us\":" + JsonNumber(g.lag_p50_us) +
           ",\"lag_p90_us\":" + JsonNumber(g.lag_p90_us) +
           ",\"cpu_us_per_query\":" + JsonNumber(g.cpu_us_per_query) +
           ",\"steal_pct\":" + JsonNumber(g.steal_pct) +
           ",\"sent\":" + std::to_string(g.sent) +
           ",\"answered\":" + std::to_string(g.answered) + "}";
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += std::string(i ? "," : "") + JsonString(metrics[i].name) +
           ":{\"value\":" + JsonNumber(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) +
           ",\"samples\":" + std::to_string(metrics[i].samples) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Every scheduled query that was not answered counts as failed.
uint64_t Failed(const Chain& chain, const ReplayRun& run) {
  return chain.scheduled - std::min<uint64_t>(chain.scheduled,
                                              run.totals.answered);
}

int RunEndToEnd(const WorkloadSpec& spec, const Options& options) {
  std::vector<double> setup_s;
  std::unique_ptr<Chain> chain;
  for (int i = 0; i < kSetupRepeats; ++i) {
    chain.reset();  // quit and reap the previous set-up's processes first
    chain = SetUp(spec, options, /*metrics=*/false);
    if (chain == nullptr) {
      std::fprintf(stderr, "set-up failed\n");
      return 2;
    }
    setup_s.push_back(chain->setup_s);
  }
  auto run = Replay(spec, *chain, /*metrics=*/false);
  if (!run) return 2;
  std::vector<Check> checks;
  GateReplay(spec, *chain, *run, "", checks);
  auto metrics = EndToEndMetrics(*chain, *run, setup_s);
  PrintResult(spec, options, *run, metrics, checks, chain->scheduled,
              Failed(*chain, *run));
  for (const Check& c : checks) {
    if (!c.ok) return 1;
  }
  return 0;
}

int RunTraced(const WorkloadSpec& spec, const Options& options) {
  // The untraced replay first, as the base of the tracing overhead.
  std::optional<ReplayRun> untraced;
  std::vector<Check> checks;
  uint64_t attempted = 0, failed = 0;
  {
    auto chain = SetUp(spec, options, /*metrics=*/false);
    if (chain == nullptr) return 2;
    untraced = Replay(spec, *chain, /*metrics=*/false);
    if (!untraced) return 2;
    GateReplay(spec, *chain, *untraced, "untraced.", checks);
    attempted += chain->scheduled;
    failed += Failed(*chain, *untraced);
  }
  auto chain = SetUp(spec, options, /*metrics=*/true);
  if (chain == nullptr) return 2;
  auto run = Replay(spec, *chain, /*metrics=*/true);
  if (!run) return 2;
  GateReplay(spec, *chain, *run, "traced.", checks);
  attempted += chain->scheduled;
  failed += Failed(*chain, *run);
  chain->proxy.reset();
  chain->server.reset();

  // Trace codec, per record.
  const auto records = Flatten(chain->segments);
  int64_t t0 = SteadyNs();
  Bytes encoded = trace::EncodeBinaryTrace(records);
  int64_t t1 = SteadyNs();
  auto decoded = trace::DecodeBinaryTrace(encoded);
  int64_t t2 = SteadyNs();
  double per = static_cast<double>(std::max<size_t>(records.size(), 1));
  checks.push_back({"trace_codec_round_trip",
                    decoded.ok() && *decoded == records,
                    decoded.ok() ? "decoded " + std::to_string(decoded->size())
                                 : decoded.error().ToString()});

  ServedZones zones = BuildServedZones(spec);
  StagePassResult stages =
      RunStagePass(spec, zones, records, kMaxSampledQueries);
  checks.push_back({"stage_pass_bytes_identical",
                    stages.sampled > 0 && stages.mismatches == 0 &&
                        stages.no_zone == 0,
                    "sampled=" + std::to_string(stages.sampled) +
                        " mismatches=" + std::to_string(stages.mismatches) +
                        " no_zone=" + std::to_string(stages.no_zone)});

  std::vector<Span> spans = stages.spans;
  AddReplaySpans(*run, stages.spans, spans);
  std::string path = options.out_dir + "/spans-" + spec.name + ".jsonl";
  checks.push_back({"spans_written", WriteSpans(path, spans), path});

  auto metrics =
      PerLayerMetrics(*chain, *run, *untraced, stages,
                      static_cast<double>(t1 - t0) / per,
                      static_cast<double>(t2 - t1) / per);
  PrintResult(spec, options, *run, metrics, checks, attempted, failed);
  for (const Check& c : checks) {
    if (!c.ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = ParseArgs(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  auto spec = FindWorkload(options->workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", options->workload.c_str());
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "refusing to measure: this is a debug or sanitizer build "
                 "(%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  return options->trace ? RunTraced(*spec, *options)
                        : RunEndToEnd(*spec, *options);
}
