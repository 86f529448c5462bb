// The measured chain's server and proxy, each in a forked child process
// (as bench/conn_scale forks its server), so /proc gives each its own CPU
// time and peak RSS. The parent talks to a child over a socketpair with
// fixed-size messages: a hello once the child is serving, a report on
// request, and a quit that the child acknowledges by exiting.
#ifndef LDPLAYER_PERFBENCH_CHAIN_H
#define LDPLAYER_PERFBENCH_CHAIN_H

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ip.h"
#include "measure.h"
#include "server/engine.h"
#include "server/socket_server.h"
#include "stats/metrics.h"
#include "workloads.h"

namespace ldp::perfbench {

struct ServerHello {
  int32_t ok = 0;
  uint16_t port = 0;
  int64_t zone_build_ns = 0;
  uint64_t zone_bytes = 0;
};

struct ServerReport {
  server::EngineStats engine;
  server::TcpStats tcp;
  uint64_t busiest_shard_queries = 0;
  // Registry-backed values; zero unless the server ran with metrics.
  uint64_t framing_drops = 0;
  double epoll_batch_mean = 0;
  double udp_batch_mean = 0;
};

struct ProxyHello {
  int32_t ok = 0;
  uint16_t port = 0;
};

struct ProxyReport {
  uint64_t queries_in = 0;
  uint64_t flows_created = 0;
  uint64_t flows_evicted = 0;
  uint64_t meta_send_errors = 0;
  // Registry-backed values; zero unless the proxy ran with metrics.
  double rewrite_p50_ns = 0;
  double loop_lag_p99_ns = 0;
};

// One forked child. The destructor asks it to quit and reaps it.
class Child {
 public:
  Child(pid_t pid, int fd) : pid_(pid), fd_(fd) {}
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  bool Send(const void* data, size_t n);
  bool Receive(void* data, size_t n);
  // Sends a one-byte command and reads a fixed-size reply.
  bool Request(char command, void* reply, size_t n);

 private:
  pid_t pid_;
  int fd_;
};

// Forks the server: the child builds the workload's zones, starts a
// ShardedDnsServer on 127.0.0.1, and answers 'S' with a ServerReport.
// Returns nullptr when fork fails; the hello arrives via ReadServerHello.
std::unique_ptr<Child> ForkServer(const WorkloadSpec& spec, bool metrics);
std::optional<ServerHello> ReadServerHello(Child& child);

// Forks the proxy. It waits for StartProxy's configuration (the meta
// server's port and the addresses to listen on), then answers 'S' with a
// ProxyReport.
std::unique_ptr<Child> ForkProxy(bool metrics);
std::optional<ProxyHello> StartProxy(Child& child, uint16_t meta_port,
                                     const std::vector<IpAddress>& addresses);

// Generates the workload's trace in a forked child and reads it back, so
// the generator's memory (the simulated resolvers behind the
// hierarchy-proxy trace peak near 200 MB) never counts toward this
// process's peak RSS. Returns nullopt when the child fails.
std::optional<Trace> MakeTraceInChild(const WorkloadSpec& spec, uint64_t seed,
                                      NanoDuration duration);

// /proc readers for the chain's processes (pid 0 = this process).
std::optional<uint64_t> CpuTicks(pid_t pid);
double TicksToMicros(uint64_t ticks);
std::optional<uint64_t> PeakRssKb(pid_t pid);
std::map<std::string, int64_t> ReadSnmp();
std::optional<HostCpu> ReadHostCpu();

// A histogram's quantile or mean from a registry snapshot; 0 when the
// histogram is absent or empty.
double HistogramQuantile(const stats::MetricsSnapshot& snapshot,
                         const std::string& name, double q);
double HistogramMean(const stats::MetricsSnapshot& snapshot,
                     const std::string& name);

}  // namespace ldp::perfbench

#endif  // LDPLAYER_PERFBENCH_CHAIN_H
