#include "chain.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/clock.h"
#include "proxy/relay.h"
#include "server/sharded_server.h"
#include "stats/metrics.h"
#include "trace/binary.h"

namespace ldp::perfbench {
namespace {

bool ReadFull(int fd, void* buf, size_t n) {
  auto* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t n) {
  const auto* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<size_t>(put);
  }
  return true;
}

// Forks `body` into a child that dies with its parent. The parent must be
// single-threaded here (the replay threads start only after the chain is
// up), so the child may allocate and start threads freely. The child
// leaves through _exit so the parent's stdio buffers are not flushed twice.
std::unique_ptr<Child> ForkChild(const std::function<void(int)>& body) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return nullptr;
  }
  pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    body(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  return std::make_unique<Child>(pid, fds[0]);
}

// Serves commands until 'Q' or the parent hangs up.
template <typename Report>
void ServeCommands(int fd, const std::function<Report()>& report) {
  char command = 0;
  while (ReadFull(fd, &command, 1) && command == 'S') {
    Report r = report();
    if (!WriteFull(fd, &r, sizeof(r))) break;
  }
}

void ServerMain(int fd, const WorkloadSpec& spec, bool metrics) {
  ServerHello hello;
  NanoTime start = MonotonicNow();
  ServedZones zones = BuildServedZones(spec);
  hello.zone_build_ns = MonotonicNow() - start;
  hello.zone_bytes = zones.zone_bytes;

  stats::MetricsRegistry registry;
  server::ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = kServerShards;
  config.serve_tcp = spec.tcp;
  config.tcp_idle_timeout = 0;  // the replay closes its own connections
  config.udp_recv_buffer_bytes = kUdpRecvBufferBytes;
  config.engine.response_cache_entries = kResponseCacheEntries;
  config.metrics = metrics ? &registry : nullptr;
  auto server = server::ShardedDnsServer::Start(zones.views, config);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.error().ToString().c_str());
    (void)WriteFull(fd, &hello, sizeof(hello));
    return;
  }
  hello.ok = 1;
  hello.port = (*server)->endpoint().port;
  if (!WriteFull(fd, &hello, sizeof(hello))) return;

  ServeCommands<ServerReport>(fd, [&] {
    ServerReport r;
    r.engine = (*server)->TotalStats();
    r.tcp = (*server)->TotalTcpStats();
    for (const auto& shard : (*server)->ShardStats()) {
      r.busiest_shard_queries =
          std::max(r.busiest_shard_queries, shard.queries);
    }
    if (metrics) {
      auto snapshot = registry.Snapshot();
      r.framing_drops = snapshot.CounterValue("framing.stream_drops");
      r.epoll_batch_mean = HistogramMean(snapshot, "server.epoll_batch");
      r.udp_batch_mean = HistogramMean(snapshot, "server.udp_batch");
    }
    return r;
  });
  (*server)->Stop();
}

void ProxyMain(int fd, bool metrics) {
  uint16_t meta_port = 0;
  uint32_t n = 0;
  if (!ReadFull(fd, &meta_port, sizeof(meta_port)) ||
      !ReadFull(fd, &n, sizeof(n))) {
    return;
  }
  std::vector<uint32_t> raw(n);
  if (!ReadFull(fd, raw.data(), raw.size() * sizeof(uint32_t))) return;

  stats::MetricsRegistry registry;
  proxy::RelayConfig config;
  for (uint32_t value : raw) config.addresses.push_back(IpAddress(value));
  config.meta_server = Endpoint{IpAddress::Loopback(), meta_port};
  config.n_shards = kProxyShards;
  config.udp_recv_buffer_bytes = kUdpRecvBufferBytes;
  // The default flow capacity (4096) holds every (querier, address) flow of
  // the run: at most 3 queriers x 1,042 addresses.
  config.splice_tcp = false;
  config.metrics = metrics ? &registry : nullptr;
  ProxyHello hello;
  auto proxy = proxy::HierarchyProxy::Start(config);
  if (!proxy.ok()) {
    std::fprintf(stderr, "proxy: %s\n", proxy.error().ToString().c_str());
    (void)WriteFull(fd, &hello, sizeof(hello));
    return;
  }
  hello.ok = 1;
  hello.port = (*proxy)->port();
  if (!WriteFull(fd, &hello, sizeof(hello))) return;

  ServeCommands<ProxyReport>(fd, [&] {
    proxy::RelayStats stats = (*proxy)->TotalStats();
    ProxyReport r;
    r.queries_in = stats.queries_in;
    r.flows_created = stats.flows_created;
    r.flows_evicted = stats.flows_evicted;
    r.meta_send_errors = stats.meta_send_errors;
    if (metrics) {
      auto snapshot = registry.Snapshot();
      r.rewrite_p50_ns = HistogramQuantile(snapshot, "proxy.rewrite_ns", 0.5);
      r.loop_lag_p99_ns =
          HistogramQuantile(snapshot, "proxy.loop_lag_ns", 0.99);
    }
    return r;
  });
  (*proxy)->Stop();
}

struct TraceHeader {
  uint64_t expected_nxdomain = 0;
  uint64_t addresses = 0;
  uint64_t wire_bytes = 0;
};

// Sends the trace as a header, the proxy addresses and the binary trace,
// then waits for the parent's quit.
void TraceMain(int fd, const WorkloadSpec& spec, uint64_t seed,
               NanoDuration duration) {
  Trace trace = MakeTrace(spec, seed, duration);
  Bytes wire = trace::EncodeBinaryTrace(trace.records);
  std::vector<uint32_t> raw;
  for (IpAddress addr : trace.proxy_addresses) raw.push_back(addr.value());
  TraceHeader header{trace.expected_nxdomain, raw.size(), wire.size()};
  if (!WriteFull(fd, &header, sizeof(header)) ||
      !WriteFull(fd, raw.data(), raw.size() * sizeof(uint32_t)) ||
      !WriteFull(fd, wire.data(), wire.size())) {
    return;
  }
  char quit = 0;
  (void)ReadFull(fd, &quit, 1);
}

std::optional<std::string> Slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string ProcPath(pid_t pid, const char* file) {
  return pid == 0 ? std::string("/proc/self/") + file
                  : "/proc/" + std::to_string(pid) + "/" + file;
}

}  // namespace

Child::~Child() {
  char quit = 'Q';
  (void)WriteFull(fd_, &quit, 1);
  ::close(fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool Child::Send(const void* data, size_t n) { return WriteFull(fd_, data, n); }
bool Child::Receive(void* data, size_t n) { return ReadFull(fd_, data, n); }
bool Child::Request(char command, void* reply, size_t n) {
  return Send(&command, 1) && Receive(reply, n);
}

std::unique_ptr<Child> ForkServer(const WorkloadSpec& spec, bool metrics) {
  return ForkChild([&](int fd) { ServerMain(fd, spec, metrics); });
}

std::optional<ServerHello> ReadServerHello(Child& child) {
  ServerHello hello;
  if (!child.Receive(&hello, sizeof(hello)) || hello.ok == 0) {
    return std::nullopt;
  }
  return hello;
}

std::unique_ptr<Child> ForkProxy(bool metrics) {
  return ForkChild([&](int fd) { ProxyMain(fd, metrics); });
}

std::optional<ProxyHello> StartProxy(Child& child, uint16_t meta_port,
                                     const std::vector<IpAddress>& addresses) {
  std::vector<uint32_t> raw;
  for (IpAddress addr : addresses) raw.push_back(addr.value());
  uint32_t n = static_cast<uint32_t>(raw.size());
  ProxyHello hello;
  if (!child.Send(&meta_port, sizeof(meta_port)) ||
      !child.Send(&n, sizeof(n)) ||
      !child.Send(raw.data(), raw.size() * sizeof(uint32_t)) ||
      !child.Receive(&hello, sizeof(hello)) || hello.ok == 0) {
    return std::nullopt;
  }
  return hello;
}

std::optional<Trace> MakeTraceInChild(const WorkloadSpec& spec, uint64_t seed,
                                      NanoDuration duration) {
  auto child = ForkChild(
      [&](int fd) { TraceMain(fd, spec, seed, duration); });
  if (child == nullptr) return std::nullopt;
  TraceHeader header;
  if (!child->Receive(&header, sizeof(header))) return std::nullopt;
  std::vector<uint32_t> raw(header.addresses);
  Bytes wire(header.wire_bytes);
  if (!child->Receive(raw.data(), raw.size() * sizeof(uint32_t)) ||
      !child->Receive(wire.data(), wire.size())) {
    return std::nullopt;
  }
  auto records = trace::DecodeBinaryTrace(wire);
  if (!records.ok()) return std::nullopt;
  Trace trace;
  trace.records = std::move(*records);
  trace.expected_nxdomain = header.expected_nxdomain;
  for (uint32_t value : raw) trace.proxy_addresses.push_back(IpAddress(value));
  return trace;
}

std::optional<uint64_t> CpuTicks(pid_t pid) {
  auto text = Slurp(ProcPath(pid, "stat"));
  if (!text) return std::nullopt;
  return ParseStatCpuTicks(*text);
}

double TicksToMicros(uint64_t ticks) {
  return static_cast<double>(ticks) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::optional<uint64_t> PeakRssKb(pid_t pid) {
  auto text = Slurp(ProcPath(pid, "status"));
  if (!text) return std::nullopt;
  return ParseStatusKb(*text, "VmHWM");
}

double HistogramQuantile(const stats::MetricsSnapshot& snapshot,
                         const std::string& name, double q) {
  const auto* h = snapshot.Histogram(name);
  return h != nullptr && h->count > 0 ? h->Quantile(q) : 0;
}

double HistogramMean(const stats::MetricsSnapshot& snapshot,
                     const std::string& name) {
  const auto* h = snapshot.Histogram(name);
  return h != nullptr && h->count > 0
             ? static_cast<double>(h->sum) / static_cast<double>(h->count)
             : 0;
}

std::optional<HostCpu> ReadHostCpu() {
  auto text = Slurp("/proc/stat");
  return text ? ParseHostCpu(*text) : std::nullopt;
}

std::map<std::string, int64_t> ReadSnmp() {
  auto text = Slurp("/proc/net/snmp");
  return text ? ParseSnmp(*text) : std::map<std::string, int64_t>{};
}

}  // namespace ldp::perfbench
