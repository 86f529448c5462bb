// Real-socket hierarchy-emulation proxy (paper §2.4, Figure 2, over real
// sockets instead of TUN/iptables).
//
// The paper interposes two address-rewriting proxies between the recursive
// and the meta-DNS-server. Over real sockets both rewrites collapse into
// one relay process:
//
//   recursive side:  the proxy *listens on* every emulated nameserver
//     address (loopback aliases, see LoopbackAlias in common/ip.h) at one
//     shared service port. A query arriving at address A already carries
//     its OQDA — it is the listener address itself.
//   rewrite:         the query is forwarded to the meta server from a
//     relay socket bound to (A, client-port): the meta server sees
//     src == OQDA (its split-horizon view selector) and the client's
//     original port (ports pass through untouched, paper §2.4).
//   authoritative side: the meta server's reply lands on that relay
//     socket; the proxy sends it back to the client *from* the listener
//     on A, so the client sees the reply arriving from the address it
//     queried.
//
// Flows — one per (client endpoint, OQDA) pair — live in a NAT-style
// bounded table: LRU-evicted at capacity, idle-expired on a timer wheel.
// Evicted/expired flows linger briefly in a draining state so a late meta
// reply is counted (proxy.evicted_drops) instead of silently vanishing.
//
// TCP is spliced: the proxy accepts on each emulated address, dials the
// meta server from that address, and re-frames both directions; if the
// upstream stream dies with queries still owed, the proxy reconnects (with
// budget + backoff) and redelivers the unanswered frames, carrying the
// rewrite across reconnects.
//
// Sharding mirrors ShardedDnsServer's UDP lane: n_shards worker threads,
// each with its own EventLoop, SO_REUSEPORT listener set, flow table, wheel,
// and metric instances (merged by name at snapshot). Unlike the server's
// stream lane, TCP splices stay on shard 0.
//
// Anycast emulation (catchment.h): when `sites` is configured, each flow
// is pinned to a site by catchment lookup on the client address, UDP
// replies are delayed by the site's RTT, and per-site proxy.site.*
// counters expose the load split. Sites are virtual — all catchments
// reach the same meta server — which is exactly the paper's meta-server
// move applied to anycast: one real server plays every replica, and the
// catchment map plays BGP. (TCP splices are not RTT-delayed; the anycast
// experiments are UDP-first, like root traffic.)
#ifndef LDPLAYER_PROXY_RELAY_H
#define LDPLAYER_PROXY_RELAY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ip.h"
#include "common/result.h"
#include "net/datapath.h"
#include "proxy/catchment.h"
#include "stats/metrics.h"

namespace ldp::proxy {

struct RelayConfig {
  // Emulated nameserver addresses to impersonate. Must be bindable on
  // this host — pass public testbed addresses through LoopbackAlias.
  std::vector<IpAddress> addresses;
  // Shared service port across all addresses (0 = pick an ephemeral port
  // from the first bind and reuse it for the rest).
  uint16_t port = 0;
  // Where rewritten queries go: the meta-DNS-server.
  Endpoint meta_server;
  size_t n_shards = 1;
  int udp_recv_buffer_bytes = 0;

  // Ingress transport. Epoll binds one kernel listener per emulated
  // address; afpacket opens ONE wildcard ring per shard that matches on
  // the service port alone and reads each query's OQDA out of the frame,
  // answering from that address over the same ring — the per-address
  // listener fan-out collapses into a single mmap'd channel. The meta
  // legs (per-flow relay sockets, TCP splice) stay on kernel sockets.
  net::DatapathKind datapath = net::DatapathKind::kEpoll;
  net::AfPacketOptions afpacket;  // used when datapath == kAfPacket

  // Flow table bounds (per shard).
  size_t flow_capacity = 4096;
  NanoDuration flow_idle_timeout = Seconds(30);
  // Draining window after eviction/expiry during which late replies are
  // still observed (and counted as drops) before the socket closes.
  NanoDuration flow_linger = Seconds(1);

  // TCP splice (shard 0).
  bool splice_tcp = true;
  int tcp_max_reconnects = 3;
  NanoDuration tcp_reconnect_backoff = Millis(50);

  // Anycast sites (empty = single-site, no catchment logic on the hot
  // path). Flows are assigned a site at creation by catchment lookup on
  // the client source address; each site's RTT is injected on the UDP
  // reply path.
  std::vector<SiteSpec> sites;
  CatchmentMap catchment;

  // Optional live metrics: proxy.* counters, flow-table occupancy gauge,
  // rewrite-latency and ingress-batch histograms. The registry must
  // outlive the proxy; polled-counter lambdas keep the counter cells
  // alive, so snapshots taken after Stop() still read final totals.
  stats::MetricsRegistry* metrics = nullptr;
};

// Aggregate across shards; all counters monotonic except active_flows.
struct RelayStats {
  uint64_t rewritten = 0;       // address-rewritten packets, both legs
  uint64_t passed_through = 0;  // seen but not rewritable (not DNS-sized)
  uint64_t queries_in = 0;
  uint64_t responses_in = 0;
  uint64_t responses_out = 0;
  uint64_t flows_created = 0;
  uint64_t flows_evicted = 0;   // LRU pressure
  uint64_t flows_expired = 0;   // idle timeout
  uint64_t evicted_drops = 0;   // replies that arrived for a draining flow
  uint64_t port_fallbacks = 0;  // relay bind fell back to an ephemeral port
  uint64_t meta_send_errors = 0;
  uint64_t tcp_accepted = 0;
  uint64_t tcp_queries = 0;
  uint64_t tcp_responses = 0;
  uint64_t tcp_reconnects = 0;
  uint64_t tcp_failed = 0;      // splices torn down with queries still owed
  int64_t active_flows = 0;     // current flow-table occupancy (gauge)

  // Per-site load split (empty unless RelayConfig::sites was set).
  struct SiteLoad {
    std::string name;
    uint64_t queries_in = 0;
    uint64_t responses_out = 0;
  };
  std::vector<SiteLoad> sites;
};

class HierarchyProxy {
 public:
  using Config = RelayConfig;

  // Binds every listener (resolving an ephemeral service port via the
  // first bind), then starts one worker thread per shard. Mirrors
  // ShardedDnsServer::Start: sockets and loops are built on the calling
  // thread; after Start returns each loop is touched only by its own worker.
  static Result<std::unique_ptr<HierarchyProxy>> Start(const Config& config);

  ~HierarchyProxy();  // Stop() + join

  // Stops every worker loop (thread-safe wakeup) and joins. Idempotent.
  void Stop();

  // The resolved shared service port.
  uint16_t port() const { return port_; }
  size_t n_shards() const { return shards_.size(); }

  // Lock-free aggregate of the per-shard counter snapshots.
  RelayStats TotalStats() const;

 private:
  struct Shard;
  HierarchyProxy() = default;

  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool stopped_ = false;
};

}  // namespace ldp::proxy

#endif  // LDPLAYER_PROXY_RELAY_H
