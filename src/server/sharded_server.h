// Multi-core UDP fast path: N worker shards, each a thread running its own
// EventLoop with its own SO_REUSEPORT-bound UDP socket and a private
// AuthServerEngine (own stats, own response cache) over a shared, immutable
// ViewTable. The kernel shards incoming datagrams across the sockets, so
// the hot path shares no mutable state between workers at all; aggregate
// counters come from per-shard snapshots (relaxed atomics, no locks).
//
// The stream lanes (TCP, and DNS-over-TLS with serve_tls) shard the same
// way: every shard binds its own SO_REUSEPORT listener and the kernel
// spreads incoming connections across shards by 4-tuple hash, so the
// mass-connection workloads of the all-TCP/all-TLS root study (figs 13-15)
// use every core. The TLS context (certificate, ticket key) is shared.
//
// This is the only socket server: one shard is the trivial case, and a
// caller that wants a single loop sets n_shards = 1.
#ifndef LDPLAYER_SERVER_SHARDED_SERVER_H
#define LDPLAYER_SERVER_SHARDED_SERVER_H

#include <memory>
#include <vector>

#include "net/datapath.h"
#include "net/tls.h"
#include "server/engine.h"
#include "server/socket_server.h"
#include "stats/metrics.h"

namespace ldp::server {

class ShardedDnsServer {
 public:
  struct Config {
    Endpoint listen;        // port 0 picks an ephemeral port (tests)
    size_t n_shards = 0;    // 0 = hardware_concurrency
    bool serve_tcp = true;  // every shard accepts (SO_REUSEPORT listeners)
    // DNS-over-TLS listeners on every shard; requires OpenSSL in the build
    // (Start fails otherwise — probe with net::TlsAvailable()). tls_port 0
    // picks an ephemeral port, resolved via tls_endpoint().
    bool serve_tls = false;
    uint16_t tls_port = 0;
    // Per-shard cap on concurrent stream connections (TCP + TLS together;
    // 0 = unbounded). At the cap, newly accepted connections are closed
    // immediately (counted in TcpStats::rejected) and the shard's listeners
    // pause, leaving further SYNs in the kernel backlog until idle eviction
    // or client closes make room.
    size_t max_tcp_connections = 0;
    NanoDuration tcp_idle_timeout = Seconds(20);
    // Per-shard UDP SO_RCVBUF (0 = kernel default): the fast path raises
    // it so query bursts queue in the kernel while a worker drains a batch.
    int udp_recv_buffer_bytes = 0;
    // Datagram transport per shard: epoll kernel sockets (default) or
    // AF_PACKET rings. With >1 shard on afpacket, the shards join one
    // PACKET_FANOUT group keyed by the bound port, so the kernel hashes
    // flows across rings the way SO_REUSEPORT shards kernel sockets.
    net::DatapathKind datapath = net::DatapathKind::kEpoll;
    net::AfPacketOptions afpacket;  // used when datapath == kAfPacket
    EngineOptions engine;   // per-shard engine options (response cache)
    // Optional live-metrics registry (must outlive the server). Each shard
    // registers polled counters over its engine's existing relaxed-atomic
    // stats (zero added hot-path cost) plus loop-lag / epoll-batch /
    // udp-batch histograms on its own EventLoop.
    stats::MetricsRegistry* metrics = nullptr;
  };

  // Binds every shard (resolving an ephemeral port via shard 0), then
  // starts one worker thread per shard. Sockets and loops are constructed
  // on the calling thread; after Start returns, each loop is touched only
  // by its own worker.
  static Result<std::unique_ptr<ShardedDnsServer>> Start(
      std::shared_ptr<const zone::ViewTable> views, const Config& config);

  ~ShardedDnsServer();  // Stop() + join

  // Stops every worker loop (thread-safe wakeup) and joins. Idempotent.
  void Stop();

  // The actually-bound endpoint (same for all shards).
  Endpoint endpoint() const { return endpoint_; }
  // Bound DoT endpoint (same for all shards); meaningful with serve_tls.
  Endpoint tls_endpoint() const { return tls_endpoint_; }
  size_t n_shards() const { return shards_.size(); }

  // Lock-free aggregate of the per-shard counter snapshots.
  EngineStats TotalStats() const;
  std::vector<EngineStats> ShardStats() const;
  // Per-shard stream-connection counters; the cross-shard accept
  // distribution test and the fig13-15 bench assert every entry is nonzero.
  TcpStats TotalTcpStats() const;
  std::vector<TcpStats> ShardTcpStats() const;

 private:
  ShardedDnsServer();

  // One worker: its loop, thread, engine and socket lanes (sharded_server.cc).
  class Shard;

  Endpoint endpoint_;
  Endpoint tls_endpoint_;
  // Shared across shards; must outlive every shard.
  std::unique_ptr<net::TlsContext> tls_ctx_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool stopped_ = false;
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_SHARDED_SERVER_H
