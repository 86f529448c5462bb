#include "server/sharded_server.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>

#include "common/log.h"
#include "dns/framing.h"
#include "net/sockets.h"

namespace ldp::server {

namespace {

// Per-shard connection-lane counters (relaxed atomics, written only from
// the shard's loop thread, read from anywhere). Held in a shared_ptr so
// metrics-registry lambdas can outlive the server.
struct TcpCounters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> idle_closed{0};
  std::atomic<uint64_t> open{0};
  std::atomic<uint64_t> tls_open{0};
  std::atomic<uint64_t> tls_handshakes{0};
  std::atomic<uint64_t> tls_resumptions{0};
  std::atomic<uint64_t> tls_aborts{0};
  // Complete frames dropped because a connection's ready backlog was full.
  std::atomic<uint64_t> framing_drops{0};

  TcpStats Load() const {
    auto load = [](const std::atomic<uint64_t>& v) {
      return v.load(std::memory_order_relaxed);
    };
    return TcpStats{load(accepted),        load(rejected),
                    load(idle_closed),     load(open),
                    load(tls_open),        load(tls_handshakes),
                    load(tls_resumptions), load(tls_aborts)};
  }
};

// Registers one polled counter per engine stat under shared names; the
// registry merges same-named entries across shards at snapshot time. The
// lambdas capture the engine shared_ptr, so they stay valid even if the
// server stops before the registry's last snapshot.
void RegisterEngineMetrics(stats::MetricsRegistry* metrics,
                           std::shared_ptr<AuthServerEngine> engine) {
  auto counter = [&](const char* name, uint64_t EngineStats::*field) {
    metrics->AddCounterFn(name,
                          [engine, field] { return engine->stats().*field; });
  };
  counter("server.queries", &EngineStats::queries);
  counter("server.responses", &EngineStats::responses);
  counter("server.dropped", &EngineStats::dropped);
  counter("server.refused", &EngineStats::refused);
  counter("server.nxdomain", &EngineStats::nxdomain);
  counter("server.truncated", &EngineStats::truncated);
  counter("server.response_bytes", &EngineStats::response_bytes);
  counter("server.cache_hits", &EngineStats::cache_hits);
  counter("server.cache_misses", &EngineStats::cache_misses);
  counter("server.cache_bypass", &EngineStats::cache_bypass);
  counter("server.cache_evictions", &EngineStats::cache_evictions);
  metrics->AddGaugeFn("server.cache_size", [engine] {
    return static_cast<int64_t>(engine->stats().cache_size);
  });
}

// Stream-lane counters, registered per shard under shared names (the
// registry merges at snapshot time). The shared_ptr captures keep the
// counters alive past server teardown, like the engine captures above.
void RegisterTcpMetrics(stats::MetricsRegistry* metrics,
                        std::shared_ptr<TcpCounters> counters, bool tls) {
  auto counter = [&](const char* name,
                     std::atomic<uint64_t> TcpCounters::*field) {
    metrics->AddCounterFn(name, [counters, field] {
      return (counters.get()->*field).load(std::memory_order_relaxed);
    });
  };
  counter("framing.stream_drops", &TcpCounters::framing_drops);
  counter("server.tcp_accepted", &TcpCounters::accepted);
  counter("server.tcp_accept_rejected", &TcpCounters::rejected);
  counter("server.tcp_idle_closed", &TcpCounters::idle_closed);
  metrics->AddGaugeFn("server.tcp_open", [counters] {
    return static_cast<int64_t>(
        counters->open.load(std::memory_order_relaxed));
  });
  if (tls) {
    counter("tls.handshakes", &TcpCounters::tls_handshakes);
    counter("tls.resumptions", &TcpCounters::tls_resumptions);
    counter("tls.aborts", &TcpCounters::tls_aborts);
    metrics->AddGaugeFn("tls.open_connections", [counters] {
      return static_cast<int64_t>(
          counters->tls_open.load(std::memory_order_relaxed));
    });
  }
}

constexpr int kEphemeralBindRetries = 8;

}  // namespace

// One worker: an EventLoop run by its own thread, a private engine, and the
// socket lanes bound to the server's shared ports — the UDP batch lane, and
// the stream lane for TCP and DoT (accept, assembly, idle reaping and the
// connection cap). Once StartThread runs, only the loop thread touches the
// lanes; the counters and engine stats are relaxed atomics, readable anywhere.
class ShardedDnsServer::Shard {
 public:
  Shard(const Config& config, std::unique_ptr<net::EventLoop> loop,
        std::shared_ptr<const zone::ViewTable> views, net::TlsContext* tls)
      : config_(config),
        tls_(tls),
        loop_(std::move(loop)),
        engine_(std::make_shared<AuthServerEngine>(std::move(views),
                                                   config.engine)) {
    stats::MetricsRegistry* metrics = config.metrics;
    if (metrics == nullptr) return;
    RegisterEngineMetrics(metrics, engine_);
    loop_->SetMetrics(metrics->AddHistogram("server.loop_lag_ns"),
                      metrics->AddHistogram("server.epoll_batch"));
    udp_batch_hist_ = metrics->AddHistogram("server.udp_batch");
    if (config.serve_tcp || config.serve_tls) {
      RegisterTcpMetrics(metrics, counters_, config.serve_tls);
    }
    if (config.serve_tls) {
      tls_handshake_hist_ = metrics->AddHistogram("tls.handshake_ns");
    }
  }
  // Socket and timer callbacks hold `this`.
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Binds UDP on `listen`, TCP on the port UDP got (matters for port 0)
  // and DoT on `tls_port`. With `shared_ports` the stream listeners set
  // SO_REUSEPORT and afpacket rings join one fanout group, so sibling
  // shards can bind the same ports.
  Status Bind(Endpoint listen, uint16_t tls_port, bool shared_ports) {
    net::DatapathOptions datapath;
    datapath.kind = config_.datapath;
    datapath.udp.reuse_port = true;
    datapath.udp.recv_buffer_bytes = config_.udp_recv_buffer_bytes;
    datapath.afpacket = config_.afpacket;
    datapath.afpacket.fanout =
        config_.datapath == net::DatapathKind::kAfPacket && shared_ports;
    datapath.metrics = config_.metrics;
    LDP_ASSIGN_OR_RETURN(
        udp_, net::DatagramPath::Open(
                  *loop_, listen,
                  [this](std::span<const net::DatagramPath::RecvItem> batch) {
                    OnUdpBatch(batch);
                  },
                  datapath));
    net::TcpListenOptions listen_options;
    listen_options.reuse_port = shared_ports;
    if (config_.serve_tcp) {
      LDP_ASSIGN_OR_RETURN(
          listener_,
          net::TcpListener::Listen(
              *loop_, Endpoint{listen.addr, udp_->local().port},
              [this](std::unique_ptr<net::TcpConnection> conn) {
                OnAccept(std::move(conn), /*tls=*/false);
              },
              listen_options));
    }
    if (config_.serve_tls) {
      LDP_ASSIGN_OR_RETURN(
          tls_listener_,
          net::TcpListener::Listen(
              *loop_, Endpoint{listen.addr, tls_port},
              [this](std::unique_ptr<net::TcpConnection> conn) {
                OnAccept(std::move(conn), /*tls=*/true);
              },
              listen_options));
    }
    return Status::Ok();
  }

  void StartThread() {
    thread_ = std::thread([loop = loop_.get()] { loop->Run(); });
  }

  // Thread-safe wakeup; Join waits for the loop to return.
  void RequestStop() { loop_->RequestStop(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  Endpoint endpoint() const { return udp_->local(); }
  Endpoint tls_endpoint() const { return tls_listener_->local(); }
  EngineStats stats() const { return engine_->stats(); }
  TcpStats tcp_stats() const { return counters_->Load(); }

 private:
  struct ConnState {
    std::unique_ptr<net::StreamConn> conn;
    bool tls = false;
    dns::StreamAssembler assembler;
    NanoTime last_activity = 0;
    net::TimerHandle idle_timer;
  };
  using ConnMap = std::unordered_map<net::StreamConn*, ConnState>;

  void OnUdpBatch(std::span<const net::DatagramPath::RecvItem> batch);
  void OnAccept(std::unique_ptr<net::TcpConnection> conn, bool tls);
  // Registers an accepted connection; the caller wires its handlers.
  void AddConn(std::unique_ptr<net::StreamConn> conn, bool tls);
  void OnTlsReady(net::StreamConn* key, Status status);
  void OnTcpData(net::StreamConn* key, std::span<const uint8_t> data);
  void ArmIdleTimer(net::StreamConn* key);
  void CloseConn(net::StreamConn* key);
  // Erase + connection-gauge upkeep + listener resume below the cap.
  void RemoveConn(ConnMap::iterator it);
  void PauseAccept();
  void MaybeResumeAccept();

  const Config config_;
  net::TlsContext* const tls_;  // owned by the server; null without serve_tls
  std::unique_ptr<net::EventLoop> loop_;
  std::shared_ptr<AuthServerEngine> engine_;
  std::shared_ptr<TcpCounters> counters_ = std::make_shared<TcpCounters>();
  // Registry-owned; null without metrics.
  stats::LogHistogram* udp_batch_hist_ = nullptr;
  stats::LogHistogram* tls_handshake_hist_ = nullptr;
  std::unique_ptr<net::DatagramPath> udp_;
  std::unique_ptr<net::TcpListener> listener_;
  std::unique_ptr<net::TcpListener> tls_listener_;
  ConnMap conns_;
  // Per-batch reply staging, reused across readiness events: the encoded
  // responses (kept alive through the SendBatch call) and their addresses.
  std::vector<Bytes> reply_bufs_;
  std::vector<net::DatagramPath::SendItem> reply_items_;
  std::thread thread_;
};

void ShardedDnsServer::Shard::OnUdpBatch(
    std::span<const net::DatagramPath::RecvItem> batch) {
  // Serve the whole readiness batch, then flush every reply with one
  // sendmmsg — the syscall cost amortizes across the batch both ways.
  if (udp_batch_hist_ != nullptr && !batch.empty()) {
    udp_batch_hist_->Record(batch.size());
  }
  reply_bufs_.clear();
  reply_items_.clear();
  for (const auto& datagram : batch) {
    auto response = engine_->HandleWire(datagram.payload, datagram.from.addr,
                                        /*udp_limit=*/65535);
    if (!response.ok()) continue;  // undecodable: dropped
    reply_bufs_.push_back(std::move(*response));
    // Replies leave from the address the query targeted — identical to
    // local() on a concretely-bound path, and the only correct source on
    // a wildcard afpacket ring.
    reply_items_.push_back(net::DatagramPath::SendItem{
        reply_bufs_.back(), datagram.from, datagram.to});
  }
  size_t sent = udp_->SendBatch(reply_items_);
  if (sent < reply_items_.size()) {
    LDP_DEBUG << "UDP reply batch: kernel took " << sent << " of "
              << reply_items_.size() << " (send buffer full)";
  }
}

void ShardedDnsServer::Shard::OnAccept(
    std::unique_ptr<net::TcpConnection> conn, bool tls) {
  if (config_.max_tcp_connections > 0 &&
      conns_.size() >= config_.max_tcp_connections) {
    // At the cap: close this connection (the client sees an immediate EOF
    // and can back off) and stop accepting until evictions make room.
    counters_->rejected.fetch_add(1, std::memory_order_relaxed);
    PauseAccept();
    return;  // `conn` destroyed: active close
  }

  net::StreamConn* key = nullptr;
  if (tls) {
    auto tls_conn = net::TlsConnection::Accept(*tls_, std::move(conn));
    if (!tls_conn.ok()) {
      counters_->tls_aborts.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    key = tls_conn->get();
    AddConn(std::move(*tls_conn), /*tls=*/true);
    auto status = static_cast<net::TlsConnection*>(key)->Start(
        [this, key](Status ready) { OnTlsReady(key, std::move(ready)); },
        [this, key](std::span<const uint8_t> data) { OnTcpData(key, data); },
        [this, key](Status) { CloseConn(key); });
    if (!status.ok()) {
      counters_->tls_aborts.fetch_add(1, std::memory_order_relaxed);
      conns_.erase(key);
      return;
    }
    counters_->tls_open.fetch_add(1, std::memory_order_relaxed);
  } else {
    key = conn.get();
    AddConn(std::move(conn), /*tls=*/false);
    auto status = net::TcpListener::AdoptHandlers(
        static_cast<net::TcpConnection&>(*key),
        [this, key](std::span<const uint8_t> data) { OnTcpData(key, data); },
        [this, key](Status) { CloseConn(key); });
    if (!status.ok()) {
      conns_.erase(key);
      return;
    }
  }
  counters_->accepted.fetch_add(1, std::memory_order_relaxed);
  counters_->open.store(conns_.size(), std::memory_order_relaxed);
  // The idle timer also reaps connections whose TLS handshake never
  // completes (last_activity only advances on decrypted query bytes).
  if (config_.tcp_idle_timeout > 0) ArmIdleTimer(key);
}

void ShardedDnsServer::Shard::AddConn(std::unique_ptr<net::StreamConn> conn,
                                      bool tls) {
  ConnState& state = conns_[conn.get()];
  state.conn = std::move(conn);
  state.tls = tls;
  state.last_activity = MonotonicNow();
  state.assembler.set_drop_counter(&counters_->framing_drops);
}

void ShardedDnsServer::Shard::OnTlsReady(net::StreamConn* key,
                                         Status status) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  if (!status.ok()) {
    counters_->tls_aborts.fetch_add(1, std::memory_order_relaxed);
    CloseConn(key);
    return;
  }
  auto* tls = static_cast<net::TlsConnection*>(key);
  counters_->tls_handshakes.fetch_add(1, std::memory_order_relaxed);
  if (tls->session_reused()) {
    counters_->tls_resumptions.fetch_add(1, std::memory_order_relaxed);
  }
  if (tls_handshake_hist_ != nullptr) {
    tls_handshake_hist_->Record(
        static_cast<uint64_t>(tls->handshake_duration()));
  }
  it->second.last_activity = MonotonicNow();
}

void ShardedDnsServer::Shard::OnTcpData(net::StreamConn* key,
                                        std::span<const uint8_t> data) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  ConnState& state = it->second;
  state.last_activity = MonotonicNow();

  if (!state.assembler.Feed(data).ok()) {
    CloseConn(key);
    return;
  }
  while (auto wire = state.assembler.NextMessage()) {
    auto responses = engine_->HandleStream(*wire, key->remote().addr);
    if (!responses.ok()) continue;
    for (const auto& response : *responses) {
      auto framed = dns::FrameMessage(response);
      if (!framed.ok()) continue;
      auto status = key->Send(*framed);
      if (!status.ok()) {
        CloseConn(key);
        return;
      }
    }
  }
}

void ShardedDnsServer::Shard::ArmIdleTimer(net::StreamConn* key) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  it->second.idle_timer = loop_->ScheduleAfter(
      config_.tcp_idle_timeout, [this, key]() {
        auto conn_it = conns_.find(key);
        if (conn_it == conns_.end()) return;
        NanoTime deadline =
            conn_it->second.last_activity + config_.tcp_idle_timeout;
        if (MonotonicNow() >= deadline) {
          counters_->idle_closed.fetch_add(1, std::memory_order_relaxed);
          CloseConn(key);
        } else {
          ArmIdleTimer(key);  // activity since arming: re-check later
        }
      });
}

void ShardedDnsServer::Shard::CloseConn(net::StreamConn* key) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  RemoveConn(it);  // destroys the connection (active close)
}

void ShardedDnsServer::Shard::RemoveConn(ConnMap::iterator it) {
  it->second.idle_timer.Cancel();
  if (it->second.tls) {
    counters_->tls_open.fetch_sub(1, std::memory_order_relaxed);
  }
  // Detach first and let `node` destroy the connection after the counters
  // are updated: destroying it closes the socket, and a client that sees
  // that EOF must not be able to read a stale `open` gauge.
  auto node = conns_.extract(it);
  counters_->open.store(conns_.size(), std::memory_order_relaxed);
  MaybeResumeAccept();
}

void ShardedDnsServer::Shard::PauseAccept() {
  if (listener_ != nullptr) listener_->Pause();
  if (tls_listener_ != nullptr) tls_listener_->Pause();
}

void ShardedDnsServer::Shard::MaybeResumeAccept() {
  if (config_.max_tcp_connections == 0) return;
  if (conns_.size() >= config_.max_tcp_connections) return;
  // Resume is a no-op on a listener that never paused.
  if (listener_ != nullptr) listener_->Resume();
  if (tls_listener_ != nullptr) tls_listener_->Resume();
}

ShardedDnsServer::ShardedDnsServer() = default;

Result<std::unique_ptr<ShardedDnsServer>> ShardedDnsServer::Start(
    std::shared_ptr<const zone::ViewTable> views, const Config& config) {
  size_t n_shards = config.n_shards;
  if (n_shards == 0) {
    n_shards = std::max(1u, std::thread::hardware_concurrency());
  }

  auto sharded = std::unique_ptr<ShardedDnsServer>(new ShardedDnsServer);
  if (config.serve_tls) {
    // One context for every shard: one certificate, one ticket key, so a
    // session issued by any shard resumes on whichever shard the kernel
    // hashes the reconnect to.
    LDP_ASSIGN_OR_RETURN(sharded->tls_ctx_, net::TlsContext::NewServer());
    if (config.metrics != nullptr) {
      // Process-wide OpenSSL live bytes (see TlsEnableMemoryAccounting);
      // registered once, not per shard — it is already a global sum.
      config.metrics->AddGaugeFn("tls.mem_bytes", [] {
        return static_cast<int64_t>(net::TlsAllocatedBytes());
      });
    }
  }
  Endpoint listen = config.listen;
  uint16_t tls_port = config.tls_port;
  for (size_t i = 0; i < n_shards; ++i) {
    LDP_ASSIGN_OR_RETURN(auto loop, net::EventLoop::Create());
    auto shard = std::make_unique<Shard>(config, std::move(loop), views,
                                         sharded->tls_ctx_.get());
    Status bound = shard->Bind(listen, tls_port, n_shards > 1);
    // Port 0: UDP picks the number and TCP must then take the same one,
    // which a live TCP socket may already hold. Try a fresh ephemeral
    // port a bounded number of times before giving up.
    for (int retry = 0; !bound.ok() && listen.port == 0 &&
                        retry < kEphemeralBindRetries;
         ++retry) {
      bound = shard->Bind(listen, tls_port, n_shards > 1);
    }
    LDP_RETURN_IF_ERROR(bound);
    if (i == 0) {
      // Shard 0 resolves port 0; the rest bind the concrete ports so
      // SO_REUSEPORT groups them onto the same addresses.
      sharded->endpoint_ = shard->endpoint();
      listen.port = sharded->endpoint_.port;
      if (config.serve_tls) {
        sharded->tls_endpoint_ = shard->tls_endpoint();
        tls_port = sharded->tls_endpoint_.port;
      }
    }
    sharded->shards_.push_back(std::move(shard));
  }

  // All shards bound: start the workers. Each loop is only touched by its
  // own thread from here on (Stop uses the thread-safe wakeup).
  for (auto& shard : sharded->shards_) shard->StartThread();
  return sharded;
}

ShardedDnsServer::~ShardedDnsServer() { Stop(); }

void ShardedDnsServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->RequestStop();
  for (auto& shard : shards_) shard->Join();
}

EngineStats ShardedDnsServer::TotalStats() const {
  EngineStats total;
  for (const auto& shard : shards_) total += shard->stats();
  return total;
}

std::vector<EngineStats> ShardedDnsServer::ShardStats() const {
  std::vector<EngineStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

TcpStats ShardedDnsServer::TotalTcpStats() const {
  TcpStats total;
  for (const auto& shard : shards_) total += shard->tcp_stats();
  return total;
}

std::vector<TcpStats> ShardedDnsServer::ShardTcpStats() const {
  std::vector<TcpStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->tcp_stats());
  return stats;
}

}  // namespace ldp::server
