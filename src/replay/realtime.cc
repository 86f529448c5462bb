#include "replay/realtime.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/log.h"
#include "dns/framing.h"
#include "net/sockets.h"
#include "net/tls.h"
#include "replay/queue.h"
#include "replay/sticky.h"
#include "replay/timing.h"
#include "stats/counters.h"
#include "stats/timeseries.h"

namespace ldp::replay {
namespace {

struct QueryJob {
  uint64_t trace_index;
  NanoTime trace_time;  // rebased: first query = 0
  trace::QueryRecord record;
  // Slot for this query's terminal outcome. Owned by the pipeline's
  // chunk storage, whose addresses are stable for the run, so queriers
  // write results through the pointer without ever sharing an index space
  // with the feeder.
  SendOutcome* outcome;
};

// Shared across all distributor threads; snapshotted into the report after
// they join. Held by shared_ptr so polled-metric lambdas registered in a
// caller-owned registry stay valid after the replay returns.
struct TransportCounters {
  stats::RelaxedCounter sent;
  stats::RelaxedCounter answered;
  stats::RelaxedCounter timed_out;
  stats::RelaxedCounter send_failed;
  stats::RelaxedCounter retransmits;
  stats::RelaxedCounter id_collisions;
  stats::RelaxedCounter tcp_reconnects;
  stats::RelaxedCounter tcp_idle_closes;
  stats::RelaxedCounter tls_handshakes;
  stats::RelaxedCounter tls_resumptions;
  stats::RelaxedCounter tls_aborts;
};

void RegisterTransportMetrics(stats::MetricsRegistry* metrics,
                              std::shared_ptr<TransportCounters> counters) {
  auto counter = [&](const char* name,
                     stats::RelaxedCounter TransportCounters::*field) {
    metrics->AddCounterFn(
        name, [counters, field] { return (counters.get()->*field).Get(); });
  };
  counter("replay.sent", &TransportCounters::sent);
  counter("replay.answered", &TransportCounters::answered);
  counter("replay.timed_out", &TransportCounters::timed_out);
  counter("replay.send_failed", &TransportCounters::send_failed);
  counter("replay.retransmits", &TransportCounters::retransmits);
  counter("replay.id_collisions", &TransportCounters::id_collisions);
  counter("replay.tcp_reconnects", &TransportCounters::tcp_reconnects);
  counter("replay.tcp_idle_closes", &TransportCounters::tcp_idle_closes);
  counter("replay.tls_handshakes", &TransportCounters::tls_handshakes);
  counter("replay.tls_resumptions", &TransportCounters::tls_resumptions);
  counter("replay.tls_aborts", &TransportCounters::tls_aborts);
}

// Per-querier live-metric instances (all nullptr when metrics are off).
// Each querier gets its own instances under shared names; the registry
// merges them at snapshot time, so recording never crosses threads.
struct QuerierMetrics {
  stats::LogHistogram* latency = nullptr;    // send→answer, ns
  stats::Gauge* inflight = nullptr;          // non-terminal tracked queries
  stats::LogHistogram* wheel_occupancy = nullptr;  // entries per tick
  stats::LogHistogram* tls_handshake = nullptr;    // client handshake, ns
};

// Stream connection identity. Without follow_trace_dst every target is
// config.server, so this degenerates to the historical per-source keying.
// `tls` separates a source's DoT connection from its plain-TCP one (a
// mixed trace may carry both protocols for the same source).
struct ConnKey {
  IpAddress source;
  Endpoint target;
  bool tls = false;
  bool operator==(const ConnKey&) const = default;
};

struct ConnKeyHash {
  size_t operator()(const ConnKey& key) const noexcept {
    uint64_t packed = (uint64_t{key.source.value()} << 32) |
                      (uint64_t{key.target.addr.value()} ^
                       (uint64_t{key.target.port} << 24));
    if (key.tls) packed ^= 0x9e3779b97f4a7c15ULL;
    return std::hash<uint64_t>()(packed);
  }
};

// Expiry-check cadence (and wheel slot granularity): fine enough that a
// timeout is detected within ~1/8 of its length, floored so short test
// timeouts do not busy-spin the loop.
NanoDuration WheelTickFor(NanoDuration query_timeout) {
  return std::clamp<NanoDuration>(query_timeout / 8, Millis(1), Millis(16));
}

// Where a query goes: the fixed server, or (hierarchy replay) the
// record's own destination, optionally aliased into 127/8 and repointed
// at the proxy's shared service port.
Endpoint TargetFor(const RealtimeConfig& config,
                   const trace::QueryRecord& record) {
  if (!config.follow_trace_dst) return config.server;
  Endpoint target{record.dst, record.dst_port};
  if (config.loopback_alias_dst) target.addr = LoopbackAlias(target.addr);
  if (config.dst_port_override != 0) target.port = config.dst_port_override;
  return target;
}

// A querier's ledger. Whichever lane carries a query, it reaches exactly
// one terminal outcome here. The ledger keeps the outcome counters, the
// inflight gauge and the latency histogram, and fires on_idle when the
// last live query goes terminal.
class Ledger {
 public:
  Ledger(TransportCounters& counters, QuerierMetrics metrics)
      : counters_(counters), metrics_(metrics) {}

  TransportCounters& counters() { return counters_; }
  const QuerierMetrics& metrics() const { return metrics_; }
  void set_on_idle(std::function<void()> on_idle) {
    on_idle_ = std::move(on_idle);
  }
  bool idle() const { return live_ == 0; }

  // Every accepted query raises the live count and the inflight gauge
  // here; its terminal transition lowers both, so failure paths that go
  // terminal at once still balance.
  void Accept(const QueryJob& job, NanoTime epoch_mono) {
    epoch_mono_ = epoch_mono;  // reply timestamps share the send epoch
    job.outcome->trace_index = job.trace_index;
    job.outcome->trace_time = job.trace_time;
    ++live_;
    if (metrics_.inflight != nullptr) metrics_.inflight->Add(1);
  }

  void MarkSent(SendOutcome* slot) const {
    slot->sent = MonotonicNow() - epoch_mono_;
  }

  void Terminal(SendOutcome* slot, SendOutcome::State state) {
    if (slot->state != SendOutcome::State::kPending) return;
    slot->state = state;
    if (state == SendOutcome::State::kTimedOut) {
      counters_.timed_out.Add();
    } else if (state == SendOutcome::State::kSendFailed) {
      counters_.send_failed.Add();
    }
    Settle();
  }

  void RecordAnswer(SendOutcome* slot) {
    if (slot->state != SendOutcome::State::kPending) return;
    slot->state = SendOutcome::State::kAnswered;
    slot->replied = MonotonicNow() - epoch_mono_;
    counters_.answered.Add();
    if (metrics_.latency != nullptr && slot->replied > slot->sent) {
      metrics_.latency->Record(
          static_cast<uint64_t>(slot->replied - slot->sent));
    }
    Settle();
  }

 private:
  void Settle() {
    if (metrics_.inflight != nullptr) metrics_.inflight->Add(-1);
    if (--live_ == 0 && on_idle_) on_idle_();
  }

  TransportCounters& counters_;
  QuerierMetrics metrics_;
  std::function<void()> on_idle_;
  size_t live_ = 0;
  NanoTime epoch_mono_ = 0;
};

// The datagram lane: one DatagramPath (a UDP socket or an AF_PACKET ring),
// one 16-bit ID space, and a timeout wheel keyed by that ID. Queries are
// staged and leave in one SendBatch per scheduling point; a retransmit
// re-sends its single datagram.
class DatagramLane {
 public:
  DatagramLane(net::EventLoop& loop, const RealtimeConfig& config,
               Ledger& ledger)
      : loop_(loop),
        config_(config),
        ledger_(ledger),
        wheel_(WheelTickFor(config.query_timeout), 512) {}

  Status Open() {
    net::DatapathOptions options;
    options.kind = config_.datapath;
    options.afpacket = config_.afpacket;
    options.metrics = config_.metrics;
    LDP_ASSIGN_OR_RETURN(
        path_, net::DatagramPath::Open(
                   loop_, Endpoint{config_.local_addr, 0},
                   [this](std::span<const net::DatagramPath::RecvItem> batch) {
                     for (const auto& item : batch) OnReply(item.payload);
                   },
                   options));
    return Status::Ok();
  }

  void Send(const QueryJob& job, dns::Message& query) {
    bool collided = false;
    auto id = AllocateQueryId(next_id_, inflight_, &collided);
    if (collided || !id) ledger_.counters().id_collisions.Add();
    if (!id) {
      // All 65536 IDs inflight: this query cannot be matched to a reply.
      ledger_.Terminal(job.outcome, SendOutcome::State::kSendFailed);
      return;
    }
    query.id = *id;
    inflight_.emplace(*id, Entry{.outcome = job.outcome,
                                 .wire = query.Encode(),
                                 .target = TargetFor(config_, job.record)});
    ledger_.MarkSent(job.outcome);
    ScheduleTimeout(*id, /*tries=*/0);
    staged_.push_back(*id);
    if (staged_.size() >= net::DatagramPath::kBatchSize) Flush();
  }

  // Pushes all staged queries to the kernel with one SendBatch. The
  // distributor calls this at every scheduling point (end of a queue
  // drain, each timer dispatch), so batching never delays a scheduled
  // send past its loop iteration.
  void Flush() {
    if (staged_.empty()) return;
    items_.clear();
    live_ids_.clear();
    for (uint16_t id : staged_) {
      auto it = inflight_.find(id);
      if (it == inflight_.end()) continue;  // aged out while staged
      items_.push_back(
          net::DatagramPath::SendItem{it->second.wire, it->second.target});
      live_ids_.push_back(id);
    }
    size_t accepted = items_.empty() ? 0 : path_->SendBatch(items_);
    for (size_t i = 0; i < accepted; ++i) {
      inflight_[live_ids_[i]].on_wire = true;
    }
    if (accepted == live_ids_.size()) {
      staged_.clear();
      flush_retries_ = 0;
      return;
    }
    // Kernel send buffer full: re-stage the unsent tail and retry shortly
    // with backoff instead of silently dropping it.
    staged_.assign(live_ids_.begin() + static_cast<ptrdiff_t>(accepted),
                   live_ids_.end());
    if (++flush_retries_ > kMaxFlushRetries) {
      LDP_DEBUG << "UDP flush: giving up on " << staged_.size()
                << " staged queries after " << kMaxFlushRetries << " retries";
      for (uint16_t id : staged_) {
        auto it = inflight_.find(id);
        if (it == inflight_.end()) continue;
        wheel_.Cancel(id);
        ledger_.Terminal(it->second.outcome, SendOutcome::State::kSendFailed);
        inflight_.erase(it);
      }
      staged_.clear();
      flush_retries_ = 0;
      return;
    }
    ArmFlushRetry();
  }

  void Expire(NanoTime now) {
    expired_.clear();
    wheel_.Advance(now, expired_);
    for (uint64_t key : expired_) ExpireOne(static_cast<uint16_t>(key));
  }

  size_t timers() const { return wheel_.size(); }

 private:
  static constexpr int kMaxFlushRetries = 10;

  struct Entry {
    SendOutcome* outcome = nullptr;
    Bytes wire;            // encoded query, kept for retransmits
    Endpoint target;       // destination (kept so retransmits follow it)
    int tries = 0;         // retransmits performed
    bool on_wire = false;  // accepted by the kernel at least once
  };

  // Retry k waits query_timeout << k (exponential backoff); the shift is
  // clamped so a large retransmit budget cannot overflow int64 ns.
  void ScheduleTimeout(uint16_t id, int tries) {
    wheel_.Schedule(id, MonotonicNow() +
                            (config_.query_timeout << std::min(tries, 10)));
  }

  void ExpireOne(uint16_t id) {
    auto it = inflight_.find(id);
    if (it == inflight_.end()) return;
    Entry& entry = it->second;
    if (!entry.on_wire) {
      // Never accepted by the kernel within a full timeout: send-failed,
      // not timed-out — the server never saw it.
      ledger_.Terminal(entry.outcome, SendOutcome::State::kSendFailed);
      inflight_.erase(it);
      return;
    }
    if (entry.tries < config_.max_retransmits) {
      ++entry.tries;
      entry.outcome->retransmits =
          static_cast<uint8_t>(std::min(entry.tries, 255));
      ledger_.counters().retransmits.Add();
      auto status = path_->SendTo(entry.wire, entry.target);
      (void)status;  // a full buffer just leaves it to the next expiry
      ScheduleTimeout(id, entry.tries);
      return;
    }
    ledger_.Terminal(entry.outcome, SendOutcome::State::kTimedOut);
    inflight_.erase(it);
  }

  void ArmFlushRetry() {
    if (flush_retry_armed_) return;
    flush_retry_armed_ = true;
    NanoDuration delay = std::min<NanoDuration>(
        Millis(1) << std::min(flush_retries_, 4), Millis(16));
    loop_.ScheduleAfter(delay, [this]() {
      flush_retry_armed_ = false;
      Flush();
    });
  }

  void OnReply(std::span<const uint8_t> payload) {
    if (payload.size() < 2) return;
    uint16_t id = static_cast<uint16_t>((payload[0] << 8) | payload[1]);
    auto it = inflight_.find(id);
    if (it == inflight_.end()) return;  // late reply after age-out
    ledger_.RecordAnswer(it->second.outcome);
    wheel_.Cancel(id);
    inflight_.erase(it);
  }

  net::EventLoop& loop_;
  const RealtimeConfig& config_;
  Ledger& ledger_;
  std::unique_ptr<net::DatagramPath> path_;
  std::unordered_map<uint16_t, Entry> inflight_;
  uint16_t next_id_ = 1;
  // Staged IDs awaiting the batch flush; wire bytes live in inflight_
  // (unordered_map references are rehash-stable).
  std::vector<uint16_t> staged_;
  std::vector<net::DatagramPath::SendItem> items_;
  std::vector<uint16_t> live_ids_;
  int flush_retries_ = 0;
  bool flush_retry_armed_ = false;
  TimerWheel wheel_;
  std::vector<uint64_t> expired_;
};

// The stream lane: one connection per ConnKey over net::StreamConn. Plain
// TCP and DoT differ only at dial time (Connect) and in the handshake
// counters. Each connection has its own 16-bit ID space and a backlog of
// frames it cannot write yet (connecting, paused by the write watermark,
// or awaiting a reconnect). A stream that dies owing queries re-queues
// them and redials within the reconnect budget. The lane's wheel keys
// pack the connection's index above the query ID.
//
// Connection callbacks capture the ConnKey, never Conn* or StreamConn*:
// state is re-looked-up through conns_, so a state disposed between
// scheduling and firing is simply not found. Dead streams and states are
// moved to a graveyard and destroyed on the next loop iteration:
// destroying them in place would free the stream whose callback is
// currently executing.
class StreamLane {
 public:
  StreamLane(net::EventLoop& loop, const RealtimeConfig& config,
             Ledger& ledger)
      : loop_(loop),
        config_(config),
        ledger_(ledger),
        wheel_(WheelTickFor(config.query_timeout), 512) {}

  void Send(const QueryJob& job, dns::Message& query) {
    bool tls = job.record.protocol == trace::Protocol::kTls;
    if (tls && !net::TlsAvailable()) {
      if (!warned_no_tls_) {
        warned_no_tls_ = true;
        LDP_WARN << "trace carries TLS queries but this build has no "
                    "OpenSSL; counting them as send_failed";
      }
      ledger_.counters().tls_aborts.Add();
      ledger_.Terminal(job.outcome, SendOutcome::State::kSendFailed);
      return;
    }
    Endpoint target = TargetFor(config_, job.record);
    if (tls && config_.tls_port != 0) target.port = config_.tls_port;
    ConnKey key{job.record.src, target, tls};
    auto it = conns_.find(key);
    if (it == conns_.end()) {
      auto conn = std::make_unique<Conn>();
      conn->key = key;
      conn->index = next_index_++;
      by_index_.emplace(conn->index, conn.get());
      it = conns_.emplace(key, std::move(conn)).first;
      Dial(*it->second);
      // A synchronous dial failure may already have disposed the state.
      it = conns_.find(key);
      if (it == conns_.end()) {
        ledger_.Terminal(job.outcome, SendOutcome::State::kSendFailed);
        return;
      }
    }
    Conn& conn = *it->second;

    bool collided = false;
    auto id = AllocateQueryId(conn.next_id, conn.inflight, &collided);
    if (collided) ledger_.counters().id_collisions.Add();
    if (!id) {
      ledger_.Terminal(job.outcome, SendOutcome::State::kSendFailed);
      return;
    }
    query.id = *id;
    auto frame = dns::FrameMessage(query.Encode());
    if (!frame.ok()) {
      ledger_.Terminal(job.outcome, SendOutcome::State::kSendFailed);
      return;
    }
    conn.inflight.emplace(
        *id, Conn::Entry{.outcome = job.outcome, .frame = std::move(*frame)});
    ledger_.MarkSent(job.outcome);
    wheel_.Schedule(TimerKey(conn, *id),
                    MonotonicNow() + config_.query_timeout);
    if (conn.connected && !conn.paused && conn.backlog.empty() &&
        WriteFrame(conn, *id)) {
      return;
    }
    conn.backlog.push_back(*id);
  }

  void Expire(NanoTime now) {
    expired_.clear();
    wheel_.Advance(now, expired_);
    for (uint64_t key : expired_) {
      auto indexed = by_index_.find(static_cast<uint32_t>(key >> 16));
      if (indexed == by_index_.end()) continue;
      Conn& conn = *indexed->second;
      auto entry = conn.inflight.find(static_cast<uint16_t>(key));
      if (entry == conn.inflight.end()) continue;
      // on_wire distinguishes "written to a stream, no answer" (timed
      // out) from "still waiting in a backlog, never delivered"
      // (send-failed).
      ledger_.Terminal(entry->second.outcome,
                       entry->second.on_wire
                           ? SendOutcome::State::kTimedOut
                           : SendOutcome::State::kSendFailed);
      conn.inflight.erase(entry);
      // The backlog may still hold the ID; WriteFrame skips missing ones.
    }
  }

  size_t timers() const { return wheel_.size(); }

 private:
  struct Conn {
    ConnKey key;
    uint32_t index = 0;  // upper bits of this connection's wheel keys
    std::unique_ptr<net::StreamConn> stream;
    dns::StreamAssembler assembler;
    bool connected = false;
    bool paused = false;   // write-watermark backpressure
    int attempts = 0;      // reconnect budget used; reset by a reply
    NanoTime last_activity = 0;
    net::TimerHandle idle_timer;
    net::TimerHandle reconnect_timer;
    uint16_t next_id = 1;
    struct Entry {
      SendOutcome* outcome = nullptr;
      Bytes frame;  // length-prefixed wire form, kept for redelivery
      bool on_wire = false;
    };
    std::unordered_map<uint16_t, Entry> inflight;
    // IDs awaiting connect completion, watermark resume, or reconnect;
    // always a subset of inflight's keys.
    std::deque<uint16_t> backlog;
  };

  static uint64_t TimerKey(const Conn& conn, uint16_t id) {
    return (uint64_t{conn.index} << 16) | id;
  }

  void Dial(Conn& conn) {
    ConnKey key = conn.key;
    BuryStream(conn);  // re-dial: the previous stream (if any) is dead
    conn.connected = false;
    conn.paused = false;
    conn.assembler = dns::StreamAssembler();  // new stream, new framing
    auto stream = Connect(
        key,
        [this, key](Status status) { OnConnected(key, std::move(status)); },
        [this, key](std::span<const uint8_t> data) {
          auto it = conns_.find(key);
          if (it != conns_.end()) OnData(*it->second, data);
        },
        [this, key](Status reason) { OnClosed(key, std::move(reason)); });
    if (!stream.ok()) {
      RetryOrFail(conn);
      return;
    }
    conn.stream = std::move(*stream);
    conn.stream->SetWriteWatermarks(
        config_.tcp_write_high_watermark, config_.tcp_write_low_watermark,
        [this, key](bool paused) { OnWatermark(key, paused); });
  }

  // TCP and DoT differ only here. A querier keeps one TLS client context:
  // its session cache makes every re-dial to an endpoint a resumption
  // candidate, and sticky same-source assignment keeps a source's
  // reconnects on this cache.
  Result<std::unique_ptr<net::StreamConn>> Connect(
      const ConnKey& key, net::StreamConn::ConnectHandler on_ready,
      net::StreamConn::DataHandler on_data,
      net::StreamConn::CloseHandler on_close) {
    if (!key.tls) {
      LDP_ASSIGN_OR_RETURN(
          auto tcp, net::TcpConnection::Connect(
                        loop_, key.target, std::move(on_ready),
                        std::move(on_data), std::move(on_close)));
      return std::unique_ptr<net::StreamConn>(std::move(tcp));
    }
    if (tls_ctx_ == nullptr) {
      LDP_ASSIGN_OR_RETURN(tls_ctx_, net::TlsContext::NewClient());
    }
    LDP_ASSIGN_OR_RETURN(
        auto tls, net::TlsConnection::Connect(
                      loop_, *tls_ctx_, key.target, std::move(on_ready),
                      std::move(on_data), std::move(on_close)));
    return std::unique_ptr<net::StreamConn>(std::move(tls));
  }

  // For DoT this fires at handshake completion, not TCP establishment —
  // `connected` means "ready to carry queries" either way.
  void OnConnected(ConnKey key, Status status) {
    auto it = conns_.find(key);
    if (it == conns_.end()) return;
    Conn& conn = *it->second;
    if (!status.ok()) {
      if (key.tls) ledger_.counters().tls_aborts.Add();
      BuryStream(conn);
      RetryOrFail(conn);
      return;
    }
    if (key.tls && conn.stream != nullptr) {
      const auto& tls = static_cast<const net::TlsConnection&>(*conn.stream);
      ledger_.counters().tls_handshakes.Add();
      if (tls.session_reused()) ledger_.counters().tls_resumptions.Add();
      if (ledger_.metrics().tls_handshake != nullptr) {
        ledger_.metrics().tls_handshake->Record(
            static_cast<uint64_t>(tls.handshake_duration()));
      }
    }
    conn.connected = true;
    conn.last_activity = MonotonicNow();
    ArmIdleTimer(conn);
    DrainBacklog(conn);
  }

  void OnClosed(ConnKey key, Status reason) {
    (void)reason;  // Ok = peer EOF, error = reset; both re-queue the same way
    auto it = conns_.find(key);
    if (it == conns_.end()) return;
    Conn& conn = *it->second;
    conn.connected = false;
    BuryStream(conn);
    conn.idle_timer.Cancel();
    if (conn.inflight.empty()) {
      // Nothing owed (e.g. the server idle-closed us): dispose; the next
      // query for this source dials fresh.
      Dispose(key);
      return;
    }
    RetryOrFail(conn);
  }

  void OnWatermark(ConnKey key, bool paused) {
    auto it = conns_.find(key);
    if (it == conns_.end()) return;
    it->second->paused = paused;
    if (!paused) DrainBacklog(*it->second);
  }

  // Re-queues every inflight frame and schedules a reconnect, or fails the
  // whole connection when the budget is spent.
  void RetryOrFail(Conn& conn) {
    conn.connected = false;
    if (conn.attempts >= config_.tcp_max_reconnects) {
      Fail(conn.key);
      return;
    }
    // Everything written may have died with the stream: rebuild the
    // backlog (in trace order) so the next connection redelivers it.
    std::vector<uint16_t> ids;
    ids.reserve(conn.inflight.size());
    for (auto& [id, entry] : conn.inflight) {
      entry.on_wire = false;
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(), [&conn](uint16_t a, uint16_t b) {
      return conn.inflight[a].outcome->trace_index <
             conn.inflight[b].outcome->trace_index;
    });
    conn.backlog.assign(ids.begin(), ids.end());

    NanoDuration delay = config_.tcp_reconnect_backoff
                         << std::min(conn.attempts, 10);
    ++conn.attempts;
    ledger_.counters().tcp_reconnects.Add();
    ConnKey key = conn.key;
    conn.reconnect_timer = loop_.ScheduleAfter(delay, [this, key]() {
      auto it = conns_.find(key);
      if (it != conns_.end()) Dial(*it->second);
    });
  }

  void Fail(ConnKey key) {
    auto it = conns_.find(key);
    if (it == conns_.end()) return;
    Conn& conn = *it->second;
    for (auto& [id, entry] : conn.inflight) {
      wheel_.Cancel(TimerKey(conn, id));
      ledger_.Terminal(entry.outcome, SendOutcome::State::kSendFailed);
    }
    conn.inflight.clear();
    Dispose(key);
  }

  void Dispose(ConnKey key) {
    auto it = conns_.find(key);
    if (it == conns_.end()) return;
    it->second->idle_timer.Cancel();
    it->second->reconnect_timer.Cancel();
    by_index_.erase(it->second->index);
    BuryStream(*it->second);
    graveyard_conns_.push_back(std::move(it->second));
    conns_.erase(it);
    ArmSweep();
  }

  void BuryStream(Conn& conn) {
    if (conn.stream == nullptr) return;
    graveyard_streams_.push_back(std::move(conn.stream));
    ArmSweep();
  }

  void ArmSweep() {
    if (sweep_armed_) return;
    sweep_armed_ = true;
    // Destroy on the next loop pass: the buried stream may be the one
    // whose callback is executing right now.
    loop_.ScheduleAfter(0, [this]() {
      sweep_armed_ = false;
      graveyard_streams_.clear();
      graveyard_conns_.clear();
    });
  }

  bool WriteFrame(Conn& conn, uint16_t id) {
    auto it = conn.inflight.find(id);
    if (it == conn.inflight.end()) return true;  // aged out meanwhile
    auto status = conn.stream->Send(it->second.frame);
    if (!status.ok()) return false;  // stream dying; close event re-queues
    it->second.on_wire = true;
    conn.last_activity = MonotonicNow();
    return true;
  }

  void DrainBacklog(Conn& conn) {
    while (!conn.backlog.empty() && conn.connected && !conn.paused) {
      if (!WriteFrame(conn, conn.backlog.front())) break;
      conn.backlog.pop_front();
    }
  }

  // Client-side idle closure: with nothing inflight and no activity for
  // tcp_idle_timeout, close; the next query for this key dials fresh.
  void ArmIdleTimer(Conn& conn) {
    if (config_.tcp_idle_timeout <= 0) return;
    ConnKey key = conn.key;
    conn.idle_timer =
        loop_.ScheduleAfter(config_.tcp_idle_timeout, [this, key]() {
          auto it = conns_.find(key);
          if (it == conns_.end() || !it->second->connected) return;
          Conn& conn = *it->second;
          NanoTime deadline = conn.last_activity + config_.tcp_idle_timeout;
          if (MonotonicNow() >= deadline && conn.inflight.empty()) {
            ledger_.counters().tcp_idle_closes.Add();
            Dispose(key);  // active close: destruction sends FIN
            return;
          }
          ArmIdleTimer(conn);  // activity since arming: re-check later
        });
  }

  void OnData(Conn& conn, std::span<const uint8_t> data) {
    conn.last_activity = MonotonicNow();
    if (!conn.assembler.Feed(data).ok()) return;
    while (auto wire = conn.assembler.NextMessage()) {
      if (wire->size() < 2) continue;
      uint16_t id = static_cast<uint16_t>(((*wire)[0] << 8) | (*wire)[1]);
      auto it = conn.inflight.find(id);
      if (it == conn.inflight.end()) continue;
      ledger_.RecordAnswer(it->second.outcome);
      wheel_.Cancel(TimerKey(conn, id));
      conn.inflight.erase(it);
      conn.attempts = 0;  // a live reply refills the reconnect budget
    }
  }

  net::EventLoop& loop_;
  const RealtimeConfig& config_;
  Ledger& ledger_;
  std::unordered_map<ConnKey, std::unique_ptr<Conn>, ConnKeyHash> conns_;
  // index -> connection, for decoding wheel expiries.
  std::unordered_map<uint32_t, Conn*> by_index_;
  uint32_t next_index_ = 1;
  std::vector<std::unique_ptr<net::StreamConn>> graveyard_streams_;
  std::vector<std::unique_ptr<Conn>> graveyard_conns_;
  bool sweep_armed_ = false;
  // Created on the first DoT dial; holds the client session cache.
  std::unique_ptr<net::TlsContext> tls_ctx_;
  bool warned_no_tls_ = false;
  TimerWheel wheel_;
  std::vector<uint64_t> expired_;
};

// One logical querier (paper §2.6). The core hands each query to the lane
// its protocol names, advances both lanes' timeout wheels from one tick,
// and owns the ledger whose idle rule lets the distributor finish. Every
// live query holds one entry in its lane's wheel until it goes terminal,
// so the tick runs exactly while the ledger is not idle.
class Querier {
 public:
  // The lanes keep a reference to `config`: it must outlive the querier
  // (the distributor passes its own copy).
  Querier(net::EventLoop& loop, const RealtimeConfig& config,
          TransportCounters& counters, QuerierMetrics metrics)
      : loop_(loop),
        tick_interval_(WheelTickFor(config.query_timeout)),
        ledger_(counters, metrics),
        datagram_(loop, config, ledger_),
        stream_(loop, config, ledger_) {}

  Status Init() { return datagram_.Open(); }

  // Fires whenever the querier has just gone idle; the distributor uses it
  // to detect that every outcome is terminal and stop the loop.
  void set_on_idle(std::function<void()> on_idle) {
    ledger_.set_on_idle(std::move(on_idle));
  }
  bool idle() const { return ledger_.idle(); }

  void Send(const QueryJob& job, NanoTime epoch_mono) {
    ledger_.Accept(job, epoch_mono);
    dns::Message query = job.record.ToMessage();
    if (job.record.protocol == trace::Protocol::kUdp) {
      datagram_.Send(job, query);
    } else {
      stream_.Send(job, query);
    }
    ArmTick();
  }

  void Flush() { datagram_.Flush(); }

 private:
  void ArmTick() {
    if (tick_armed_ || ledger_.idle()) return;
    tick_armed_ = true;
    loop_.ScheduleAfter(tick_interval_, [this]() { OnTick(); });
  }

  void OnTick() {
    tick_armed_ = false;
    if (ledger_.metrics().wheel_occupancy != nullptr) {
      ledger_.metrics().wheel_occupancy->Record(datagram_.timers() +
                                                stream_.timers());
    }
    NanoTime now = MonotonicNow();
    datagram_.Expire(now);
    stream_.Expire(now);
    ArmTick();
  }

  net::EventLoop& loop_;
  NanoDuration tick_interval_;
  Ledger ledger_;
  DatagramLane datagram_;
  StreamLane stream_;
  bool tick_armed_ = false;
};

// A distributor thread: event loop + sticky querier assignment + the
// ΔT scheduler.
class Distributor {
 public:
  Distributor(const RealtimeConfig& config, NanoTime trace_epoch_rebased,
              NanoTime epoch_mono, TransportCounters& counters, uint64_t seed,
              stats::MetricsSnapshotter* snapshotter,
              std::atomic<size_t>* finished)
      : config_(config),
        epoch_mono_(epoch_mono),
        counters_(counters),
        snapshotter_(snapshotter),
        finished_(finished),
        assigner_(config.queriers_per_distributor, seed) {
    scheduler_.Synchronize(trace_epoch_rebased, epoch_mono);
  }

  NotifyQueue<QueryJob>& queue() { return queue_; }

  void Start() {
    thread_ = std::thread([this]() { ThreadMain(); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  Status status() const { return status_; }

 private:
  void ThreadMain() {
    // Every exit path (including setup errors) must count the thread as
    // finished, or the pipeline's Done() would never flip.
    struct FinishedMark {
      std::atomic<size_t>* finished;
      ~FinishedMark() { finished->fetch_add(1, std::memory_order_release); }
    } mark{finished_};
    auto loop = net::EventLoop::Create();
    if (!loop.ok()) {
      status_ = loop.error();
      return;
    }
    loop_ = std::move(*loop);
    if (config_.metrics != nullptr) {
      loop_->SetMetrics(config_.metrics->AddHistogram("replay.loop_lag_ns"),
                        config_.metrics->AddHistogram("replay.epoll_batch"));
    }

    for (size_t i = 0; i < config_.queriers_per_distributor; ++i) {
      QuerierMetrics qm;
      if (config_.metrics != nullptr) {
        qm.latency = config_.metrics->AddHistogram("replay.latency_ns");
        qm.inflight = config_.metrics->AddGauge("replay.inflight");
        qm.wheel_occupancy =
            config_.metrics->AddHistogram("replay.wheel_occupancy");
        qm.tls_handshake =
            config_.metrics->AddHistogram("replay.tls_handshake_ns");
      }
      queriers_.push_back(
          std::make_unique<Querier>(*loop_, config_, counters_, qm));
      auto status = queriers_.back()->Init();
      if (!status.ok()) {
        status_ = status;
        return;
      }
      queriers_.back()->set_on_idle([this]() { MaybeFinish(); });
    }

    auto status = loop_->Add(queue_.event_fd(), true, false,
                             [this](net::IoEvents) { OnQueue(); });
    if (!status.ok()) {
      status_ = status;
      return;
    }
    if (snapshotter_ != nullptr) ArmSnapshot();
    loop_->Run();
  }

  // Periodic JSONL rows from this loop thread; the chain dies with the
  // loop (a stopped loop never fires the re-armed timer).
  void ArmSnapshot() {
    loop_->ScheduleAfter(snapshotter_->interval(), [this]() {
      snapshotter_->WriteNow();
      ArmSnapshot();
    });
  }

  void OnQueue() {
    auto drained = queue_.Drain();
    for (auto& job : drained.items) {
      ++outstanding_;
      if (config_.fast_mode) {
        fast_backlog_.push_back(std::move(job));
        continue;
      }
      size_t querier = assigner_.Assign(job.record.src);
      NanoDuration delay = scheduler_.DelayFor(
          job.trace_time, MonotonicNow());
      if (delay <= 0) {
        Dispatch(querier, std::move(job));
      } else {
        loop_->ScheduleAfter(delay,
                             [this, querier, job = std::move(job)]() {
                               Dispatch(querier, job);
                               queriers_[querier]->Flush();
                             });
      }
    }
    if (drained.closed) input_closed_ = true;
    if (config_.fast_mode) {
      PumpFastBacklog();
      return;
    }
    // One sendmmsg per querier covers everything dispatched this drain.
    for (auto& querier : queriers_) querier->Flush();
    MaybeFinish();
  }

  // Fast mode sends in bounded chunks, yielding to the event loop between
  // them. Dispatching a large drained batch monolithically would starve
  // socket reads (and timers) for the whole burst: replies pile up unread
  // in the kernel buffer until the timer wheel has already expired their
  // inflight entries, manufacturing timeouts for queries that were in fact
  // answered.
  void PumpFastBacklog() {
    if (fast_pump_armed_) return;
    size_t n = std::min(fast_backlog_.size(), kFastChunk);
    for (size_t i = 0; i < n; ++i) {
      QueryJob job = std::move(fast_backlog_.front());
      fast_backlog_.pop_front();
      Dispatch(assigner_.Assign(job.record.src), job);
    }
    for (auto& querier : queriers_) querier->Flush();
    if (!fast_backlog_.empty()) {
      fast_pump_armed_ = true;
      loop_->ScheduleAfter(0, [this]() {
        fast_pump_armed_ = false;
        PumpFastBacklog();
      });
      return;
    }
    MaybeFinish();
  }

  void Dispatch(size_t querier, const QueryJob& job) {
    queriers_[querier]->Send(job, epoch_mono_);
    counters_.sent.Add();
    --outstanding_;
    MaybeFinish();
  }

  // Timeouts make every outcome terminal: stop the instant all queriers
  // are idle — there is nothing left to wait for.
  void MaybeFinish() {
    if (!input_closed_ || outstanding_ != 0 || stopping_) return;
    for (auto& querier : queriers_) {
      if (!querier->idle()) return;
    }
    stopping_ = true;
    loop_->Stop();
  }

  RealtimeConfig config_;
  NanoTime epoch_mono_;
  TransportCounters& counters_;
  stats::MetricsSnapshotter* snapshotter_;
  std::atomic<size_t>* finished_;
  StickyAssigner assigner_;
  ReplayScheduler scheduler_;
  NotifyQueue<QueryJob> queue_;
  std::unique_ptr<net::EventLoop> loop_;
  std::vector<std::unique_ptr<Querier>> queriers_;
  std::thread thread_;
  Status status_;
  size_t outstanding_ = 0;
  bool input_closed_ = false;
  bool stopping_ = false;
  static constexpr size_t kFastChunk = 256;
  std::deque<QueryJob> fast_backlog_;
  bool fast_pump_armed_ = false;
};

}  // namespace

std::vector<double> RealtimeReport::TimingErrorsMs(size_t skip_first) const {
  std::vector<double> errors;
  // Baseline: the first query that actually reached the wire anchors both
  // clocks. (Anchoring on a never-sent record would fold its bogus zero
  // send time into every error.)
  const SendOutcome* first = nullptr;
  for (const auto& send : sends) {
    if (send.sent != 0 && send.state != SendOutcome::State::kSendFailed) {
      first = &send;
      break;
    }
  }
  if (first == nullptr) return errors;
  for (size_t i = 0; i < sends.size(); ++i) {
    if (i < skip_first) continue;
    const auto& send = sends[i];
    if (send.sent == 0 || send.state == SendOutcome::State::kSendFailed) {
      continue;  // never reached the wire: no replay time to compare
    }
    double replay_offset = ToMillis(send.sent - first->sent);
    double trace_offset = ToMillis(send.trace_time - first->trace_time);
    errors.push_back(replay_offset - trace_offset);
  }
  return errors;
}

std::vector<double> RealtimeReport::ReplayInterarrivalsS() const {
  std::vector<NanoTime> times;
  times.reserve(sends.size());
  for (const auto& send : sends) {
    if (send.sent == 0 || send.state == SendOutcome::State::kSendFailed) {
      continue;  // unsent records have no arrival to measure
    }
    times.push_back(send.sent);
  }
  std::sort(times.begin(), times.end());
  std::vector<double> gaps;
  gaps.reserve(times.size());
  for (size_t i = 1; i < times.size(); ++i) {
    gaps.push_back(ToSeconds(times[i] - times[i - 1]));
  }
  return gaps;
}

std::vector<double> RealtimeReport::RateErrors() const {
  stats::RateCounter original, replayed;
  for (const auto& send : sends) {
    original.Record(send.trace_time);
    if (send.sent == 0 || send.state == SendOutcome::State::kSendFailed) {
      continue;  // lost queries depress the replayed rate; they are not in it
    }
    replayed.Record(send.sent);
  }
  auto orig = original.BucketCounts();
  auto replay = replayed.BucketCounts();
  std::vector<double> errors;
  size_t n = std::min(orig.size(), replay.size());
  for (size_t i = 0; i < n; ++i) {
    if (orig[i] == 0) continue;
    errors.push_back((static_cast<double>(replay[i]) -
                      static_cast<double>(orig[i])) /
                     static_cast<double>(orig[i]));
  }
  return errors;
}

struct ReplayPipeline::Impl {
  explicit Impl(const RealtimeConfig& c)
      : config(c),
        postman(c.n_distributors, c.seed),
        batches(c.n_distributors) {}

  RealtimeConfig config;
  NanoTime epoch_mono = 0;
  NanoTime trace_epoch = 0;
  NanoTime wall_start = 0;
  std::shared_ptr<TransportCounters> counters;
  // Postman: sticky same-source assignment of queries to distributors.
  StickyAssigner postman;
  std::vector<std::unique_ptr<Distributor>> distributors;
  std::atomic<size_t> finished{0};
  // Outcome slots, one vector per Feed call. A deque of vectors never
  // moves an existing chunk when a new one is appended, so the outcome
  // pointers handed to distributor threads stay valid while the feeder
  // keeps feeding. Only the feeder thread touches the deque itself.
  std::deque<std::vector<SendOutcome>> chunks;
  std::vector<std::vector<QueryJob>> batches;
  uint64_t fed = 0;
  bool input_closed = false;
  bool joined = false;
};

Result<std::unique_ptr<ReplayPipeline>> ReplayPipeline::Start(
    const RealtimeConfig& config, NanoTime epoch_mono, NanoTime trace_epoch) {
  if (config.n_distributors == 0 || config.queriers_per_distributor == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "need at least one distributor and querier");
  }
  if (config.query_timeout <= 0) {
    return Error(ErrorCode::kInvalidArgument, "query_timeout must be > 0");
  }
  auto pipeline = std::unique_ptr<ReplayPipeline>(new ReplayPipeline());
  pipeline->impl_ = std::make_unique<Impl>(config);
  Impl& impl = *pipeline->impl_;
  impl.epoch_mono = epoch_mono;
  impl.trace_epoch = trace_epoch;
  impl.counters = std::make_shared<TransportCounters>();
  if (config.metrics != nullptr) {
    RegisterTransportMetrics(config.metrics, impl.counters);
  }
  // Distributor 0 drives the snapshotter so rows come from exactly one
  // thread.
  for (size_t i = 0; i < config.n_distributors; ++i) {
    impl.distributors.push_back(std::make_unique<Distributor>(
        config, 0, epoch_mono, *impl.counters, config.seed + 1 + i,
        i == 0 ? config.snapshotter : nullptr, &impl.finished));
    impl.distributors.back()->Start();
  }
  impl.wall_start = MonotonicNow();
  return pipeline;
}

ReplayPipeline::~ReplayPipeline() {
  if (impl_ == nullptr || impl_->joined) return;
  CloseInput();
  for (auto& distributor : impl_->distributors) distributor->Join();
}

void ReplayPipeline::Feed(std::span<const trace::QueryRecord> records) {
  if (records.empty()) return;
  Impl& impl = *impl_;
  auto& chunk = impl.chunks.emplace_back(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    QueryJob job;
    job.trace_index = impl.fed;
    job.trace_time = records[i].timestamp - impl.trace_epoch;
    job.record = records[i];
    job.outcome = &chunk[i];
    size_t target = impl.postman.Assign(job.record.src);
    impl.batches[target].push_back(std::move(job));
    ++impl.fed;
  }
  for (size_t i = 0; i < impl.distributors.size(); ++i) {
    if (impl.batches[i].empty()) continue;
    impl.distributors[i]->queue().PushBatch(std::move(impl.batches[i]));
    impl.batches[i].clear();
  }
}

void ReplayPipeline::CloseInput() {
  if (impl_->input_closed) return;
  impl_->input_closed = true;
  for (auto& distributor : impl_->distributors) {
    distributor->queue().CloseInput();
  }
}

uint64_t ReplayPipeline::fed() const { return impl_->fed; }

bool ReplayPipeline::Done() const {
  return impl_->finished.load(std::memory_order_acquire) ==
         impl_->distributors.size();
}

uint64_t ReplayPipeline::TerminalCount() const {
  const TransportCounters& c = *impl_->counters;
  return c.answered.Get() + c.timed_out.Get() + c.send_failed.Get();
}

Result<RealtimeReport> ReplayPipeline::Finish() {
  Impl& impl = *impl_;
  CloseInput();
  for (auto& distributor : impl.distributors) distributor->Join();
  impl.joined = true;
  for (auto& distributor : impl.distributors) {
    if (!distributor->status().ok()) return distributor->status().error();
  }

  RealtimeReport report;
  report.sends.reserve(impl.fed);
  for (auto& chunk : impl.chunks) {
    for (auto& outcome : chunk) report.sends.push_back(outcome);
  }
  impl.chunks.clear();
  report.queries_sent = impl.counters->sent.Get();
  report.answered = impl.counters->answered.Get();
  report.timed_out = impl.counters->timed_out.Get();
  report.send_failed = impl.counters->send_failed.Get();
  report.retransmits = impl.counters->retransmits.Get();
  report.id_collisions = impl.counters->id_collisions.Get();
  report.tcp_reconnects = impl.counters->tcp_reconnects.Get();
  report.tcp_idle_closes = impl.counters->tcp_idle_closes.Get();
  report.tls_handshakes = impl.counters->tls_handshakes.Get();
  report.tls_resumptions = impl.counters->tls_resumptions.Get();
  report.tls_aborts = impl.counters->tls_aborts.Get();
  report.wall_duration = MonotonicNow() - impl.wall_start;
  // Final row after every distributor joined: cumulative counters are
  // settled, so this row reconciles exactly with the returned report.
  if (impl.config.snapshotter != nullptr) impl.config.snapshotter->WriteNow();
  return report;
}

Result<RealtimeReport> RunRealtimeReplay(
    const std::vector<trace::QueryRecord>& records,
    const RealtimeConfig& config) {
  if (records.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty trace");
  }
  NanoTime trace_epoch = records.front().timestamp;
  NanoTime epoch_mono = MonotonicNow() + config.start_delay;
  LDP_ASSIGN_OR_RETURN(
      auto pipeline, ReplayPipeline::Start(config, epoch_mono, trace_epoch));

  // Reader: stream the trace into the pipeline in look-ahead windows.
  size_t cursor = 0;
  while (cursor < records.size()) {
    NanoTime window_end;
    if (config.fast_mode) {
      window_end = INT64_MAX;
    } else {
      window_end = (MonotonicNow() - epoch_mono) + config.lookahead;
    }
    size_t begin = cursor;
    while (cursor < records.size() &&
           records[cursor].timestamp - trace_epoch <= window_end) {
      ++cursor;
    }
    pipeline->Feed(std::span(records).subspan(begin, cursor - begin));
    if (cursor < records.size() && !config.fast_mode) {
      NanoTime next_due =
          epoch_mono + (records[cursor].timestamp - trace_epoch);
      NanoDuration sleep_for =
          std::min<NanoDuration>(next_due - MonotonicNow() -
                                     config.lookahead / 2,
                                 Millis(50));
      if (sleep_for > 0) {
        timespec ts{};
        ts.tv_sec = sleep_for / kNanosPerSecond;
        ts.tv_nsec = sleep_for % kNanosPerSecond;
        nanosleep(&ts, nullptr);
      }
    }
  }
  pipeline->CloseInput();
  return pipeline->Finish();
}

}  // namespace ldp::replay
