// Real-time distributed replay over real sockets (paper §2.6, §3, Fig 4):
//
//   Controller (Reader + Postman)  ──►  Distributor₁..N  ──►  Querier₁..M
//
// The controller thread streams the trace in bounded look-ahead windows
// (the Reader "pre-loads a window of queries to avoid falling behind real
// time") and the Postman hands each query to a distributor chosen by
// sticky same-source assignment. Each distributor is a thread running an
// epoll event loop hosting several logical queriers and schedules each
// query with the ΔT = Δt̄ − Δt rule. A querier hands it to one of two
// lanes: a datagram lane (one UDP socket or AF_PACKET ring) or a stream
// lane (per-source TCP or DoT connections). The lane sends it and
// timestamps the reply.
//
// Every replayed query is tracked to a terminal outcome: answered, timed
// out (a timer wheel ages inflight entries past query_timeout, after any
// configured UDP retransmits), or send-failed (never accepted by the
// kernel, or its TCP connection exhausted its reconnect budget). The
// invariant `queries_sent == answered + timed_out + send_failed` makes loss
// an explicit output instead of a silent gap in the fidelity metrics.
//
// The paper runs distributors/queriers as processes across DETER hosts;
// here they are threads on one host (documented substitution) — the
// scheduling, queue hand-off, and kernel-level jitter the §4 fidelity
// experiments measure are all real.
#ifndef LDPLAYER_REPLAY_REALTIME_H
#define LDPLAYER_REPLAY_REALTIME_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/datapath.h"
#include "stats/metrics.h"
#include "stats/summary.h"
#include "trace/record.h"

namespace ldp::replay {

struct RealtimeConfig {
  Endpoint server;
  // --- Hierarchy replay: per-query destinations (paper §2.4) ---
  // Send each query to its record's dst/dst_port (the OQDA) instead of
  // `server`. This is how a trace drives the hierarchy proxy: the proxy
  // listens on every emulated nameserver address and the replayer
  // addresses each query exactly as the original client did.
  bool follow_trace_dst = false;
  // With follow_trace_dst: rewrite every destination port to this value
  // (0 = keep each record's dst_port). The proxy serves all addresses on
  // one shared service port, which is rarely the trace's port 53.
  uint16_t dst_port_override = 0;
  // With follow_trace_dst: map each destination through LoopbackAlias so
  // public testbed addresses land on bindable 127/8 aliases.
  bool loopback_alias_dst = false;
  size_t n_distributors = 1;
  size_t queriers_per_distributor = 3;
  // Fast mode (paper §4.3): ignore trace timing, send as fast as possible.
  bool fast_mode = false;
  // How far ahead of real time the controller feeds queries.
  NanoDuration lookahead = Millis(500);
  // Delay before the synchronized start (lets threads spin up).
  NanoDuration start_delay = Millis(100);
  uint64_t seed = 99;

  // --- Robust transport: timeouts, retransmit, TCP lifecycle ---

  // Inflight queries age out after this long without a reply and count as
  // timed_out; the replay ends once every query is terminal. Must be > 0
  // (ReplayPipeline::Start refuses anything else).
  NanoDuration query_timeout = Seconds(2);
  // UDP retransmits before declaring a timeout; retry k waits
  // query_timeout << k (exponential backoff). TCP queries are never
  // retransmitted in place — redelivery happens via reconnect.
  int max_retransmits = 0;
  // Client-side TCP idle closure (the §5 experiment knob): a connection
  // with nothing inflight and no activity for this long is closed; the
  // next query for that source dials fresh. 0 = keep connections open.
  NanoDuration tcp_idle_timeout = 0;
  // DoT port for kTls records (0 = the record's own target port). A kTls
  // record dials DNS-over-TLS to its target with this port substituted —
  // the server side binds DoT on a separate listener, so replaying an
  // all-TLS trace against it needs the port redirected. Requires OpenSSL
  // in the build (probe with net::TlsAvailable()); without it every kTls
  // query ends send_failed.
  uint16_t tls_port = 0;
  // Reconnect budget when a TCP connect fails or a stream dies with
  // queries still owed. Inflight frames are re-queued onto the new
  // connection; retry k waits tcp_reconnect_backoff << k. A successful
  // reply resets the budget. Exhausted => owed queries end send_failed.
  int tcp_max_reconnects = 3;
  NanoDuration tcp_reconnect_backoff = Millis(50);
  // Write-queue backpressure: at or above high the querier stops writing
  // frames (they wait in the per-source backlog); at or below low it
  // resumes draining.
  size_t tcp_write_high_watermark = 256 * 1024;
  size_t tcp_write_low_watermark = 64 * 1024;

  // --- Datapath (querier side) ---

  // Transport under each querier's UDP leg: epoll kernel sockets
  // (default) or an AF_PACKET ring per querier (CAP_NET_RAW; see
  // net/datapath.h). TCP queries always use kernel sockets.
  net::DatapathKind datapath = net::DatapathKind::kEpoll;
  net::AfPacketOptions afpacket;  // used when datapath == kAfPacket
  // Source address queriers bind (the port is always ephemeral). Default
  // loopback; set this when replaying over a real interface — in afpacket
  // mode it must be an address of afpacket.interface.
  IpAddress local_addr = IpAddress::Loopback();

  // --- Live metrics (both optional) ---

  // Registry for live counters/histograms: transport outcome counters
  // (replay.sent/answered/timed_out/send_failed/...), per-querier
  // send→answer latency histograms, inflight-depth gauges, timer-wheel
  // occupancy, and per-distributor loop-lag / epoll-batch histograms.
  // Must outlive the replay call AND any snapshots taken after it.
  stats::MetricsRegistry* metrics = nullptr;
  // When set, distributor 0 drives it: one JSONL row per interval() from
  // its own loop thread, plus a final row after all distributors join (so
  // the last row reconciles exactly with the returned report).
  stats::MetricsSnapshotter* snapshotter = nullptr;
};

struct SendOutcome {
  // Terminal outcome of one replayed query.
  enum class State : uint8_t {
    kPending = 0,  // not yet resolved
    kAnswered,
    kTimedOut,    // reached the wire, aged out without a reply
    kSendFailed,  // never reached the wire (kernel refused the datagram,
                  // ID space exhausted, or TCP reconnect budget spent)
  };

  uint64_t trace_index = 0;
  NanoTime trace_time = 0;   // relative to the trace epoch
  NanoTime sent = 0;         // monotonic, relative to the replay epoch
  NanoTime replied = 0;      // 0 = no reply observed
  uint8_t retransmits = 0;   // UDP re-sends attempted for this query
  State state = State::kPending;
  bool answered() const { return state == State::kAnswered; }
};

struct RealtimeReport {
  std::vector<SendOutcome> sends;  // trace order
  uint64_t queries_sent = 0;

  // Terminal-outcome accounting:
  //   queries_sent == answered + timed_out + send_failed
  // holds once RunRealtimeReplay returns.
  uint64_t answered = 0;
  uint64_t timed_out = 0;
  uint64_t send_failed = 0;
  uint64_t retransmits = 0;      // total UDP re-sends
  uint64_t id_collisions = 0;    // preferred 16-bit ID was still inflight
  uint64_t tcp_reconnects = 0;   // re-dials after connect failure / close
  uint64_t tcp_idle_closes = 0;  // client-side idle-timeout closures
  uint64_t tls_handshakes = 0;   // completed client TLS handshakes
  uint64_t tls_resumptions = 0;  // of which resumed a cached session
  uint64_t tls_aborts = 0;       // handshakes that failed before completing
  NanoDuration wall_duration = 0;

  // Absolute-timing error (paper Fig 6): replayed (sent − first_sent)
  // minus original (trace − first_trace), in milliseconds, per query.
  // Only queries that reached the wire participate: the anchor is the
  // first sent query, and unsent/send-failed records are skipped.
  std::vector<double> TimingErrorsMs(size_t skip_first = 0) const;
  // Inter-arrival gaps of the replayed stream, seconds (Fig 7). Unsent
  // records are excluded.
  std::vector<double> ReplayInterarrivalsS() const;
  // Per-second rate error fractions replay-vs-original (Fig 8). Unsent
  // records count toward the original series only.
  std::vector<double> RateErrors() const;
};

// Allocates a 16-bit DNS query ID that is not currently inflight, probing
// upward from `next_id` (which is advanced past the returned ID). Sets
// *collided when the preferred ID was occupied — the caller counts it —
// and returns nullopt when all 65536 IDs are inflight. Shared by the UDP
// and per-TCP-connection ID spaces; a template so each can use its own
// map type without copying the wrap/probe logic.
template <typename InflightMap>
std::optional<uint16_t> AllocateQueryId(uint16_t& next_id,
                                        const InflightMap& inflight,
                                        bool* collided) {
  *collided = false;
  if (inflight.size() >= 0x10000) return std::nullopt;
  uint16_t id = next_id;
  while (inflight.find(id) != inflight.end()) {
    *collided = true;
    ++id;  // uint16_t arithmetic wraps 65535 -> 0 by definition
  }
  next_id = static_cast<uint16_t>(id + 1);
  return id;
}

// Replays `records` (timestamps must ascend) and blocks until done.
Result<RealtimeReport> RunRealtimeReplay(
    const std::vector<trace::QueryRecord>& records,
    const RealtimeConfig& config);

// RunRealtimeReplay with the Reader inverted: the caller streams record
// batches in whenever it likes and the same Postman → Distributor →
// Querier machinery runs underneath. This is the distributed agent's
// entry point — chunks arrive over the wire instead of from a trace file
// — and RunRealtimeReplay itself is now a thin Reader loop over one.
//
// Threading: Start spawns the distributor threads. Feed/CloseInput/fed
// must be called from ONE feeder thread; Done/TerminalCount are
// safe from that thread while distributors run. Finish joins and may be
// called once (the destructor joins too if Finish never ran).
class ReplayPipeline {
 public:
  // `epoch_mono`: the synchronized replay start on this host's monotonic
  // clock — a record with rebased time t is sent at epoch_mono + t.
  // `trace_epoch` is subtracted from every fed record's timestamp (pass
  // records.front().timestamp, or 0 when the feeder pre-rebased them).
  // Refuses (kInvalidArgument) zero distributors or queriers and a
  // query_timeout that is not positive.
  static Result<std::unique_ptr<ReplayPipeline>> Start(
      const RealtimeConfig& config, NanoTime epoch_mono,
      NanoTime trace_epoch);
  ~ReplayPipeline();
  ReplayPipeline(const ReplayPipeline&) = delete;
  ReplayPipeline& operator=(const ReplayPipeline&) = delete;

  // Hands a batch to the distributors (timestamps ascend across calls).
  void Feed(std::span<const trace::QueryRecord> records);
  // After the last Feed. Distributors finish once every fed query reaches
  // a terminal outcome.
  void CloseInput();

  uint64_t fed() const;
  // True once every distributor thread has stopped (non-blocking).
  bool Done() const;
  // Queries at a terminal outcome so far. `fed() - TerminalCount()` is the
  // engine's backlog — the agent's backpressure signal for withholding
  // chunk credits.
  uint64_t TerminalCount() const;

  // Joins the distributor threads and assembles the report (trace order).
  Result<RealtimeReport> Finish();

 private:
  ReplayPipeline() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_REALTIME_H
