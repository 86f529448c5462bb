// Agent side of the distributed replay (paper §2.6): one ldp_replay_agent
// process hosts the unchanged Distributor/Querier stack behind the wire
// protocol. The controller connects, configures the agent with HELLO,
// synchronizes clocks, then streams CHUNK frames; the agent feeds records
// into a ReplayPipeline within the configured look-ahead of real time and
// an outstanding-query cap, acking each chunk only once fully fed — that
// ack is the controller's flow-control credit. After INPUT_DONE drains it
// sends one REPORT (scalars + final metrics snapshot) and waits for BYE.
#ifndef LDPLAYER_DISTRIB_AGENT_H
#define LDPLAYER_DISTRIB_AGENT_H

#include <deque>
#include <memory>
#include <string>

#include "distrib/protocol.h"
#include "net/sockets.h"
#include "replay/realtime.h"
#include "stats/metrics.h"

namespace ldp::distrib {

struct AgentOptions {
  // Port 0 = ephemeral; the tool prints the bound endpoint for scripts.
  Endpoint listen{IpAddress::Loopback(), 0};
  // Local metrics JSONL (with buckets, so files merge exactly). Empty =
  // no file; STATS frames flow to the controller either way.
  std::string metrics_path;
  // Cap on queries fed into the engine but not yet at a terminal outcome.
  // Bounds agent memory when the controller runs far ahead (fast mode).
  uint64_t max_outstanding = 16384;
  // Cadence of the feed/completion poll while a replay is live.
  NanoDuration pump_interval = Millis(5);
};

// One agent process: accepts exactly one controller connection and runs
// its lifecycle on the caller's event loop. Loop-thread-only.
class AgentServer {
 public:
  static Result<std::unique_ptr<AgentServer>> Start(net::EventLoop& loop,
                                                    AgentOptions options);
  ~AgentServer();
  AgentServer(const AgentServer&) = delete;
  AgentServer& operator=(const AgentServer&) = delete;

  Endpoint local() const { return listener_->local(); }

  // Meaningful after the loop stops: Ok when the run completed (REPORT
  // delivered, BYE seen or clean close), the failure otherwise.
  const Status& result() const { return result_; }

 private:
  AgentServer(net::EventLoop& loop, AgentOptions options)
      : loop_(loop), options_(std::move(options)) {}

  void OnAccept(std::unique_ptr<net::TcpConnection> conn);
  void OnData(std::span<const uint8_t> data);
  void OnClose(Status reason);
  Status HandleFrame(const Frame& frame);
  Status HandleHello(const Frame& frame);
  Status HandleStart(const Frame& frame);
  Status HandleChunk(const Frame& frame);

  // Feeds due staged records into the pipeline, acks finished chunks.
  void Pump();
  // CloseInput once everything staged is fed; REPORT once drained.
  void MaybeFinish();
  void RearmPump();
  void SendStats();
  void RearmStats();

  void Send(Bytes frame);
  // Terminal failure: records the error, best-effort ERROR frame, stops.
  void Fail(Status status);
  void Shutdown();

  net::EventLoop& loop_;
  AgentOptions options_;
  std::unique_ptr<net::TcpListener> listener_;
  std::unique_ptr<net::TcpConnection> conn_;
  FrameAssembler assembler_;

  stats::MetricsRegistry registry_;
  std::unique_ptr<stats::MetricsSnapshotter> snapshotter_;
  HelloFrame hello_;
  bool got_hello_ = false;

  NanoTime epoch_mono_ = 0;
  std::unique_ptr<replay::ReplayPipeline> pipeline_;

  struct StagedChunk {
    uint32_t seq = 0;
    std::vector<trace::QueryRecord> records;
    size_t cursor = 0;  // next un-fed record
  };
  std::deque<StagedChunk> staging_;
  bool input_done_ = false;
  uint64_t expected_total_ = 0;
  bool input_closed_ = false;
  bool reported_ = false;
  bool stopped_ = false;

  net::TimerHandle pump_timer_;
  net::TimerHandle stats_timer_;
  Status result_;
};

}  // namespace ldp::distrib

#endif  // LDPLAYER_DISTRIB_AGENT_H
