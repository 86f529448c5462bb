// End-to-end real-socket replay: controller → distributors → queriers over
// loopback against a real one-shard ShardedDnsServer, exercising the §4
// fidelity path with actual kernel timers and sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "dns/framing.h"
#include "mutate/mutate.h"
#include "net/sockets.h"
#include "replay/realtime.h"
#include "server/sharded_server.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::replay {
namespace {

// TSan slows execution 5-15x, which breaks wall-clock fidelity bounds
// (they measure the scheduler, not thread safety). Races are still caught
// because the tests run end to end; only the timing assertions are gated.
#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

// Wildcard zone so every replayed query gets an answer.
std::shared_ptr<const zone::ViewTable> MakeViews() {
  auto zone = zone::ParseMasterFile(
      "$ORIGIN example.com.\n"
      "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.53\n"
      "* IN A 192.0.2.200\n",
      zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok());
  zone::ZoneSet set;
  EXPECT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  auto views = std::make_shared<zone::ViewTable>();
  views->SetDefaultView(std::move(set));
  return views;
}

std::vector<trace::QueryRecord> MakeTraceTo(Endpoint server, size_t n,
                                            NanoDuration gap,
                                            size_t n_clients = 20) {
  workload::FixedIntervalConfig config;
  config.interarrival = gap;
  config.duration = gap * static_cast<int64_t>(n);
  config.n_clients = n_clients;
  auto records = workload::MakeFixedIntervalTrace(config);
  for (auto& r : records) {
    r.dst = server.addr;
    r.dst_port = server.port;
  }
  return records;
}

void ForceTcp(std::vector<trace::QueryRecord>& records) {
  mutate::MutationPipeline pipeline;
  pipeline.Add(mutate::ForceProtocol(trace::Protocol::kTcp));
  pipeline.Apply(records);
}

// The tentpole invariant: with query_timeout > 0, every replayed query
// reaches a terminal outcome and the counters tie out exactly, both in
// aggregate and against the per-record states.
void ExpectTerminalAccounting(const RealtimeReport& report) {
  EXPECT_EQ(report.queries_sent,
            report.answered + report.timed_out + report.send_failed);
  uint64_t answered = 0, timed_out = 0, send_failed = 0, pending = 0;
  for (const auto& send : report.sends) {
    switch (send.state) {
      case SendOutcome::State::kAnswered: ++answered; break;
      case SendOutcome::State::kTimedOut: ++timed_out; break;
      case SendOutcome::State::kSendFailed: ++send_failed; break;
      case SendOutcome::State::kPending: ++pending; break;
    }
  }
  EXPECT_EQ(pending, 0u) << "records left without a terminal outcome";
  EXPECT_EQ(answered, report.answered);
  EXPECT_EQ(timed_out, report.timed_out);
  EXPECT_EQ(send_failed, report.send_failed);
}

// A local endpoint that swallows datagrams: a bound UDP socket nobody
// reads. Loopback sends succeed (full receive queues drop silently), so
// every query reaches the wire and must age out via the timer wheel.
// `port` 0 binds an ephemeral port; ok() is false if the bind failed.
class BlackholeUdp {
 public:
  explicit BlackholeUdp(uint16_t port = 0) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      socklen_t len = sizeof(addr);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
        endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
      }
    }
  }
  ~BlackholeUdp() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return endpoint_.port != 0; }
  Endpoint endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_{};
};

// A TCP port that refuses connections: bind without listen, so connect
// gets an immediate RST.
class DeadTcpPort {
 public:
  DeadTcpPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      socklen_t len = sizeof(addr);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
        endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
      }
    }
  }
  ~DeadTcpPort() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return endpoint_.port != 0; }
  Endpoint endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_{};
};

class RealtimeReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::ShardedDnsServer::Config config;
    config.listen = Endpoint{IpAddress::Loopback(), 0};
    config.n_shards = 1;
    config.tcp_idle_timeout = Seconds(20);
    auto server = server::ShardedDnsServer::Start(MakeViews(), config);
    ASSERT_TRUE(server.ok()) << server.error().ToString();
    server_ = std::move(*server);
  }

  std::vector<trace::QueryRecord> MakeTrace(size_t n, NanoDuration gap,
                                            size_t n_clients = 20) {
    return MakeTraceTo(server_->endpoint(), n, gap, n_clients);
  }

  RealtimeConfig MakeConfig() {
    RealtimeConfig config;
    config.server = server_->endpoint();
    config.n_distributors = 2;
    config.queriers_per_distributor = 2;
    return config;
  }

  std::unique_ptr<server::ShardedDnsServer> server_;
};

TEST_F(RealtimeReplayTest, UdpReplayGetsAllReplies) {
  auto records = MakeTrace(200, Millis(2));  // 0.4 s of trace
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 200u);
  // Loopback UDP against a live server: replies should be complete, but
  // allow a stray loss under heavy CI load.
  EXPECT_GE(report->answered, 198u);
  ExpectTerminalAccounting(*report);
}

TEST_F(RealtimeReplayTest, TimingStaysWithinPaperBounds) {
  auto records = MakeTrace(300, Millis(5));  // 1.5 s of trace
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();

  auto errors = report->TimingErrorsMs(/*skip_first=*/10);
  ASSERT_FALSE(errors.empty());
  if (kUnderTsan) {
    GTEST_SKIP() << "timing fidelity bounds are meaningless under TSan";
  }
  stats::Summary summary;
  summary.AddAll(errors);
  auto dist = summary.Summarize();
  // Paper Fig 6: quartiles within ±8 ms even in the worst case. A single
  // loaded CI core is noisier than DETER hardware; allow 4x headroom.
  EXPECT_GT(dist.p25, -32.0) << dist.ToString();
  EXPECT_LT(dist.p75, 32.0) << dist.ToString();
}

TEST_F(RealtimeReplayTest, FastModeOutpacesTraceTiming) {
  auto records = MakeTrace(2000, Millis(10));  // 20 s of trace time
  RealtimeConfig config = MakeConfig();
  config.fast_mode = true;
  NanoTime start = MonotonicNow();
  auto report = RunRealtimeReplay(records, config);
  NanoDuration elapsed = MonotonicNow() - start;
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, 2000u);
  // 20 s of trace replayed well under real time (generous under TSan).
  EXPECT_LT(elapsed, kUnderTsan ? Seconds(60) : Seconds(10));
}

TEST_F(RealtimeReplayTest, TcpReplayReusesConnections) {
  auto records = MakeTrace(100, Millis(2));
  ForceTcp(records);

  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 100u);
  EXPECT_GE(report->answered, 98u);
  ExpectTerminalAccounting(*report);
  // 20 sources, sticky assignment: connection count stays near the source
  // count, far below the query count. Stop the server first so the gauge
  // no longer moves under connection teardown.
  server_->Stop();
  EXPECT_LE(server_->TotalTcpStats().open, 25u);
}

TEST_F(RealtimeReplayTest, ReportHelpersProduceSeries) {
  auto records = MakeTrace(100, Millis(5));
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ReplayInterarrivalsS().size(), 99u);
  EXPECT_FALSE(report->RateErrors().empty());
}

TEST(QueryIdAllocation, ProbesPastInflightAcrossTheWrap) {
  std::unordered_map<uint16_t, int> inflight;
  inflight[65535] = 1;
  inflight[0] = 1;
  uint16_t next = 65535;
  bool collided = false;
  auto id = AllocateQueryId(next, inflight, &collided);
  ASSERT_TRUE(id.has_value());
  // 65535 and 0 are inflight: the probe wraps past both instead of
  // clobbering them (the seed bug reused the raw counter unconditionally).
  EXPECT_EQ(*id, 1);
  EXPECT_TRUE(collided);
  EXPECT_EQ(next, 2);

  collided = false;
  id = AllocateQueryId(next, inflight, &collided);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 2);
  EXPECT_FALSE(collided);
  EXPECT_EQ(next, 3);
}

TEST(QueryIdAllocation, ExhaustedIdSpaceReturnsNullopt) {
  std::unordered_map<uint16_t, int> inflight;
  for (uint32_t id = 0; id < 0x10000; ++id) {
    inflight[static_cast<uint16_t>(id)] = 1;
  }
  uint16_t next = 123;
  bool collided = false;
  EXPECT_FALSE(AllocateQueryId(next, inflight, &collided).has_value());
}

TEST(RealtimeTransport, UdpTimeoutAndRetransmitAccounting) {
  BlackholeUdp blackhole;
  ASSERT_TRUE(blackhole.ok());
  auto records = MakeTraceTo(blackhole.endpoint(), 100, Millis(1));

  RealtimeConfig config;
  config.server = blackhole.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.fast_mode = true;
  config.query_timeout = Millis(150);
  config.max_retransmits = 1;

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 100u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out, 100u);
  EXPECT_EQ(report->send_failed, 0u);
  // Every query was re-sent exactly once before aging out.
  EXPECT_EQ(report->retransmits, 100u);
  for (const auto& send : report->sends) {
    EXPECT_EQ(send.retransmits, 1u);
    EXPECT_NE(send.sent, 0);
  }
  ExpectTerminalAccounting(*report);
}

// ID-wrap regression: push more queries into one querier's UDP socket than
// the 16-bit ID space holds while nothing is answered. The allocator must
// probe (counting collisions) and, when all 65536 IDs are inflight at
// once, fail the overflow sends — never clobber a live entry, which is
// what the seed code did on wrap.
TEST(RealtimeTransport, IdWrapUnderSustainedLossKeepsAccounting) {
  BlackholeUdp blackhole;
  ASSERT_TRUE(blackhole.ok());
  const size_t kQueries = 70000;
  auto records = MakeTraceTo(blackhole.endpoint(), kQueries, Micros(1));

  RealtimeConfig config;
  config.server = blackhole.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(800);
  config.max_retransmits = 0;

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, kQueries);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out + report->send_failed, kQueries);
  ExpectTerminalAccounting(*report);
  if (!kUnderTsan) {
    // The burst outruns the 800 ms timeout, so the ID space fills: the
    // overflow must surface as collisions and/or explicit send failures.
    // (Under TSan the send rate is too slow for the inflight set to fill.)
    EXPECT_GT(report->id_collisions + report->send_failed, 0u);
  }
}

TEST(RealtimeTransport, TcpConnectFailureEndsSendFailed) {
  DeadTcpPort dead;
  ASSERT_TRUE(dead.ok());
  auto records = MakeTraceTo(dead.endpoint(), 20, Millis(1), /*n_clients=*/5);
  ForceTcp(records);

  RealtimeConfig config;
  config.server = dead.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.fast_mode = true;
  config.query_timeout = Seconds(5);  // must not be what ends the queries
  config.tcp_max_reconnects = 1;
  config.tcp_reconnect_backoff = Millis(5);

  NanoTime start = MonotonicNow();
  auto report = RunRealtimeReplay(records, config);
  NanoDuration elapsed = MonotonicNow() - start;
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 20u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->send_failed, 20u);
  EXPECT_GE(report->tcp_reconnects, 1u);
  ExpectTerminalAccounting(*report);
  // The reconnect budget, not the query timeout, must resolve the queries.
  if (!kUnderTsan) {
    EXPECT_LT(elapsed, Seconds(5));
  }
}

// Mid-stream close: a server that kills the first connection as soon as
// query bytes arrive, then echoes frames on later connections. The client
// must re-queue the inflight frames, reconnect, and still answer
// everything. Run under ASan this also exercises destroying a
// TcpConnection from inside its own data callback on the server side.
TEST(RealtimeTransport, TcpMidStreamCloseRequeuesAndRecovers) {
  auto loop = net::EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::vector<std::unique_ptr<net::TcpConnection>> conns;
  int accepted = 0;
  auto listener = net::TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::unique_ptr<net::TcpConnection> conn) {
        net::TcpConnection* raw = conn.get();
        int index = accepted++;
        conns.push_back(std::move(conn));
        auto assembler = std::make_shared<dns::StreamAssembler>();
        auto status = net::TcpListener::AdoptHandlers(
            *raw,
            [&, raw, index, assembler](std::span<const uint8_t> data) {
              if (index == 0) {
                // Drop the first connection mid-stream, with the query
                // unanswered (and destroy it inside its own callback).
                for (auto& c : conns) {
                  if (c.get() == raw) c.reset();
                }
                return;
              }
              if (!assembler->Feed(data).ok()) return;
              while (auto wire = assembler->NextMessage()) {
                // Echo the query back; the client matches replies by ID.
                auto sent =
                    raw->Send(std::move(dns::FrameMessage(*wire)).value());
                EXPECT_TRUE(sent.ok());
              }
            },
            [](Status) {});
        EXPECT_TRUE(status.ok());
      });
  ASSERT_TRUE(listener.ok()) << listener.error().ToString();
  std::thread server_thread([&]() { (*loop)->Run(); });

  auto records =
      MakeTraceTo((*listener)->local(), 6, Millis(20), /*n_clients=*/1);
  ForceTcp(records);

  RealtimeConfig config;
  config.server = (*listener)->local();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.query_timeout = Seconds(5);
  config.tcp_reconnect_backoff = Millis(5);

  auto report = RunRealtimeReplay(records, config);
  (*loop)->RequestStop();
  server_thread.join();

  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 6u);
  EXPECT_EQ(report->answered, 6u);
  EXPECT_GE(report->tcp_reconnects, 1u);
  ExpectTerminalAccounting(*report);
}

TEST_F(RealtimeReplayTest, TcpClientIdleTimeoutClosesAndRedials) {
  // One source with 200 ms gaps and a 50 ms client idle timeout: the
  // connection must close between queries and redial, answering all of
  // them (the §5 idle-closure knob, client side).
  auto records = MakeTrace(4, Millis(200), /*n_clients=*/1);
  ForceTcp(records);

  RealtimeConfig config = MakeConfig();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.tcp_idle_timeout = Millis(50);

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 4u);
  EXPECT_EQ(report->answered, 4u);
  EXPECT_GE(report->tcp_idle_closes, 1u);
  ExpectTerminalAccounting(*report);
}

// A server that answers nothing on either transport: a UDP blackhole and
// a TCP listener that accepts and reads but never replies, on one port
// number. A trace alternating UDP and TCP through one querier must age
// out on both lanes: every stream query reached the wire, so it ends
// timed_out (not send_failed), and the querier goes idle, ending the
// replay, as soon as the last timeout fires.
TEST(RealtimeTransport, SilentServerAgesOutOnBothLanes) {
  auto loop = net::EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  std::vector<std::unique_ptr<net::TcpConnection>> conns;
  std::unique_ptr<net::TcpListener> listener;
  std::unique_ptr<BlackholeUdp> blackhole;
  // The TCP port is ephemeral; retry while the same UDP port is taken.
  for (int attempt = 0; attempt < 20 && blackhole == nullptr; ++attempt) {
    auto listening = net::TcpListener::Listen(
        **loop, Endpoint{IpAddress::Loopback(), 0},
        [&conns](std::unique_ptr<net::TcpConnection> conn) {
          auto status = net::TcpListener::AdoptHandlers(
              *conn, [](std::span<const uint8_t>) {}, [](Status) {});
          EXPECT_TRUE(status.ok());
          conns.push_back(std::move(conn));
        });
    ASSERT_TRUE(listening.ok()) << listening.error().ToString();
    auto udp = std::make_unique<BlackholeUdp>((*listening)->local().port);
    if (!udp->ok()) continue;
    listener = std::move(*listening);
    blackhole = std::move(udp);
  }
  ASSERT_NE(blackhole, nullptr) << "no port free for both UDP and TCP";
  std::thread server_thread([&]() { (*loop)->Run(); });

  auto records = MakeTraceTo(listener->local(), 20, Millis(2),
                             /*n_clients=*/4);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].protocol =
        i % 2 == 0 ? trace::Protocol::kUdp : trace::Protocol::kTcp;
  }
  RealtimeConfig config;
  config.server = listener->local();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.query_timeout = Millis(300);

  NanoTime start = MonotonicNow();
  auto report = RunRealtimeReplay(records, config);
  NanoDuration elapsed = MonotonicNow() - start;
  (*loop)->RequestStop();
  server_thread.join();

  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 20u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out, 20u);
  EXPECT_EQ(report->send_failed, 0u);
  EXPECT_EQ(report->tcp_reconnects, 0u);
  ExpectTerminalAccounting(*report);
  // Start delay, 40 ms of trace, then one timeout: the replay waits for
  // the last query's timeout and not much longer.
  EXPECT_GE(elapsed, config.query_timeout);
  if (!kUnderTsan) {
    EXPECT_LT(elapsed, config.start_delay + Millis(40) +
                           config.query_timeout + Millis(250));
  }
}

TEST(RealtimeReplayErrors, EmptyTraceRejected) {
  RealtimeConfig config;
  config.server = Endpoint{IpAddress::Loopback(), 5353};
  EXPECT_FALSE(RunRealtimeReplay({}, config).ok());
}

TEST(RealtimeReplayErrors, NonPositiveTimeoutRejected) {
  RealtimeConfig config;
  config.server = Endpoint{IpAddress::Loopback(), 5353};
  auto records = MakeTraceTo(config.server, 4, Millis(1));
  for (NanoDuration timeout : {NanoDuration{0}, -Millis(1)}) {
    config.query_timeout = timeout;
    auto report = RunRealtimeReplay(records, config);
    ASSERT_FALSE(report.ok()) << "query_timeout " << timeout;
    EXPECT_EQ(report.error().code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace ldp::replay
