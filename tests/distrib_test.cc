// Distributed replay: wire-protocol codecs, frame reassembly under
// adversarial and fragmented input, credit-based backpressure, controller
// ↔ agent loopback end-to-end, and mid-run agent death.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <thread>

#include "distrib/agent.h"
#include "distrib/controller.h"
#include "distrib/protocol.h"
#include "net/event_loop.h"
#include "server/sharded_server.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::distrib {
namespace {

// --- codec tests ---

std::vector<trace::QueryRecord> SampleRecords(size_t n) {
  workload::FixedIntervalConfig config;
  config.interarrival = Millis(2);
  config.duration = Millis(2) * static_cast<int64_t>(n);
  config.n_clients = 7;
  return workload::MakeFixedIntervalTrace(config);
}

// Feeds `wire` to an assembler in pieces of `step` bytes and returns the
// completed frames.
std::vector<Frame> Reassemble(const Bytes& wire, size_t step) {
  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (size_t i = 0; i < wire.size(); i += step) {
    size_t len = std::min(step, wire.size() - i);
    EXPECT_TRUE(
        assembler.Feed(std::span(wire.data() + i, len)).ok());
    while (auto frame = assembler.Next()) frames.push_back(std::move(*frame));
  }
  return frames;
}

TEST(ProtocolTest, HelloRoundTripsThroughFragmentedStream) {
  HelloFrame hello;
  hello.agent_id = 3;
  hello.credit_window = 5;
  hello.stats_interval = Millis(250);
  hello.config.server = Endpoint{IpAddress(192, 0, 2, 1), 5353};
  hello.config.follow_trace_dst = true;
  hello.config.dst_port_override = 9953;
  hello.config.loopback_alias_dst = true;
  hello.config.fast_mode = true;
  hello.config.n_distributors = 4;
  hello.config.queriers_per_distributor = 2;
  hello.config.lookahead = Millis(123);
  hello.config.seed = 0xfeedbeefcafe;
  hello.config.query_timeout = Seconds(3);
  hello.config.max_retransmits = 2;
  hello.config.tcp_idle_timeout = Seconds(9);
  hello.config.tcp_max_reconnects = 7;
  hello.config.datapath = net::DatapathKind::kAfPacket;
  hello.config.afpacket.interface = "veth0";
  hello.config.afpacket.peer_mac = "aa:bb:cc:dd:ee:ff";
  hello.config.tls_port = 8853;

  Bytes wire = EncodeHello(hello);
  // Byte-at-a-time reassembly must produce the identical frame.
  auto frames = Reassemble(wire, 1);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded = DecodeHello(frames[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  const replay::RealtimeConfig& sent = hello.config;
  const replay::RealtimeConfig& got = decoded->config;
  EXPECT_EQ(decoded->agent_id, hello.agent_id);
  EXPECT_EQ(decoded->credit_window, hello.credit_window);
  EXPECT_EQ(decoded->stats_interval, hello.stats_interval);
  EXPECT_EQ(got.server.addr.value(), sent.server.addr.value());
  EXPECT_EQ(got.server.port, sent.server.port);
  EXPECT_EQ(got.follow_trace_dst, sent.follow_trace_dst);
  EXPECT_EQ(got.dst_port_override, sent.dst_port_override);
  EXPECT_EQ(got.loopback_alias_dst, sent.loopback_alias_dst);
  EXPECT_EQ(got.fast_mode, sent.fast_mode);
  EXPECT_EQ(got.n_distributors, sent.n_distributors);
  EXPECT_EQ(got.queriers_per_distributor, sent.queriers_per_distributor);
  EXPECT_EQ(got.lookahead, sent.lookahead);
  EXPECT_EQ(got.seed, sent.seed);
  EXPECT_EQ(got.query_timeout, sent.query_timeout);
  EXPECT_EQ(got.max_retransmits, sent.max_retransmits);
  EXPECT_EQ(got.tcp_idle_timeout, sent.tcp_idle_timeout);
  EXPECT_EQ(got.tcp_max_reconnects, sent.tcp_max_reconnects);
  EXPECT_EQ(got.datapath, sent.datapath);
  EXPECT_EQ(got.afpacket.interface, sent.afpacket.interface);
  EXPECT_EQ(got.afpacket.peer_mac, sent.afpacket.peer_mac);
  EXPECT_EQ(got.tls_port, sent.tls_port);
}

TEST(ProtocolTest, HelloFromOtherVersionIsRefused) {
  HelloFrame hello;
  hello.agent_id = 12;
  auto frames = Reassemble(EncodeHello(hello), 1);
  ASSERT_EQ(frames.size(), 1u);

  // A v2 HELLO carried an 8-byte drain grace right after the look-ahead.
  // Rebuild that layout: the decoder must refuse it by its version, not
  // misparse the shifted fields that follow.
  // magic 4 | version 2 | agent 2 | credits 4 | stats 8 | server 4+2 |
  // flags 1 | dst port 2 | distributors 2 | queriers 2 | look-ahead 8
  constexpr size_t kDrainGraceAt = 4 + 2 + 2 + 4 + 8 + 6 + 1 + 2 + 2 + 2 + 8;
  Frame v2 = frames[0];
  v2.body[4] = 0;  // version u16 sits after the u32 magic
  v2.body[5] = 2;
  v2.body.insert(v2.body.begin() + kDrainGraceAt, 8, 0);
  auto decoded = DecodeHello(v2);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kUnsupported);

  // A version beyond ours is refused the same way.
  Frame future = frames[0];
  future.body[5] = static_cast<uint8_t>(kVersion + 1);
  decoded = DecodeHello(future);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kUnsupported);
}

TEST(ProtocolTest, ChunkRoundTripPreservesRecords) {
  ChunkFrame chunk;
  chunk.seq = 42;
  chunk.records = SampleRecords(25);
  Bytes wire = EncodeChunk(chunk);
  auto frames = Reassemble(wire, 3);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded = DecodeChunk(frames[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->seq, 42u);
  ASSERT_EQ(decoded->records.size(), chunk.records.size());
  for (size_t i = 0; i < chunk.records.size(); ++i) {
    EXPECT_EQ(decoded->records[i], chunk.records[i]) << "record " << i;
  }
}

TEST(ProtocolTest, ManyFramesInOneBuffer) {
  Bytes wire;
  auto append = [&wire](Bytes frame) {
    wire.insert(wire.end(), frame.begin(), frame.end());
  };
  append(EncodeHelloAck(HelloAckFrame{.version = kVersion, .agent_id = 9}));
  append(EncodeClockPong(ClockPongFrame{.t1 = 111, .t2 = 222}));
  append(EncodeChunkAck(ChunkAckFrame{.seq = 7}));
  append(EncodeBye());
  auto frames = Reassemble(wire, wire.size());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloAck);
  EXPECT_EQ(frames[1].type, FrameType::kClockPong);
  EXPECT_EQ(frames[2].type, FrameType::kChunkAck);
  EXPECT_EQ(frames[3].type, FrameType::kBye);
  auto pong = DecodeClockPong(frames[1]);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->t1, 111);
  EXPECT_EQ(pong->t2, 222);
}

TEST(ProtocolTest, SnapshotRoundTripsExactly) {
  stats::MetricsRegistry registry;
  auto* sent = registry.AddCounter("replay.sent");
  auto* inflight = registry.AddGauge("replay.inflight");
  auto* latency = registry.AddHistogram("replay.latency_ns");
  sent->Add(12345);
  inflight->Set(-3);
  for (uint64_t v : {100u, 200u, 1u << 20, 5u}) latency->Record(v);

  stats::MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.taken_at = 987654321;
  ByteWriter writer;
  EncodeSnapshot(snapshot, writer);
  Bytes wire = std::move(writer).Take();
  ByteReader reader(wire);
  auto decoded = DecodeSnapshot(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded->taken_at, snapshot.taken_at);
  ASSERT_EQ(decoded->counters.size(), snapshot.counters.size());
  EXPECT_EQ(decoded->CounterValue("replay.sent"), 12345u);
  ASSERT_EQ(decoded->gauges.size(), 1u);
  EXPECT_EQ(decoded->gauges[0].second, -3);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  const auto& h = decoded->histograms[0].second;
  const auto& original = snapshot.histograms[0].second;
  EXPECT_EQ(h.count, original.count);
  EXPECT_EQ(h.sum, original.sum);
  EXPECT_EQ(h.max, original.max);
  EXPECT_EQ(h.buckets, original.buckets);
}

TEST(ProtocolTest, RejectsOversizeAndEmptyFrameLengths) {
  // Length over kMaxFramePayload poisons the stream.
  ByteWriter writer;
  writer.WriteU32(kMaxFramePayload + 1);
  writer.WriteU8(static_cast<uint8_t>(FrameType::kChunk));
  FrameAssembler assembler;
  Bytes wire = std::move(writer).Take();
  EXPECT_FALSE(assembler.Feed(wire).ok());

  // Zero-length payload (no type byte) is equally invalid.
  ByteWriter zero;
  zero.WriteU32(0);
  FrameAssembler assembler2;
  Bytes wire2 = std::move(zero).Take();
  EXPECT_FALSE(assembler2.Feed(wire2).ok());
}

TEST(ProtocolTest, RejectsMalformedBodies) {
  // Wrong magic.
  HelloFrame hello;
  Bytes wire = EncodeHello(hello);
  auto frames = Reassemble(wire, wire.size());
  ASSERT_EQ(frames.size(), 1u);
  Frame bad_magic = frames[0];
  bad_magic.body[0] ^= 0xff;
  EXPECT_FALSE(DecodeHello(bad_magic).ok());

  // Truncated body.
  Frame truncated = frames[0];
  truncated.body.resize(truncated.body.size() / 2);
  EXPECT_FALSE(DecodeHello(truncated).ok());

  // Trailing garbage.
  Frame trailing = frames[0];
  trailing.body.push_back(0xab);
  EXPECT_FALSE(DecodeHello(trailing).ok());

  // Type confusion: a HELLO frame is not a CHUNK.
  EXPECT_FALSE(DecodeChunk(frames[0]).ok());

  // Absurd record count in a CHUNK.
  ByteWriter body;
  body.WriteU32(0);                     // seq
  body.WriteU32(kMaxChunkRecords + 1);  // claimed records
  Frame chunk{FrameType::kChunk, std::move(body).Take()};
  auto decoded = DecodeChunk(chunk);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
}

TEST(ProtocolTest, AgentReportAccumulatesAndReconciles) {
  AgentReport a;
  a.sent = 10;
  a.answered = 8;
  a.timed_out = 1;
  a.send_failed = 1;
  a.first_send = 500;
  a.last_send = 900;
  a.wall_duration = Seconds(2);
  EXPECT_TRUE(a.OutcomesReconcile());

  AgentReport b;
  b.sent = 5;
  b.answered = 5;
  b.first_send = 100;
  b.last_send = 700;
  b.wall_duration = Seconds(3);
  AgentReport merged;
  merged.Accumulate(a);
  merged.Accumulate(b);
  EXPECT_EQ(merged.sent, 15u);
  EXPECT_EQ(merged.answered, 13u);
  EXPECT_TRUE(merged.OutcomesReconcile());
  EXPECT_EQ(merged.first_send, 100);   // union of send windows
  EXPECT_EQ(merged.last_send, 900);
  EXPECT_EQ(merged.wall_duration, Seconds(3));

  merged.sent += 1;  // break the invariant
  EXPECT_FALSE(merged.OutcomesReconcile());
}

// --- scripted agent: backpressure and failure injection ---

// A minimal blocking-socket agent speaking just enough protocol to probe
// the controller: handshakes, then runs `script` over the connected fd.
class ScriptedAgent {
 public:
  ScriptedAgent() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
  }
  ~ScriptedAgent() {
    Join();
    if (fd_ >= 0) ::close(fd_);
  }

  Endpoint endpoint() const { return endpoint_; }

  // The session helper handed to the script.
  struct Session {
    int fd = -1;
    FrameAssembler assembler;

    // Blocks for the next frame; empty optional on EOF/error.
    std::optional<Frame> Read() {
      for (;;) {
        if (auto frame = assembler.Next()) return frame;
        uint8_t buffer[4096];
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) return std::nullopt;
        if (!assembler.Feed(std::span(buffer, static_cast<size_t>(n))).ok()) {
          return std::nullopt;
        }
      }
    }
    // Non-blocking-ish read: returns the next frame if one arrives within
    // `timeout_ms`, nullopt if the stream stays quiet (or a frame is still
    // partial — callers only probe with this, they don't rely on it).
    std::optional<Frame> TryRead(int timeout_ms) {
      if (auto frame = assembler.Next()) return frame;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
      uint8_t buffer[4096];
      ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      if (!assembler.Feed(std::span(buffer, static_cast<size_t>(n))).ok()) {
        return std::nullopt;
      }
      return assembler.Next();
    }
    void Write(const Bytes& frame) {
      size_t off = 0;
      while (off < frame.size()) {
        ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) return;
        off += static_cast<size_t>(n);
      }
    }
    // HELLO → HELLO_ACK, CLOCK_PINGs → zero-offset PONGs, until START.
    bool Handshake() {
      for (;;) {
        auto frame = Read();
        if (!frame) return false;
        if (frame->type == FrameType::kHello) {
          auto hello = DecodeHello(*frame);
          if (!hello.ok()) return false;
          Write(EncodeHelloAck(
              HelloAckFrame{.version = kVersion, .agent_id = hello->agent_id}));
        } else if (frame->type == FrameType::kClockPing) {
          auto ping = DecodeClockPing(*frame);
          if (!ping.ok()) return false;
          Write(EncodeClockPong(ClockPongFrame{.t1 = ping->t1,
                                               .t2 = ping->t1}));
        } else if (frame->type == FrameType::kStart) {
          return true;
        } else {
          return false;
        }
      }
    }
  };

  void Run(std::function<void(Session&)> script) {
    thread_ = std::thread([this, script = std::move(script)] {
      Session session;
      session.fd = ::accept(fd_, nullptr, nullptr);
      if (session.fd < 0) return;
      script(session);
      ::close(session.fd);
    });
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  int fd_ = -1;
  Endpoint endpoint_;
  std::thread thread_;
};

TEST(ControllerTest, CreditWindowStallsChunksNotMemory) {
  ScriptedAgent agent;
  constexpr uint32_t kWindow = 2;
  constexpr uint32_t kChunk = 16;
  const auto records = SampleRecords(160);  // 10 chunks

  std::atomic<uint64_t> records_seen{0};
  agent.Run([&](ScriptedAgent::Session& session) {
    ASSERT_TRUE(session.Handshake());
    std::vector<uint32_t> held;  // received but deliberately un-acked
    uint64_t seen = 0;
    bool done = false;
    bool probed = false;
    while (!done) {
      while (held.size() < kWindow && !done) {
        auto frame = session.Read();
        ASSERT_TRUE(frame.has_value());
        if (frame->type == FrameType::kChunk) {
          auto chunk = DecodeChunk(*frame);
          ASSERT_TRUE(chunk.ok());
          seen += chunk->records.size();
          held.push_back(chunk->seq);
        } else if (frame->type == FrameType::kInputDone) {
          done = true;
        } else {
          FAIL() << "unexpected frame type "
                 << static_cast<int>(frame->type);
        }
      }
      // First time the window fills (8 chunks still to come), the stream
      // must go quiet: a controller that overran its credit would deliver
      // another CHUNK here.
      if (!probed && !done && held.size() == kWindow) {
        probed = true;
        auto extra = session.TryRead(250);
        if (extra.has_value()) {
          EXPECT_NE(extra->type, FrameType::kChunk)
              << "controller overran the credit window";
        }
      }
      // Ack the oldest held chunk, releasing exactly one credit.
      if (!held.empty()) {
        session.Write(EncodeChunkAck(ChunkAckFrame{.seq = held.front()}));
        held.erase(held.begin());
      }
    }
    for (uint32_t seq : held) {
      session.Write(EncodeChunkAck(ChunkAckFrame{.seq = seq}));
    }
    records_seen.store(seen);
    // Minimal coherent report: everything "sent and answered".
    ReportFrame report;
    report.report.sent = seen;
    report.report.answered = seen;
    session.Write(EncodeReport(report));
    // Wait for BYE.
    while (auto frame = session.Read()) {
      if (frame->type == FrameType::kBye) break;
    }
  });

  ControllerOptions options;
  options.agents = {agent.endpoint()};
  options.chunk_records = kChunk;
  options.credit_window = kWindow;
  options.config.fast_mode = true;
  auto report = RunDistributedReplay(records, options);
  agent.Join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;
  EXPECT_EQ(records_seen.load(), records.size());
  EXPECT_TRUE(report->ReconcileDiffs().empty());
}

TEST(ControllerTest, MidRunDisconnectIsTerminalWithPartialStats) {
  ScriptedAgent agent;
  const auto records = SampleRecords(160);

  agent.Run([&](ScriptedAgent::Session& session) {
    ASSERT_TRUE(session.Handshake());
    // Accept and ack exactly one chunk, then die.
    auto frame = session.Read();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kChunk);
    auto chunk = DecodeChunk(*frame);
    ASSERT_TRUE(chunk.ok());
    session.Write(EncodeChunkAck(ChunkAckFrame{.seq = chunk->seq}));
  });

  ControllerOptions options;
  options.agents = {agent.endpoint()};
  options.chunk_records = 16;
  options.credit_window = 2;
  options.config.fast_mode = true;
  auto report = RunDistributedReplay(records, options);
  agent.Join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->failed);
  EXPECT_NE(report->error.find("agent 0"), std::string::npos)
      << report->error;
  ASSERT_EQ(report->agents.size(), 1u);
  // Partial accounting survives: some records were shipped, none lost
  // silently — the run is marked failed instead.
  EXPECT_GT(report->agents[0].records_sent, 0u);
  EXPECT_FALSE(report->agents[0].completed);
  EXPECT_FALSE(report->agents[0].error.empty());
}

TEST(ControllerTest, ConnectTimeFailureDropsAgentAndContinues) {
  ScriptedAgent live;
  // A port with nothing listening: bind, no listen() — immediate RST.
  int dead_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(dead_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(dead_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  Endpoint dead{IpAddress::Loopback(), ntohs(addr.sin_port)};

  const auto records = SampleRecords(32);
  live.Run([&](ScriptedAgent::Session& session) {
    ASSERT_TRUE(session.Handshake());
    uint64_t seen = 0;
    while (auto frame = session.Read()) {
      if (frame->type == FrameType::kChunk) {
        auto chunk = DecodeChunk(*frame);
        ASSERT_TRUE(chunk.ok());
        seen += chunk->records.size();
        session.Write(EncodeChunkAck(ChunkAckFrame{.seq = chunk->seq}));
      } else if (frame->type == FrameType::kInputDone) {
        ReportFrame report;
        report.report.sent = seen;
        report.report.answered = seen;
        session.Write(EncodeReport(report));
      } else if (frame->type == FrameType::kBye) {
        break;
      }
    }
  });

  ControllerOptions options;
  options.agents = {dead, live.endpoint()};
  options.chunk_records = 8;
  options.config.fast_mode = true;
  auto report = RunDistributedReplay(records, options);
  live.Join();
  ::close(dead_fd);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;
  ASSERT_EQ(report->agents.size(), 2u);
  EXPECT_FALSE(report->agents[0].connected);
  EXPECT_EQ(report->agents[0].records_sent, 0u);
  // The survivor absorbed the whole trace.
  EXPECT_TRUE(report->agents[1].completed);
  EXPECT_EQ(report->agents[1].records_sent, records.size());
  EXPECT_TRUE(report->ReconcileDiffs().empty());
}

// --- end to end: real agents, real replay engine, real DNS server ---

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

// One in-process agent: its own loop on its own thread, exactly like a
// separate ldp_replay_agent process would run.
struct TestAgent {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<AgentServer> server;
  std::thread thread;

  static std::unique_ptr<TestAgent> Start() {
    auto agent = std::make_unique<TestAgent>();
    auto loop = net::EventLoop::Create();
    EXPECT_TRUE(loop.ok());
    agent->loop = std::move(*loop);
    auto server = AgentServer::Start(*agent->loop, AgentOptions{});
    EXPECT_TRUE(server.ok()) << server.error().ToString();
    agent->server = std::move(*server);
    agent->thread = std::thread([raw = agent.get()] { raw->loop->Run(); });
    return agent;
  }

  ~TestAgent() {
    if (thread.joinable()) {
      loop->RequestStop();
      thread.join();
    }
  }
};

TEST(DistributedReplayTest, LoopbackTwoAgentsZeroLoss) {
  server::ShardedDnsServer::Config server_config;
  server_config.listen = Endpoint{IpAddress::Loopback(), 0};
  server_config.n_shards = 1;
  auto dns = server::ShardedDnsServer::Start(MakeViews(), server_config);
  ASSERT_TRUE(dns.ok()) << dns.error().ToString();

  auto agent0 = TestAgent::Start();
  auto agent1 = TestAgent::Start();

  auto records = SampleRecords(300);
  for (auto& record : records) {
    record.dst = (*dns)->endpoint().addr;
    record.dst_port = (*dns)->endpoint().port;
  }

  ControllerOptions options;
  options.agents = {agent0->server->local(), agent1->server->local()};
  options.config.server = (*dns)->endpoint();
  options.config.n_distributors = 1;
  options.config.queriers_per_distributor = 2;
  options.config.lookahead = Millis(100);
  options.chunk_records = 32;
  options.stats_interval = Millis(100);

  auto report = RunDistributedReplay(records, options);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;

  // Agents shut their loops down after BYE; join before inspecting.
  agent0->thread.join();
  agent1->thread.join();
  EXPECT_TRUE(agent0->server->result().ok())
      << agent0->server->result().error().ToString();
  EXPECT_TRUE(agent1->server->result().ok())
      << agent1->server->result().error().ToString();

  // Zero loss over loopback, fully reconciled across processes.
  EXPECT_EQ(report->merged.sent, records.size());
  EXPECT_EQ(report->merged.answered, records.size());
  EXPECT_TRUE(report->merged.OutcomesReconcile());
  auto diffs = report->ReconcileDiffs();
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  // Both agents did real work (20 clients spread across the ring), and
  // every client stuck to one agent: shipped totals partition the trace.
  EXPECT_GT(report->agents[0].records_sent, 0u);
  EXPECT_GT(report->agents[1].records_sent, 0u);
  EXPECT_EQ(report->agents[0].records_sent + report->agents[1].records_sent,
            records.size());
  // Per-agent metrics snapshots arrived and carry the outcome counters.
  for (const auto& agent : report->agents) {
    EXPECT_TRUE(agent.has_report);
    EXPECT_EQ(agent.final_metrics.CounterValue("replay.sent"),
              agent.report.sent);
  }
  // Merged metrics cover the whole run.
  EXPECT_EQ(report->merged_metrics.CounterValue("replay.sent"),
            records.size());

  // The server answered every query the agents sent.
  (*dns)->Stop();
  EXPECT_GE((*dns)->TotalStats().responses, records.size());
}

// Regression (fuzz_distrib target): a CHUNK body claiming 2^20 records in
// 8 bytes reserved the full count before reading a single record — a
// remote-triggered allocation amplifier. The decode must fail cheaply.
TEST(ProtocolTest, ChunkCountLargerThanBodyFailsWithoutReserving) {
  Frame frame;
  frame.type = FrameType::kChunk;
  frame.body = {0x00, 0x00, 0x00, 0x00,   // seq
                0x00, 0x10, 0x00, 0x00};  // count = 1'048'576, no records
  auto chunk = DecodeChunk(frame);
  ASSERT_FALSE(chunk.ok());
}

TEST(ProtocolTest, FrameAssemblerPoisonedAfterBadLength) {
  FrameAssembler assembler;
  Bytes bad = {0x00, 0x00, 0x00, 0x00, 0x07};  // zero-length frame
  ASSERT_FALSE(assembler.Feed(bad).ok());
  // Sticky: even a well-formed BYE frame is rejected afterwards.
  EXPECT_FALSE(assembler.Feed(EncodeBye()).ok());
  EXPECT_FALSE(assembler.Next().has_value());
}

}  // namespace
}  // namespace ldp::distrib
