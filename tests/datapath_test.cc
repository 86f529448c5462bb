// Integration tests for the DatagramPath transport seam (net/datapath.h):
// epoll round-trip semantics, the full serve→replay chain through the
// interface with exact terminal accounting, and — when the host allows
// AF_PACKET rings — the same through the afpacket backend, including the
// wildcard-ring OQDA delivery and source-spoofed replies the hierarchy
// proxy depends on. Afpacket cases skip with the probe's reason on hosts
// without CAP_NET_RAW or ring support.
#include "net/datapath.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "net/event_loop.h"
#include "replay/realtime.h"
#include "server/sharded_server.h"
#include "stats/metrics.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::net {
namespace {

TEST(DatapathKindTest, ParseAndName) {
  auto epoll = ParseDatapathKind("epoll");
  ASSERT_TRUE(epoll.ok());
  EXPECT_EQ(*epoll, DatapathKind::kEpoll);
  auto afpacket = ParseDatapathKind("afpacket");
  ASSERT_TRUE(afpacket.ok());
  EXPECT_EQ(*afpacket, DatapathKind::kAfPacket);
  EXPECT_FALSE(ParseDatapathKind("dpdk").ok());
  EXPECT_FALSE(ParseDatapathKind("").ok());
  EXPECT_EQ(DatapathKindName(DatapathKind::kEpoll), "epoll");
  EXPECT_EQ(DatapathKindName(DatapathKind::kAfPacket), "afpacket");
}

// One datagram each way through a backend; asserts the RecvItem address
// semantics: `from` is the sender, `to` is the address the datagram
// targeted (== local() for concretely-bound paths).
void RoundTrip(DatapathKind kind) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  DatapathOptions options;
  options.kind = kind;

  const Bytes query = {'q', 'u', 'e', 'r', 'y'};
  const Bytes reply = {'r', 'e', 'p', 'l', 'y', '!'};

  std::unique_ptr<DatagramPath> server;
  size_t server_got = 0;
  Endpoint server_saw_from, server_saw_to;
  auto server_result = DatagramPath::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const DatagramPath::RecvItem> batch) {
        for (const auto& item : batch) {
          ++server_got;
          server_saw_from = item.from;
          server_saw_to = item.to;
          EXPECT_EQ(item.payload.size(), query.size());
          DatagramPath::SendItem out{reply, item.from, {}};
          EXPECT_EQ(server->SendBatch({&out, 1}), 1u);
        }
      },
      options);
  ASSERT_TRUE(server_result.ok()) << server_result.error().ToString();
  server = std::move(*server_result);
  ASSERT_NE(server->local().port, 0) << "ephemeral bind must resolve";
  EXPECT_EQ(server->kind(), kind);

  size_t client_got = 0;
  Endpoint client_saw_from;
  Bytes client_payload;
  auto client_result = DatagramPath::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const DatagramPath::RecvItem> batch) {
        for (const auto& item : batch) {
          ++client_got;
          client_saw_from = item.from;
          client_payload.assign(item.payload.begin(), item.payload.end());
        }
        (*loop)->Stop();
      },
      options);
  ASSERT_TRUE(client_result.ok()) << client_result.error().ToString();
  auto client = std::move(*client_result);

  ASSERT_TRUE(client->SendTo(query, server->local()).ok());
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();

  ASSERT_EQ(server_got, 1u);
  EXPECT_EQ(server_saw_from, client->local());
  EXPECT_EQ(server_saw_to, server->local());
  ASSERT_EQ(client_got, 1u);
  EXPECT_EQ(client_saw_from, server->local());
  EXPECT_EQ(client_payload, reply);
}

TEST(DatapathTest, EpollRoundTrip) { RoundTrip(DatapathKind::kEpoll); }

// The epoll backend counts the datagrams it moves: a path with a registry
// sends N (through both send calls) to an echo peer without one and hears
// N echoes, so datapath.tx_frames and datapath.rx_frames each read N.
TEST(DatapathTest, EpollCountsFramesEachWay) {
  constexpr size_t kFrames = 40;  // the SendBatch part spans two chunks
  constexpr size_t kBatched = 34;
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::unique_ptr<DatagramPath> echo;
  auto echo_result = DatagramPath::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const DatagramPath::RecvItem> batch) {
        for (const auto& item : batch) {
          EXPECT_TRUE(echo->SendTo(item.payload, item.from).ok());
        }
      });
  ASSERT_TRUE(echo_result.ok()) << echo_result.error().ToString();
  echo = std::move(*echo_result);

  stats::MetricsRegistry metrics;
  DatapathOptions options;
  options.metrics = &metrics;
  size_t echoed = 0;
  auto path_result = DatagramPath::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const DatagramPath::RecvItem> batch) {
        echoed += batch.size();
        if (echoed == kFrames) (*loop)->Stop();
      },
      options);
  ASSERT_TRUE(path_result.ok()) << path_result.error().ToString();
  auto path = std::move(*path_result);

  const Bytes payload = {'n'};
  std::vector<DatagramPath::SendItem> items(
      kBatched, DatagramPath::SendItem{payload, echo->local(), {}});
  ASSERT_EQ(path->SendBatch(items), kBatched);
  for (size_t i = kBatched; i < kFrames; ++i) {
    ASSERT_TRUE(path->SendTo(payload, echo->local()).ok());
  }
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();

  ASSERT_EQ(echoed, kFrames);
  const stats::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("datapath.tx_frames"), kFrames);
  EXPECT_EQ(snapshot.CounterValue("datapath.rx_frames"), kFrames);
}

TEST(DatapathTest, AfPacketRoundTrip) {
  if (auto probe = ProbeAfPacket({}); !probe.ok()) {
    GTEST_SKIP() << "afpacket unavailable: " << probe.error().ToString();
  }
  RoundTrip(DatapathKind::kAfPacket);
}

// The hierarchy-proxy contract: one wildcard ring hears every address on
// its port, reports the queried address in RecvItem::to, and replies can
// spoof that address back via SendItem::from.
TEST(DatapathTest, AfPacketWildcardRingDeliversOqdaAndSpoofsSource) {
  if (auto probe = ProbeAfPacket({}); !probe.ok()) {
    GTEST_SKIP() << "afpacket unavailable: " << probe.error().ToString();
  }
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  DatapathOptions options;
  options.kind = DatapathKind::kAfPacket;

  const IpAddress alias = *IpAddress::Parse("127.6.5.4");
  const Bytes query = {'o', 'q', 'd', 'a'};
  const Bytes reply = {'o', 'k'};

  // Wildcard ring: unspecified address, ephemeral port (the shadow socket
  // resolves it); matches on port alone.
  std::unique_ptr<DatagramPath> ring;
  Endpoint ring_saw_to;
  auto ring_result = DatagramPath::Open(
      **loop, Endpoint{IpAddress(), 0},
      [&](std::span<const DatagramPath::RecvItem> batch) {
        for (const auto& item : batch) {
          ring_saw_to = item.to;
          // Answer from the address the client actually queried.
          DatagramPath::SendItem out{reply, item.from, item.to};
          EXPECT_EQ(ring->SendBatch({&out, 1}), 1u);
        }
      },
      options);
  ASSERT_TRUE(ring_result.ok()) << ring_result.error().ToString();
  ring = std::move(*ring_result);
  const uint16_t port = ring->local().port;
  ASSERT_NE(port, 0);

  Endpoint client_saw_from;
  size_t client_got = 0;
  auto client_result = DatagramPath::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const DatagramPath::RecvItem> batch) {
        for (const auto& item : batch) {
          ++client_got;
          client_saw_from = item.from;
        }
        (*loop)->Stop();
      },
      options);
  ASSERT_TRUE(client_result.ok()) << client_result.error().ToString();
  auto client = std::move(*client_result);

  // Query an address nothing is bound to; only the wildcard ring hears it.
  ASSERT_TRUE(client->SendTo(query, Endpoint{alias, port}).ok());
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();

  EXPECT_EQ(ring_saw_to, (Endpoint{alias, port}));
  ASSERT_EQ(client_got, 1u);
  EXPECT_EQ(client_saw_from, (Endpoint{alias, port}))
      << "reply must carry the spoofed source";
}

// --- Full serve→replay chain through the DatagramPath seam ---

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

// Boots a one-shard server on `kind`, replays `n` queries through a
// querier on the same kind, and checks the terminal-accounting invariant:
// every send ends answered, timed out, or failed — nothing vanishes.
void ServeReplayChain(DatapathKind kind, size_t n) {
  server::ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 1;
  config.serve_tcp = false;
  config.datapath = kind;
  auto server = server::ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  workload::FixedIntervalConfig trace_config;
  trace_config.interarrival = Millis(1);
  trace_config.duration = Millis(static_cast<int64_t>(n));
  trace_config.n_clients = 10;
  auto records = workload::MakeFixedIntervalTrace(trace_config);
  for (auto& r : records) {
    r.dst = (*server)->endpoint().addr;
    r.dst_port = (*server)->endpoint().port;
  }

  replay::RealtimeConfig replay_config;
  replay_config.server = (*server)->endpoint();
  replay_config.fast_mode = true;
  replay_config.query_timeout = Seconds(2);
  replay_config.datapath = kind;
  auto report = replay::RunRealtimeReplay(records, replay_config);
  (*server)->Stop();

  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, records.size());
  // The satellite invariant: counters tie out exactly.
  EXPECT_EQ(report->queries_sent,
            report->answered + report->timed_out + report->send_failed);
  // Loopback against a live server: effectively lossless.
  EXPECT_GE(report->answered, records.size() - 2);
}

TEST(DatapathTest, EpollServeReplayChainAccountsForEveryQuery) {
  ServeReplayChain(DatapathKind::kEpoll, 200);
}

TEST(DatapathTest, AfPacketServeReplayChainAccountsForEveryQuery) {
  if (auto probe = ProbeAfPacket({}); !probe.ok()) {
    GTEST_SKIP() << "afpacket unavailable: " << probe.error().ToString();
  }
  ServeReplayChain(DatapathKind::kAfPacket, 200);
}

}  // namespace
}  // namespace ldp::net
