// ShardedDnsServer: N worker threads behind one SO_REUSEPORT address must
// answer like a single server, and the aggregate stats snapshot must equal
// the sum of the per-shard snapshots (each engine is private: no query is
// ever double-counted or lost).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "server/sharded_server.h"
#include "stats/metrics.h"
#include "zone/masterfile.h"

namespace ldp::server {
namespace {

std::shared_ptr<const zone::ViewTable> MakeViews() {
  auto zone = zone::ParseMasterFile(R"(
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
)",
                                    zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok());
  zone::ZoneSet set;
  EXPECT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  return std::make_shared<const zone::ViewTable>(std::move(views));
}

// A minimal blocking UDP client: its own socket per call, so queries
// spread across the reuseport shards by source port.
Bytes Exchange(Endpoint server, const Bytes& query) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port);
  addr.sin_addr.s_addr = htonl(server.addr.value());
  EXPECT_EQ(::sendto(fd, query.data(), query.size(), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(query.size()));
  uint8_t buf[65536];
  ssize_t got = ::recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
  ::close(fd);
  EXPECT_GT(got, 0) << "no reply within timeout";
  if (got <= 0) return {};
  return Bytes(buf, buf + got);
}

TEST(ShardedServer, AnswersAcrossShardsAndAggregatesStats) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 4;
  config.serve_tcp = false;
  config.engine.response_cache_entries = 64;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  EXPECT_EQ((*server)->n_shards(), 4u);
  EXPECT_NE((*server)->endpoint().port, 0);  // ephemeral port resolved

  const int kQueries = 48;
  for (int i = 0; i < kQueries; ++i) {
    auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.example.com"),
                                         dns::RRType::kA, false);
    query.id = static_cast<uint16_t>(1000 + i);
    Bytes reply_wire = Exchange((*server)->endpoint(), query.Encode());
    ASSERT_FALSE(reply_wire.empty());
    auto reply = dns::Message::Decode(reply_wire);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->id, query.id);
    EXPECT_TRUE(reply->qr);
    EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);
    ASSERT_EQ(reply->answers.size(), 1u);
  }

  // Every query was counted exactly once, and the aggregate equals the
  // sum of the per-shard snapshots.
  EngineStats total = (*server)->TotalStats();
  EXPECT_EQ(total.queries, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(total.responses, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(total.cache_hits + total.cache_misses,
            static_cast<uint64_t>(kQueries));

  EngineStats summed;
  for (const EngineStats& shard : (*server)->ShardStats()) summed += shard;
  EXPECT_EQ(summed.queries, total.queries);
  EXPECT_EQ(summed.responses, total.responses);
  EXPECT_EQ(summed.cache_hits, total.cache_hits);
  EXPECT_EQ(summed.cache_misses, total.cache_misses);
  EXPECT_EQ(summed.response_bytes, total.response_bytes);

  (*server)->Stop();
  (*server)->Stop();  // idempotent
  EXPECT_EQ((*server)->TotalStats().queries, total.queries);
}

// A blocking TCP client holding its connection open; one framed query
// exchange per call.
class TcpClient {
 public:
  explicit TcpClient(Endpoint server) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port);
    addr.sin_addr.s_addr = htonl(server.addr.value());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  // Sends one length-framed query and reads one length-framed reply;
  // empty on EOF or timeout.
  Bytes Exchange(const Bytes& query) {
    Bytes framed;
    framed.push_back(static_cast<uint8_t>(query.size() >> 8));
    framed.push_back(static_cast<uint8_t>(query.size()));
    framed.insert(framed.end(), query.begin(), query.end());
    if (::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(framed.size())) {
      return {};
    }
    uint8_t len_buf[2];
    if (!ReadExact(len_buf, 2)) return {};
    size_t len = (static_cast<size_t>(len_buf[0]) << 8) | len_buf[1];
    Bytes reply(len);
    if (!ReadExact(reply.data(), len)) return {};
    return reply;
  }

  // True when the server has closed this connection (EOF observed).
  bool WaitForEof() {
    uint8_t byte;
    ssize_t got = ::recv(fd_, &byte, 1, 0);
    return got == 0;
  }

 private:
  bool ReadExact(uint8_t* out, size_t n) {
    size_t have = 0;
    while (have < n) {
      ssize_t got = ::recv(fd_, out + have, n - have, 0);
      if (got <= 0) return false;
      have += static_cast<size_t>(got);
    }
    return true;
  }

  int fd_ = -1;
};

TEST(ShardedServer, TcpAcceptsSpreadAcrossShards) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 2;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  // 64 concurrent connections from distinct ephemeral ports: the kernel's
  // 4-tuple hash puts some on each SO_REUSEPORT listener. (The chance of
  // 64 independent picks all landing on one of two shards is 2^-63.)
  const size_t kConns = 64;
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (size_t i = 0; i < kConns; ++i) {
    auto client = std::make_unique<TcpClient>((*server)->endpoint());
    ASSERT_TRUE(client->connected());
    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = static_cast<uint16_t>(i + 1);
    Bytes reply = client->Exchange(query.Encode());
    ASSERT_FALSE(reply.empty());
    clients.push_back(std::move(client));
  }

  TcpStats total = (*server)->TotalTcpStats();
  EXPECT_EQ(total.accepted, kConns);
  EXPECT_EQ(total.open, kConns);
  EXPECT_EQ(total.rejected, 0u);
  std::vector<TcpStats> per_shard = (*server)->ShardTcpStats();
  ASSERT_EQ(per_shard.size(), 2u);
  for (size_t i = 0; i < per_shard.size(); ++i) {
    EXPECT_GT(per_shard[i].accepted, 0u)
        << "shard " << i << " accepted nothing: TCP accept is pinned";
  }
}

TEST(ShardedServer, ConnectionCapRejectsThenIdleEvictionReadmits) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 1;
  config.max_tcp_connections = 4;
  config.tcp_idle_timeout = Millis(200);
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  // Fill the table. Each exchange proves the connection was admitted.
  std::vector<std::unique_ptr<TcpClient>> held;
  for (size_t i = 0; i < 4; ++i) {
    auto client = std::make_unique<TcpClient>((*server)->endpoint());
    ASSERT_TRUE(client->connected());
    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = static_cast<uint16_t>(i + 1);
    ASSERT_FALSE(client->Exchange(query.Encode()).empty());
    held.push_back(std::move(client));
  }

  // One over the cap: the TCP connect completes (kernel backlog), but the
  // server closes it on accept — the client observes an immediate EOF.
  TcpClient over((*server)->endpoint());
  ASSERT_TRUE(over.connected());
  EXPECT_TRUE(over.WaitForEof());
  EXPECT_GE((*server)->TotalTcpStats().rejected, 1u);

  // Idle eviction drains the table (nothing inflight, 200ms timeout) and
  // resumes the paused listener.
  for (auto& client : held) EXPECT_TRUE(client->WaitForEof());
  held.clear();
  TcpStats after = (*server)->TotalTcpStats();
  EXPECT_EQ(after.idle_closed, 4u);
  EXPECT_EQ(after.open, 0u);

  // Below the cap again: a fresh connection is served end to end.
  TcpClient fresh((*server)->endpoint());
  ASSERT_TRUE(fresh.connected());
  auto query = dns::Message::MakeQuery(*dns::Name::Parse("ns1.example.com"),
                                       dns::RRType::kA, false);
  query.id = 99;
  EXPECT_FALSE(fresh.Exchange(query.Encode()).empty());
}

TEST(ShardedServer, SingleShardServesTcpAndUdp) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 1;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  auto query = dns::Message::MakeQuery(*dns::Name::Parse("ns1.example.com"),
                                       dns::RRType::kA, false);
  query.id = 7;
  Bytes reply_wire = Exchange((*server)->endpoint(), query.Encode());
  ASSERT_FALSE(reply_wire.empty());
  auto reply = dns::Message::Decode(reply_wire);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);
  EXPECT_EQ((*server)->TotalStats().queries, 1u);
}

// Port 0 hands UDP an ephemeral number that TCP must then take too. With
// ~500 TCP listeners holding ephemeral numbers on the same address, some
// of 400 starts draw a taken one; every start must still succeed.
TEST(ShardedServerTest, EphemeralPortSurvivesTcpPortCollisions) {
  std::vector<int> held;
  for (int i = 0; i < 500; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 1), 0);
    held.push_back(fd);
  }

  auto views = MakeViews();
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 1;
  config.serve_tcp = true;
  int failed = 0;
  for (int i = 0; i < 400; ++i) {
    auto server = ShardedDnsServer::Start(views, config);
    if (!server.ok()) {
      ++failed;
      ADD_FAILURE() << "start " << i << ": " << server.error().ToString();
      continue;
    }
    (*server)->Stop();
  }
  for (int fd : held) ::close(fd);
  EXPECT_EQ(failed, 0);
}

// The registry-backed counters are polled from the engine and the stream
// lane's counters through shared_ptr captures, so a snapshot taken after
// the server is destroyed still reads them (under ASan a dangling capture
// fails here).
TEST(ShardedServer, RegistersMetricsThatOutliveTheServer) {
  stats::MetricsRegistry metrics;
  {
    ShardedDnsServer::Config config;
    config.listen = Endpoint{IpAddress::Loopback(), 0};
    config.n_shards = 1;
    config.metrics = &metrics;
    auto server = ShardedDnsServer::Start(MakeViews(), config);
    ASSERT_TRUE(server.ok()) << server.error().ToString();

    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = 11;
    ASSERT_FALSE(Exchange((*server)->endpoint(), query.Encode()).empty());
    TcpClient client((*server)->endpoint());
    ASSERT_TRUE(client.connected());
    query.id = 12;
    ASSERT_FALSE(client.Exchange(query.Encode()).empty());
  }  // client, then server, destroyed

  stats::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("server.queries"), 2u);
  EXPECT_EQ(snapshot.CounterValue("server.tcp_accepted"), 1u);
  // Registered (CounterValue is 0 for unknown names too) and untouched.
  EXPECT_TRUE(std::any_of(snapshot.counters.begin(), snapshot.counters.end(),
                          [](const auto& counter) {
                            return counter.first == "framing.stream_drops";
                          }));
  EXPECT_EQ(snapshot.CounterValue("framing.stream_drops"), 0u);
  const stats::HistogramSnapshot* udp_batch =
      snapshot.Histogram("server.udp_batch");
  ASSERT_NE(udp_batch, nullptr);
  EXPECT_GT(udp_batch->count, 0u);
}

}  // namespace
}  // namespace ldp::server
