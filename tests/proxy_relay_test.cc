// HierarchyProxy (src/proxy/relay.h): the real-socket address-rewriting
// relay must deliver the paper's §2.4 contract — the meta server sees the
// OQDA as source (its split-horizon view selector) with the client's port
// preserved, and the reply returns from the address the client queried.
// Plus the NAT-table bounds: LRU eviction under pressure, idle expiry on
// the wheel, and late replies for drained flows dropped-and-counted.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "dns/framing.h"
#include "dns/message.h"
#include "proxy/relay.h"
#include "replay/realtime.h"
#include "server/sharded_server.h"
#include "stats/metrics.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::proxy {
namespace {

// Two emulated nameserver addresses with disjoint split-horizon views:
// queries arriving (after rewrite) from kNsA must see zone a.test, from
// kNsB zone b.test. Both are 127/8 so they bind without interface config.
const IpAddress kNsA(127, 51, 0, 10);
const IpAddress kNsB(127, 52, 0, 10);

zone::ZoneSet OneZoneSet(const std::string& origin,
                         const std::string& answer_v4) {
  auto zone = zone::ParseMasterFile(
      "$ORIGIN " + origin + "\n" +
          "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
          "@ IN NS ns1\n"
          "ns1 IN A 192.0.2.53\n"
          "* IN A " + answer_v4 + "\n",
      zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok()) << origin;
  zone::ZoneSet set;
  EXPECT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  return set;
}

std::shared_ptr<const zone::ViewTable> SplitHorizonViews() {
  zone::ViewTable views;
  EXPECT_TRUE(
      views.AddView("a", {kNsA}, OneZoneSet("a.test.", "192.0.2.1")).ok());
  EXPECT_TRUE(
      views.AddView("b", {kNsB}, OneZoneSet("b.test.", "192.0.2.2")).ok());
  return std::make_shared<const zone::ViewTable>(std::move(views));
}

sockaddr_in SockAddr(IpAddress addr, uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(addr.value());
  return sa;
}

// Blocking UDP client pinned to a specific local port, so the test can
// assert the rewrite preserved it end to end.
class UdpClient {
 public:
  explicit UdpClient(uint16_t local_port = 0) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in local = SockAddr(IpAddress::Loopback(), local_port);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&local),
                     sizeof(local)),
              0);
  }
  ~UdpClient() { ::close(fd_); }

  uint16_t port() const {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
    return ntohs(local.sin_port);
  }

  void SendTo(Endpoint dst, const Bytes& wire) {
    sockaddr_in sa = SockAddr(dst.addr, dst.port);
    EXPECT_EQ(::sendto(fd_, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              static_cast<ssize_t>(wire.size()));
  }

  // Returns the payload and fills `from` with the responder's address.
  Bytes Recv(IpAddress* from = nullptr, int timeout_ms = 5000) {
    timeval tv{.tv_sec = timeout_ms / 1000,
               .tv_usec = (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    uint8_t buf[65536];
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    ssize_t got = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&sa), &len);
    if (got <= 0) return {};
    if (from != nullptr) *from = IpAddress(ntohl(sa.sin_addr.s_addr));
    return Bytes(buf, buf + got);
  }

 private:
  int fd_ = -1;
};

Bytes MakeQueryWire(const std::string& qname, uint16_t id) {
  auto query = dns::Message::MakeQuery(*dns::Name::Parse(qname),
                                       dns::RRType::kA, false);
  query.id = id;
  return query.Encode();
}

// A stand-in meta server the test controls: records each query's rewritten
// source endpoint and replies only when told to, so eviction and expiry
// can be staged deterministically.
class ManualMeta {
 public:
  ManualMeta() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in local = SockAddr(IpAddress::Loopback(), 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&local),
                     sizeof(local)),
              0);
  }
  ~ManualMeta() { ::close(fd_); }

  Endpoint endpoint() const {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
    return Endpoint{IpAddress::Loopback(), ntohs(local.sin_port)};
  }

  struct Seen {
    Endpoint from;  // the relay's rewritten source: (OQDA, client port)
    Bytes wire;
  };

  std::optional<Seen> Read(int timeout_ms = 5000) {
    timeval tv{.tv_sec = timeout_ms / 1000,
               .tv_usec = (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    uint8_t buf[65536];
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    ssize_t got = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&sa), &len);
    if (got <= 0) return std::nullopt;
    return Seen{Endpoint{IpAddress(ntohl(sa.sin_addr.s_addr)),
                         ntohs(sa.sin_port)},
                Bytes(buf, buf + got)};
  }

  void ReplyTo(const Seen& seen) {
    auto query = dns::Message::Decode(seen.wire);
    ASSERT_TRUE(query.ok());
    auto reply = *query;
    reply.qr = true;
    Bytes wire = reply.Encode();
    sockaddr_in sa = SockAddr(seen.from.addr, seen.from.port);
    EXPECT_EQ(::sendto(fd_, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              static_cast<ssize_t>(wire.size()));
  }

 private:
  int fd_ = -1;
};

bool WaitFor(const std::function<bool()>& done, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(HierarchyProxyTest, UdpRewriteRoundTripPreservesPortAndView) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(SplitHorizonViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  stats::MetricsRegistry registry;
  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  config.metrics = &registry;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  uint16_t service_port = (*relay)->port();
  ASSERT_NE(service_port, 0);

  // Same client socket queries both emulated addresses: each query must
  // match its address's view, and each reply must come back *from* the
  // address that was queried.
  UdpClient client;
  struct Case {
    IpAddress ns;
    std::string qname;
    IpAddress want;
  };
  for (const Case& c : {Case{kNsA, "www.a.test", IpAddress(192, 0, 2, 1)},
                        Case{kNsB, "www.b.test", IpAddress(192, 0, 2, 2)}}) {
    client.SendTo(Endpoint{c.ns, service_port}, MakeQueryWire(c.qname, 42));
    IpAddress from(0u);
    Bytes wire = client.Recv(&from);
    ASSERT_FALSE(wire.empty()) << c.qname;
    EXPECT_EQ(from, c.ns) << "reply must come from the queried address";
    auto reply = dns::Message::Decode(wire);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->rcode, dns::Rcode::kNoError) << c.qname;
    ASSERT_EQ(reply->answers.size(), 1u) << c.qname;
  }

  // The client can hold the reply before the shard thread has bumped its
  // counters (the datagram is queued mid-SendBatch, the Add comes after);
  // wait for the ledger to settle instead of racing it.
  WaitFor([&] { return (*relay)->TotalStats().responses_out >= 2; });
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.queries_in, 2u);
  EXPECT_EQ(stats.responses_out, 2u);
  // Port-preserving: both relay sockets bound (OQDA, client_port) without
  // falling back to an ephemeral port — the meta server saw the client's
  // own port, which is what view-keyed per-client state depends on.
  EXPECT_EQ(stats.port_fallbacks, 0u);
  EXPECT_EQ(stats.flows_created, 2u);  // one per (client, OQDA) pair

  // The same totals must be visible through the registry under proxy.*.
  stats::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("proxy.queries_in"), 2u);
  EXPECT_EQ(snapshot.CounterValue("proxy.responses_out"), 2u);
  EXPECT_EQ(snapshot.GaugeValue("proxy.flow_table"), stats.active_flows);
  EXPECT_NE(snapshot.Histogram("proxy.rewrite_ns"), nullptr);

  (*relay)->Stop();
  (*meta)->Stop();
  // Polled counters must survive Stop() for the final snapshot.
  EXPECT_EQ(registry.Snapshot().CounterValue("proxy.queries_in"), 2u);
}

TEST(HierarchyProxyTest, TcpSpliceRewriteRoundTrip) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = true;
  auto meta = server::ShardedDnsServer::Start(SplitHorizonViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = (*meta)->endpoint();
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  // TCP to the emulated address: the splice must dial the meta server
  // *from* kNsB so the split-horizon view still matches, then re-frame
  // the response back down this connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa = SockAddr(kNsB, (*relay)->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  Bytes framed =
      std::move(dns::FrameMessage(MakeQueryWire("deep.www.b.test", 99))).value();
  ASSERT_EQ(::write(fd, framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));

  dns::StreamAssembler assembler;
  Bytes reply_wire;
  uint8_t buf[4096];
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (reply_wire.empty()) {
    ssize_t got = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(got, 0) << "no framed reply within timeout";
    ASSERT_TRUE(assembler.Feed(std::span<const uint8_t>(buf,
                                                        static_cast<size_t>(
                                                            got)))
                    .ok());
    if (auto message = assembler.NextMessage()) reply_wire = *message;
  }
  ::close(fd);

  auto reply = dns::Message::Decode(reply_wire);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->id, 99);
  EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);
  ASSERT_EQ(reply->answers.size(), 1u);

  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.tcp_accepted, 1u);
  EXPECT_EQ(stats.tcp_queries, 1u);
  EXPECT_EQ(stats.tcp_responses, 1u);
  (*relay)->Stop();
  (*meta)->Stop();
}

// Port 0: the UDP listener picks the service port and the splice's TCP
// listener must take the same number. With ~500 TCP listeners holding
// ephemeral numbers on the emulated address, every one of 400 starts must
// still succeed.
TEST(HierarchyProxyTest, EphemeralPortSurvivesTcpPortCollisions) {
  std::vector<int> held;
  for (int i = 0; i < 500; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr = SockAddr(kNsA, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 1), 0);
    held.push_back(fd);
  }

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = Endpoint{IpAddress::Loopback(), 53};  // never dialed
  config.splice_tcp = true;
  int failed = 0;
  for (int i = 0; i < 400; ++i) {
    auto relay = HierarchyProxy::Start(config);
    if (!relay.ok()) {
      ++failed;
      ADD_FAILURE() << "start " << i << ": " << relay.error().ToString();
      continue;
    }
    (*relay)->Stop();
  }
  for (int fd : held) ::close(fd);
  EXPECT_EQ(failed, 0);
}

TEST(HierarchyProxyTest, LruEvictionDropsAndCountsLateReplies) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_capacity = 4;
  config.flow_linger = Seconds(5);  // keep drained sockets observable
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  Endpoint service{kNsA, (*relay)->port()};

  // Six distinct client ports → six flows through a table of four: the
  // two oldest get LRU-evicted into the draining state.
  std::vector<std::unique_ptr<UdpClient>> clients;
  std::vector<ManualMeta::Seen> seen;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(std::make_unique<UdpClient>());
    clients.back()->SendTo(service,
                           MakeQueryWire("q" + std::to_string(i) + ".a.test",
                                         static_cast<uint16_t>(i)));
    auto arrived = meta.Read();
    ASSERT_TRUE(arrived.has_value()) << "query " << i << " never relayed";
    EXPECT_EQ(arrived->from.addr, kNsA);  // rewritten source is the OQDA
    EXPECT_EQ(arrived->from.port, clients.back()->port());
    seen.push_back(*arrived);
  }
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_evicted >= 2;
  })) << "LRU never evicted under pressure";
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.flows_created, 6u);
  EXPECT_EQ(stats.active_flows, 4);

  // A late reply for the oldest (evicted) flow must be dropped and
  // counted, not forwarded to the client.
  meta.ReplyTo(seen[0]);
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().evicted_drops >= 1;
  })) << "late reply for drained flow was not counted";
  EXPECT_TRUE(clients[0]->Recv(nullptr, 200).empty())
      << "evicted flow must not deliver";

  // A reply for a still-resident flow is delivered normally.
  meta.ReplyTo(seen[5]);
  EXPECT_FALSE(clients[5]->Recv(nullptr, 5000).empty());
  (*relay)->Stop();
}

TEST(HierarchyProxyTest, IdleFlowsExpireOnTheWheel) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_idle_timeout = Millis(50);
  config.flow_linger = Millis(50);
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  UdpClient client;
  client.SendTo(Endpoint{kNsA, (*relay)->port()},
                MakeQueryWire("idle.a.test", 1));
  ASSERT_TRUE(meta.Read().has_value());
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_expired >= 1;
  })) << "idle flow never expired";
  EXPECT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().active_flows == 0;
  }));
  (*relay)->Stop();
}

TEST(HierarchyProxyTest, RestartMidReplayRetransmitsRecover) {
  // Wildcard view keyed on the emulated source, so every replayed query
  // is answerable.
  zone::ViewTable views;
  ASSERT_TRUE(
      views.AddView("a", {kNsA}, OneZoneSet("a.test.", "192.0.2.9")).ok());
  auto shared_views =
      std::make_shared<const zone::ViewTable>(std::move(views));

  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(shared_views, sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const uint16_t service_port = (*relay)->port();

  workload::FixedIntervalConfig tconfig;
  tconfig.interarrival = Millis(1);
  tconfig.duration = Millis(600);
  tconfig.n_clients = 8;
  tconfig.base_name = *dns::Name::Parse("a.test");
  auto records = workload::MakeFixedIntervalTrace(tconfig);
  for (auto& record : records) {
    record.dst = kNsA;
    record.dst_port = service_port;
  }

  replay::RealtimeConfig rconfig;
  rconfig.follow_trace_dst = true;  // already bindable 127/8 addresses
  rconfig.n_distributors = 1;
  rconfig.queriers_per_distributor = 1;
  rconfig.query_timeout = Millis(250);
  rconfig.max_retransmits = 4;

  // Kill the proxy ~1/4 into the replay and bring a fresh one up on the
  // same port: queries in flight during the gap must be recovered by the
  // replay engine's retransmits, landing on the restarted proxy.
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    (*relay)->Stop();
    RelayConfig again = config;
    again.port = service_port;
    auto second = HierarchyProxy::Start(again);
    ASSERT_TRUE(second.ok()) << second.error().ToString();
    relay = std::move(second);
  });
  auto report = replay::RunRealtimeReplay(records, rconfig);
  restarter.join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();

  EXPECT_EQ(report->queries_sent, records.size());
  EXPECT_EQ(report->answered, records.size())
      << "retransmits must recover queries lost across the restart "
      << "(timed_out=" << report->timed_out
      << " send_failed=" << report->send_failed << ")";
  (*relay)->Stop();
  (*meta)->Stop();
}

}  // namespace
}  // namespace ldp::proxy
