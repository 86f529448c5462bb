// Byte identity of the engine's serving path: HandleWire and HandleStream
// encode responses straight from zone references, and their bytes must equal
// what the message path produces, zone::BuildResponse + Message::Encode,
// under the same size limit. Covers the signed root with generated B-Root
// queries and the emulated hierarchy through each of its views, with EDNS
// absent or advertising 512, 1232 or 4096 bytes, DO on and off, so UDP
// truncation (and its rollback) is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "server/engine.h"
#include "workload/hierarchy.h"
#include "workload/traces.h"

namespace ldp::server {
namespace {

constexpr size_t kUdpLimit = 65535;  // what the socket server passes

// The query as the client would send it, under each EDNS variant.
std::vector<dns::Message> EdnsVariants(const dns::Message& query) {
  std::vector<dns::Message> out;
  dns::Message plain = query;
  plain.edns.reset();
  out.push_back(plain);
  for (uint16_t size : {512, 1232, 4096}) {
    for (bool do_bit : {false, true}) {
      dns::Message variant = query;
      variant.edns = dns::Edns{.udp_payload_size = size, .do_bit = do_bit};
      out.push_back(variant);
    }
  }
  return out;
}

// The engine's UDP ceiling for a query (server/engine.cc EffectiveLimit).
size_t UdpLimitFor(const dns::Message& query) {
  size_t ceiling = query.edns.has_value() ? query.edns->udp_payload_size
                                          : dns::kMaxUdpPayloadDefault;
  return std::min(kUdpLimit, std::max(ceiling, dns::kMaxUdpPayloadDefault));
}

struct Counts {
  size_t checked = 0;
  size_t truncated = 0;
  size_t refused = 0;
};

// Sends `query` through `engine` from `source` and compares both wire
// entry points with the message path.
void ExpectIdentical(AuthServerEngine& engine, const dns::Message& query,
                     IpAddress source, Counts& counts) {
  const zone::ZoneSet* view = engine.views().Match(source);
  const zone::Zone* zone =
      view != nullptr ? view->FindBestZone(query.questions.front().name)
                      : nullptr;
  bool want_dnssec = query.edns.has_value() && query.edns->do_bit;
  // The message path: BuildResponse when a zone answers; a zoneless
  // REFUSED is the engine's own, so compare against its HandleQuery.
  dns::Message expected =
      zone != nullptr ? zone::BuildResponse(*zone, query, want_dnssec)
                      : engine.HandleQuery(query, source);
  if (zone == nullptr) ++counts.refused;

  Bytes wire = query.Encode();
  auto udp = engine.HandleWire(wire, source, kUdpLimit);
  ASSERT_TRUE(udp.ok());
  Bytes expected_udp = expected.Encode(UdpLimitFor(query));
  ASSERT_EQ(*udp, expected_udp) << query.questions.front().ToText();
  if (expected_udp[2] & 0x02) ++counts.truncated;

  auto stream = engine.HandleStream(wire, source);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream->size(), 1u);
  ASSERT_EQ(stream->front(), expected.Encode(dns::kMaxMessageSize))
      << query.questions.front().ToText();
  ++counts.checked;
}

TEST(WireIdentity, BRootQueriesAgainstTheSignedRoot) {
  auto root = workload::BuildRootHierarchy(100, /*sign=*/true,
                                           zone::DnssecConfig{});
  zone::ZoneSet zones;
  ASSERT_TRUE(zones.AddZone(root.root).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(zones));
  AuthServerEngine engine(std::move(views));

  workload::BRootConfig config;
  config.median_rate_qps = 400;
  config.duration = Seconds(2);
  config.seed = 13;
  auto records = workload::MakeBRootTrace(config);
  ASSERT_GT(records.size(), 500u);

  Counts counts;
  for (size_t i = 0; i < records.size(); ++i) {
    dns::Message query = records[i].ToMessage();
    if (i % 4 == 0) {
      // Mixed case, as 0x20-randomizing resolvers send it.
      auto labels = query.questions.front().name.labels();
      for (auto& label : labels) {
        label[0] = static_cast<char>(std::toupper(label[0]));
      }
      query.questions.front().name = *dns::Name::FromLabels(labels);
    }
    for (const auto& variant : EdnsVariants(query)) {
      ExpectIdentical(engine, variant, IpAddress(10, 0, 0, 9), counts);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(counts.refused, 0u);
  EXPECT_GT(counts.truncated, 0u) << "no response exercised truncation";
}

TEST(WireIdentity, HierarchyQueriesThroughEveryView) {
  auto hierarchy = workload::BuildHierarchy(workload::HierarchyConfig{});
  zone::ViewTable views;
  std::vector<IpAddress> sources;
  for (const auto& zone : hierarchy.AllZones()) {
    zone::ZoneSet set;
    ASSERT_TRUE(set.AddZone(zone).ok());
    const auto& addresses = hierarchy.nameservers.at(zone->origin());
    sources.push_back(addresses.front());
    ASSERT_TRUE(
        views.AddView(zone->origin().ToString(), addresses, std::move(set))
            .ok());
  }
  AuthServerEngine engine(std::move(views));

  workload::RecConfig stubs;
  stubs.n_records = 40;
  auto records = workload::MakeRecursiveTrace(stubs, hierarchy);

  Counts counts;
  for (const auto& record : records) {
    dns::Message query = record.ToMessage();
    for (IpAddress source : sources) {
      for (const auto& variant : EdnsVariants(query)) {
        ExpectIdentical(engine, variant, source, counts);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(counts.checked, 10000u);
  EXPECT_GT(counts.refused, 0u);  // names outside a view's zone
}

}  // namespace
}  // namespace ldp::server
