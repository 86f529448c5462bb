#include "workloads.h"

#include <unordered_set>

#include "common/rng.h"
#include "resolver/resolver.h"
#include "server/sim_server.h"
#include "sim/network.h"
#include "workload/hierarchy.h"
#include "workload/traces.h"

namespace ldp::perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  // Rates sit near half the rate at which loss first appeared on a 4-vCPU
  // VM under hypervisor steal, so every workload replays with zero timeouts
  // in steady state.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "broot-udp", .rate_qps = 10000},
      {.name = "hierarchy-proxy", .rate_qps = 7500, .via_proxy = true},
      {.name = "broot-tcp", .rate_qps = 10000, .tcp = true},
  };
  return kWorkloads;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const auto& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

namespace {

// The default 521-zone hierarchy (root, 20 TLDs, 500 SLDs, two nameserver
// addresses each), close to the 549 zones of the paper's recursive trace.
workload::Hierarchy DefaultHierarchy() {
  return workload::BuildHierarchy(workload::HierarchyConfig{});
}

// Stub traffic each simulated recursive resolver serves, and how often a
// new resolver joins the population (see RecursiveUpstreamQueries).
constexpr size_t kStubQueriesPerResolver = 2000;
constexpr NanoDuration kResolverJoinInterval = Seconds(10);

// The first `count` queries that a population of caching recursive
// resolvers sends to the hierarchy's nameservers. Each resolver is a
// resolver::SimResolver that starts cold and resolves its own
// workload::MakeRecursiveTrace stub stream against a simulated Internet
// with one authoritative node per nameserver address; its queries are
// captured as they leave it. So the split between root, TLD and SLD
// queries is what the resolvers' caches leave, not a chosen mix: a
// resolver asks the root only until it holds a TLD's referral. A new
// resolver joins every kResolverJoinInterval of simulated time, so the
// population holds cold and warm caches side by side. The records are in
// simulated send order and carry simulated times.
std::vector<trace::QueryRecord> RecursiveUpstreamQueries(
    const workload::Hierarchy& hierarchy, size_t count, uint64_t seed) {
  sim::Simulator simulator;
  sim::SimNetwork net(simulator);
  std::vector<std::unique_ptr<server::SimDnsServer>> nodes;
  for (const auto& zone : hierarchy.AllZones()) {
    for (IpAddress address : hierarchy.nameservers.at(zone->origin())) {
      zone::ZoneSet set;
      (void)set.AddZone(zone);
      nodes.push_back(
          server::MakeAuthoritativeNode(net, address, std::move(set)));
    }
  }

  std::vector<trace::QueryRecord> records;
  auto capture = [&records, &simulator](sim::SimPacket& packet) {
    if (packet.kind == sim::SegmentKind::kUdp && packet.dst_port == 53) {
      auto query = dns::Message::Decode(packet.payload);
      if (query.ok() && !query->qr && !query->questions.empty()) {
        records.push_back(trace::QueryRecord::FromMessage(
            *query, simulator.Now(), packet.src, packet.src_port, packet.dst,
            packet.dst_port, trace::Protocol::kUdp));
      }
    }
    return false;  // a passive tap: the query still goes out
  };
  std::vector<std::unique_ptr<resolver::SimResolver>> resolvers;
  resolver::ResolverConfig config;
  config.root_hints = hierarchy.nameservers.at(dns::Name::Root());
  NanoTime joined = 0;
  while (records.size() < count) {
    size_t r = resolvers.size();
    config.address = IpAddress(10, 0, static_cast<uint8_t>(1 + r / 250),
                               static_cast<uint8_t>(1 + r % 250));
    auto& resolver = *resolvers.emplace_back(
        std::make_unique<resolver::SimResolver>(net, config));
    net.SetEgressHook(config.address, capture);
    workload::RecConfig stubs;
    stubs.n_records = kStubQueriesPerResolver;
    stubs.server = config.address;
    stubs.seed = seed * 1000003 + r;
    for (auto& stub : workload::MakeRecursiveTrace(stubs, hierarchy)) {
      simulator.ScheduleAt(
          joined + stub.timestamp,
          [&resolver, qname = std::move(stub.qname), qtype = stub.qtype] {
            resolver.Resolve(qname, qtype, [](const dns::Message&) {});
          });
    }
    joined += kResolverJoinInterval;
    simulator.RunUntil(joined);
  }
  records.resize(count);
  return records;
}

// The hierarchy-proxy trace: the recursive population's upstream queries,
// in their simulated order, retimed as an open-loop Poisson stream at
// `rate_qps`. The simulated stubs arrive far slower than the workload's
// rate, so only the order and content of the queries are kept.
Trace MakeHierarchyTrace(const workload::Hierarchy& hierarchy,
                         double rate_qps, NanoDuration duration,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<NanoTime> times;
  double mean_gap_ns = 1e9 / rate_qps;
  double t = rng.NextExponential(mean_gap_ns);
  while (t < static_cast<double>(duration)) {
    times.push_back(static_cast<NanoTime>(t));
    t += rng.NextExponential(mean_gap_ns);
  }
  Trace out;
  out.records = RecursiveUpstreamQueries(hierarchy, times.size(), seed);
  for (size_t i = 0; i < times.size(); ++i) {
    out.records[i].timestamp = times[i];
  }
  for (const auto& [address, origin] : hierarchy.address_to_zone) {
    out.proxy_addresses.push_back(LoopbackAlias(address));
  }
  return out;
}

}  // namespace

ServedZones BuildServedZones(const WorkloadSpec& spec) {
  ServedZones out;
  zone::ViewTable views;
  if (spec.via_proxy) {
    // One view per zone, matched on the proxy's rewritten sources: the
    // loopback aliases of that zone's nameserver addresses. No default
    // view, so a source that matches nothing is REFUSED and shows.
    auto hierarchy = DefaultHierarchy();
    for (const auto& zone : hierarchy.AllZones()) {
      zone::ZoneSet set;
      (void)set.AddZone(zone);
      out.zone_bytes += set.TotalMemoryFootprint();
      std::vector<IpAddress> sources;
      for (IpAddress addr : hierarchy.nameservers.at(zone->origin())) {
        sources.push_back(LoopbackAlias(addr));
      }
      (void)views.AddView(zone->origin().ToString(), sources, std::move(set));
    }
  } else {
    auto root = workload::BuildRootHierarchy(kRootTlds, /*sign=*/true,
                                             zone::DnssecConfig{});
    zone::ZoneSet set;
    (void)set.AddZone(root.root);
    out.zone_bytes = set.TotalMemoryFootprint();
    views.SetDefaultView(std::move(set));
  }
  out.views = std::make_shared<const zone::ViewTable>(std::move(views));
  return out;
}

Trace MakeTrace(const WorkloadSpec& spec, uint64_t seed,
                NanoDuration duration) {
  if (spec.via_proxy) {
    return MakeHierarchyTrace(DefaultHierarchy(), spec.rate_qps, duration,
                              seed);
  }
  Trace out;

  workload::BRootConfig config;
  config.median_rate_qps = spec.rate_qps;
  config.duration = duration;
  config.n_tlds = kRootTlds;
  config.tcp_fraction = spec.tcp ? 1.0 : 0.0;
  config.seed = seed;
  out.records = workload::MakeBRootTrace(config);

  std::unordered_set<std::string> tlds;
  for (size_t i = 0; i < kRootTlds; ++i) tlds.insert(workload::TldLabel(i));
  for (auto& record : out.records) {
    const auto& labels = record.qname.labels();
    if (!labels.empty() && !tlds.contains(labels.back())) {
      ++out.expected_nxdomain;
    }
    if (spec.tcp) {
      record.src = IpAddress(
          10, 9, 0, static_cast<uint8_t>(1 + record.src.value() % kTcpClients));
    }
  }
  return out;
}

}  // namespace ldp::perfbench
