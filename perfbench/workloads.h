// The three benchmark workloads: what each replays, at what rate, and the
// zones the server answers it from. Inputs are a function of the seed;
// the zones are fixed so that every seed runs against the same server.
#ifndef LDPLAYER_PERFBENCH_WORKLOADS_H
#define LDPLAYER_PERFBENCH_WORKLOADS_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ip.h"
#include "trace/record.h"
#include "zone/view.h"

namespace ldp::perfbench {

struct WorkloadSpec {
  std::string name;
  double rate_qps = 0;  // open-loop offered rate (trace timing)
  bool via_proxy = false;
  bool tcp = false;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Fixed deployment parameters shared by every workload.
inline constexpr size_t kServerShards = 2;
inline constexpr size_t kProxyShards = 1;
inline constexpr size_t kDistributors = 1;
inline constexpr size_t kQueriersPerDistributor = 3;
inline constexpr size_t kResponseCacheEntries = 16384;  // per server shard
inline constexpr int kUdpRecvBufferBytes = 4 << 20;
inline constexpr size_t kRootTlds = 100;
// A TCP workload's sources are folded onto this many client addresses, so
// the replay holds exactly this many long-lived connections.
inline constexpr size_t kTcpClients = 4;

// The server's split-horizon table for a workload, with the footprint of
// its zones.
struct ServedZones {
  std::shared_ptr<const zone::ViewTable> views;
  size_t zone_bytes = 0;
};
ServedZones BuildServedZones(const WorkloadSpec& spec);

// A generated trace plus what the correctness gate needs to know about it.
struct Trace {
  std::vector<trace::QueryRecord> records;
  // Queries whose qname is not under any delegated TLD: the root must
  // answer each with NXDOMAIN (B-Root workloads only).
  uint64_t expected_nxdomain = 0;
  // Every nameserver address of the hierarchy (hierarchy-proxy only): the
  // loopback aliases the proxy must listen on.
  std::vector<IpAddress> proxy_addresses;
};
Trace MakeTrace(const WorkloadSpec& spec, uint64_t seed,
                NanoDuration duration);

}  // namespace ldp::perfbench

#endif  // LDPLAYER_PERFBENCH_WORKLOADS_H
