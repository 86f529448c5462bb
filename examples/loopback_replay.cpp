// Real-socket replay on loopback: the distributed query engine (controller
// → distributors → queriers) replaying a trace against a real UDP/TCP DNS
// server through the kernel, with replay-fidelity statistics like the
// paper's §4.2 (timing error, rate error).
//
//   ./build/examples/loopback_replay
#include <cstdio>

#include "replay/realtime.h"
#include "server/sharded_server.h"
#include "stats/summary.h"
#include "workload/traces.h"
#include "zone/dnssec.h"
#include "zone/masterfile.h"

using namespace ldp;

int main() {
  // A wildcard zone answers every unique replayed name (paper §4.1).
  auto zone = zone::ParseMasterFile(
      "$ORIGIN example.com.\n"
      "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.53\n"
      "* IN A 192.0.2.200\n",
      zone::MasterFileOptions{});
  if (!zone.ok()) {
    std::fprintf(stderr, "%s\n", zone.error().ToString().c_str());
    return 1;
  }
  zone::ZoneSet zones;
  if (!zones.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok()) {
    return 1;
  }
  auto views = std::make_shared<zone::ViewTable>();
  views->SetDefaultView(std::move(zones));

  // One shard: the server runs its own loop on its own thread.
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};  // ephemeral port
  sconfig.n_shards = 1;
  auto server = server::ShardedDnsServer::Start(views, sconfig);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.error().ToString().c_str());
    return 1;
  }
  std::printf("authoritative server on %s\n",
              (*server)->endpoint().ToString().c_str());

  // A 10-second trace at 1 ms fixed inter-arrival (syn-3 style).
  workload::FixedIntervalConfig tconfig;
  tconfig.interarrival = Millis(1);
  tconfig.duration = Seconds(10);
  auto records = workload::MakeFixedIntervalTrace(tconfig);
  for (auto& r : records) {
    r.dst = (*server)->endpoint().addr;
    r.dst_port = (*server)->endpoint().port;
  }
  std::printf("replaying %zu queries over UDP in real time...\n",
              records.size());

  replay::RealtimeConfig rconfig;
  rconfig.server = (*server)->endpoint();
  rconfig.n_distributors = 2;
  rconfig.queriers_per_distributor = 3;
  auto report = replay::RunRealtimeReplay(records, rconfig);

  (*server)->Stop();
  if (!report.ok()) {
    std::fprintf(stderr, "replay: %s\n", report.error().ToString().c_str());
    return 1;
  }

  std::printf("sent %llu, answered %llu, wall time %.2f s\n",
              static_cast<unsigned long long>(report->queries_sent),
              static_cast<unsigned long long>(report->answered),
              ToSeconds(report->wall_duration));

  stats::Summary timing;
  timing.AddAll(report->TimingErrorsMs(/*skip_first=*/100));
  auto dist = timing.Summarize();
  std::printf("query-time error vs trace (ms): %s\n",
              dist.ToString(3).c_str());

  stats::Summary rate;
  for (double e : report->RateErrors()) rate.Add(e * 100.0);
  std::printf("per-second rate error (%%):     %s\n",
              rate.Summarize().ToString(3).c_str());
  std::printf("(compare paper Fig 6: quartiles within a few ms; "
              "Fig 8: rate within ±0.1%%)\n");
  return 0;
}
