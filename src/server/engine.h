// Transport-agnostic authoritative DNS server engine: the meta-DNS-server
// of paper §2.4. A single engine instance serves many zones; split-horizon
// views keyed on the query *source address* select which zone answers —
// after the recursive proxy's OQDA rewrite, that source address is the
// public address of the nameserver the querier believed it was asking.
//
// The same engine runs over the simulator (sim_server.h) and over real
// sockets (sharded_server.h): transports hand it wire bytes + the source
// address, it hands back wire bytes.
#ifndef LDPLAYER_SERVER_ENGINE_H
#define LDPLAYER_SERVER_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/ip.h"
#include "common/result.h"
#include "server/response_cache.h"
#include "zone/lookup.h"
#include "zone/view.h"

namespace ldp::server {

// A point-in-time snapshot of one engine's counters (see
// AuthServerEngine::stats). Plain integers: snapshots add and compare like
// values, which is how sharded servers aggregate across workers.
struct EngineStats {
  uint64_t queries = 0;
  uint64_t responses = 0;
  uint64_t dropped = 0;      // undecodable queries
  uint64_t refused = 0;      // no zone for qname in the matched view
  uint64_t nxdomain = 0;
  uint64_t truncated = 0;    // responses that set TC over UDP
  uint64_t response_bytes = 0;
  // Wire-level response cache (all zero when the cache is disabled).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;    // eligible queries not found in the cache
  uint64_t cache_bypass = 0;    // queries ineligible for caching
  uint64_t cache_evictions = 0;
  uint64_t cache_size = 0;      // entries at snapshot time

  EngineStats& operator+=(const EngineStats& other);
};

struct EngineOptions {
  // Capacity (entries) of the wire-level response cache; 0 disables it.
  size_t response_cache_entries = 0;
};

class AuthServerEngine {
 public:
  // The view table is shared so sharded servers can run one engine (and
  // one private response cache) per worker over the same zones.
  explicit AuthServerEngine(std::shared_ptr<const zone::ViewTable> views,
                            EngineOptions options = {});
  explicit AuthServerEngine(zone::ViewTable views, EngineOptions options = {})
      : AuthServerEngine(std::make_shared<const zone::ViewTable>(
                             std::move(views)),
                         options) {}

  // Serves one decoded query as a message (the wire entry points below
  // encode the same assembly directly). `source` selects the view.
  dns::Message HandleQuery(const dns::Message& query, IpAddress source);

  // Wire-to-wire: decode, serve, encode. `udp_limit` caps the response size
  // (EDNS-advertised or 512); pass 0 for stream transports (no truncation).
  // Returns kParseError for undecodable input (transports drop those).
  Result<Bytes> HandleWire(std::span<const uint8_t> wire, IpAddress source,
                           size_t udp_limit);

  // Stream-transport entry point: decodes once and routes to HandleAxfr
  // for AXFR questions or to the normal query path (no truncation)
  // otherwise. Each returned buffer is one DNS message to frame and send.
  Result<std::vector<Bytes>> HandleStream(std::span<const uint8_t> wire,
                                          IpAddress source);

  // AXFR (RFC 5936): the whole zone as a sequence of response messages,
  // SOA-first and SOA-last, each under the 64 KiB stream-message limit.
  // Stream transports call this when the question type is AXFR; over UDP
  // the engine REFUSEs instead. The zone is selected from the view for
  // `source`, so transfers obey split-horizon boundaries.
  Result<std::vector<Bytes>> HandleAxfr(const dns::Message& query,
                                        IpAddress source);

  // Snapshot of the counters. Increments use relaxed atomics, so another
  // thread may snapshot a shard's stats while the shard serves — no locks,
  // no torn reads (each counter individually exact; the set is only
  // loosely consistent, which aggregation tolerates).
  EngineStats stats() const;

  const zone::ViewTable& views() const { return *views_; }
  std::shared_ptr<const zone::ViewTable> shared_views() const {
    return views_;
  }
  bool response_cache_enabled() const { return cache_ != nullptr; }

 private:
  // Counters mirrored by EngineStats; mutated only by the owning thread,
  // read from anywhere.
  struct Counters {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> responses{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> refused{0};
    std::atomic<uint64_t> nxdomain{0};
    std::atomic<uint64_t> truncated{0};
    std::atomic<uint64_t> response_bytes{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> cache_bypass{0};
    std::atomic<uint64_t> cache_evictions{0};
    std::atomic<uint64_t> cache_size{0};
  };

  void BumpRcode(dns::Rcode rcode);
  // Answers a decoded query into response_: the zone for its name in the
  // view matched by `source` assembles it, or it is a zoneless REFUSED.
  // Counts the query and the response.
  void Answer(const dns::Message& query, IpAddress source);

  std::shared_ptr<const zone::ViewTable> views_;
  std::unique_ptr<ResponseCache> cache_;  // nullptr = disabled
  // Key staging for HandleWire, reused across queries so the hot path
  // amortizes the question-bytes allocation (engines are single-threaded).
  ResponseCacheKey scratch_key_;
  // The response being served, as references into the zone and into the
  // query (read only until the call that answers that query returns);
  // reused so the miss path keeps its section vectors' capacity.
  zone::Response response_;
  Counters stats_;
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_ENGINE_H
