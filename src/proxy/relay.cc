#include "proxy/relay.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <list>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/log.h"
#include "dns/framing.h"
#include "net/datapath.h"
#include "net/event_loop.h"
#include "net/sockets.h"
#include "replay/timing.h"
#include "stats/counters.h"

namespace ldp::proxy {
namespace {

// One flow per (client endpoint, listener address). The OQDA is part of
// the key: the same client talking to two emulated nameservers holds two
// flows, each with its own relay socket bound to the right source.
struct FlowKey {
  Endpoint client;
  IpAddress oqda;
  bool operator==(const FlowKey&) const = default;
};

struct FlowKeyHash {
  size_t operator()(const FlowKey& key) const noexcept {
    uint64_t packed = (uint64_t{key.client.addr.value()} << 32) |
                      (uint64_t{key.client.port} << 16) |
                      (key.oqda.value() >> 16);
    return std::hash<uint64_t>()(packed ^ (uint64_t{key.oqda.value()} << 40));
  }
};

// Relaxed-atomic counters shared with polled-metric lambdas: held by
// shared_ptr so a registry snapshot taken after the proxy is destroyed
// still reads the final totals (same pattern as replay's
// TransportCounters).
struct ShardCounters {
  // Per-site attribution; deque because RelaxedCounter is pinned in place.
  // Sized once at Start (before any metric lambda captures the pointer),
  // immutable after.
  struct SiteCounters {
    stats::RelaxedCounter queries_in;
    stats::RelaxedCounter responses_out;
  };
  std::deque<SiteCounters> sites;

  stats::RelaxedCounter rewritten;
  stats::RelaxedCounter passed_through;
  stats::RelaxedCounter queries_in;
  stats::RelaxedCounter responses_in;
  stats::RelaxedCounter responses_out;
  stats::RelaxedCounter flows_created;
  stats::RelaxedCounter flows_evicted;
  stats::RelaxedCounter flows_expired;
  stats::RelaxedCounter evicted_drops;
  stats::RelaxedCounter port_fallbacks;
  stats::RelaxedCounter meta_send_errors;
  stats::RelaxedCounter tcp_accepted;
  stats::RelaxedCounter tcp_queries;
  stats::RelaxedCounter tcp_responses;
  stats::RelaxedCounter tcp_reconnects;
  stats::RelaxedCounter tcp_failed;
  std::atomic<int64_t> active_flows{0};
};

void RegisterRelayMetrics(stats::MetricsRegistry* metrics,
                          std::shared_ptr<ShardCounters> counters,
                          const std::vector<SiteSpec>& sites) {
  for (size_t i = 0; i < sites.size(); ++i) {
    metrics->AddCounterFn("proxy.site." + sites[i].name + ".queries",
                          [counters, i] {
                            return counters->sites[i].queries_in.Get();
                          });
    metrics->AddCounterFn("proxy.site." + sites[i].name + ".responses",
                          [counters, i] {
                            return counters->sites[i].responses_out.Get();
                          });
  }
  auto counter = [&](const char* name,
                     stats::RelaxedCounter ShardCounters::*field) {
    metrics->AddCounterFn(
        name, [counters, field] { return (counters.get()->*field).Get(); });
  };
  counter("proxy.rewritten", &ShardCounters::rewritten);
  counter("proxy.passed_through", &ShardCounters::passed_through);
  counter("proxy.queries_in", &ShardCounters::queries_in);
  counter("proxy.responses_in", &ShardCounters::responses_in);
  counter("proxy.responses_out", &ShardCounters::responses_out);
  counter("proxy.flows_created", &ShardCounters::flows_created);
  counter("proxy.flows_evicted", &ShardCounters::flows_evicted);
  counter("proxy.flows_expired", &ShardCounters::flows_expired);
  counter("proxy.evicted_drops", &ShardCounters::evicted_drops);
  counter("proxy.port_fallbacks", &ShardCounters::port_fallbacks);
  counter("proxy.meta_send_errors", &ShardCounters::meta_send_errors);
  counter("proxy.tcp_accepted", &ShardCounters::tcp_accepted);
  counter("proxy.tcp_queries", &ShardCounters::tcp_queries);
  counter("proxy.tcp_responses", &ShardCounters::tcp_responses);
  counter("proxy.tcp_reconnects", &ShardCounters::tcp_reconnects);
  counter("proxy.tcp_failed", &ShardCounters::tcp_failed);
  metrics->AddGaugeFn("proxy.flow_table", [counters] {
    return counters->active_flows.load(std::memory_order_relaxed);
  });
}

constexpr size_t kDnsHeaderBytes = 12;
constexpr int kEphemeralBindRetries = 8;

NanoDuration RelayTickFor(const RelayConfig& config) {
  NanoDuration shortest =
      std::min(config.flow_idle_timeout > 0 ? config.flow_idle_timeout
                                            : Seconds(30),
               config.flow_linger > 0 ? config.flow_linger : Seconds(1));
  return std::clamp<NanoDuration>(shortest / 8, Millis(1), Millis(250));
}

}  // namespace

// One worker shard: event loop, the SO_REUSEPORT listener set, and a
// private flow table + wheel + counters. Everything except the counters is
// loop-thread-only after Start.
struct HierarchyProxy::Shard {
  struct Flow {
    uint64_t id = 0;
    FlowKey key;
    std::unique_ptr<net::DatagramPath> sock;
    bool draining = false;
    size_t site = 0;  // catchment assignment, fixed for the flow's life
    std::list<uint64_t>::iterator lru_it;
  };

  // A spliced TCP pass-through (shard 0 only). Callbacks capture the
  // splice id, never pointers: disposed splices are simply not found, and
  // dead connections die in the graveyard one loop pass later — the same
  // lifecycle discipline as the replay querier.
  struct Splice {
    IpAddress oqda;
    std::unique_ptr<net::TcpConnection> client;
    std::unique_ptr<net::TcpConnection> upstream;
    dns::StreamAssembler from_client;
    dns::StreamAssembler from_upstream;
    bool up_connected = false;
    int attempts = 0;  // reconnect budget used; reset by a reply
    uint64_t next_seq = 0;
    struct Entry {
      uint64_t seq = 0;  // arrival order, for redelivery
      Bytes frame;       // length-prefixed query, kept for redelivery
    };
    std::unordered_map<uint16_t, Entry> inflight;  // by DNS ID
    std::deque<uint16_t> backlog;  // awaiting upstream connect/reconnect
    net::TimerHandle reconnect_timer;
  };

  RelayConfig config;
  std::unique_ptr<net::EventLoop> loop;
  // Epoll: one path per emulated address. Afpacket: a single wildcard
  // ring; listener_by_addr then maps every configured address to it, so
  // the map doubles as the "is this one of ours" ingress check.
  std::vector<std::unique_ptr<net::DatagramPath>> listeners;
  std::unordered_map<IpAddress, net::DatagramPath*> listener_by_addr;
  std::vector<std::unique_ptr<net::TcpListener>> tcp_listeners;
  std::shared_ptr<ShardCounters> counters =
      std::make_shared<ShardCounters>();
  std::thread thread;

  // Flow table.
  std::unordered_map<uint64_t, Flow> flows;  // by id (draining included)
  std::unordered_map<FlowKey, uint64_t, FlowKeyHash> flows_by_key;
  std::list<uint64_t> lru;  // front = coldest active flow
  uint64_t next_flow_id = 1;
  replay::TimerWheel wheel{Millis(8), 512};
  NanoDuration tick_interval = Millis(8);
  bool tick_armed = false;
  std::vector<uint64_t> expired;

  // Reply staging, reused across batches (as in the server's UDP lane).
  std::vector<net::DatagramPath::SendItem> reply_items;

  // TCP splices (shard 0 only).
  std::unordered_map<uint64_t, std::unique_ptr<Splice>> splices;
  uint64_t next_splice_id = 1;
  std::vector<std::unique_ptr<net::TcpConnection>> graveyard_conns;
  std::vector<std::unique_ptr<Splice>> graveyard_splices;
  bool sweep_armed = false;

  // Optional per-shard histogram instances (registry-owned).
  stats::LogHistogram* rewrite_ns = nullptr;
  stats::LogHistogram* udp_batch = nullptr;

  // Binds the UDP listeners on `port` (one per emulated address on epoll,
  // one wildcard ring on afpacket) and, with `splice_tcp`, a TCP listener
  // per address. Port 0 takes the first listener's ephemeral port. Safe to
  // call again after a failure: it first drops what the last call bound.
  Status Bind(uint16_t port, const net::DatapathOptions& dp_options,
              bool splice_tcp) {
    listeners.clear();
    listener_by_addr.clear();
    tcp_listeners.clear();
    auto handler = [this](std::span<const net::DatagramPath::RecvItem> items) {
      OnIngressBatch(items);
    };
    // Afpacket: one wildcard ring carries every emulated address (the
    // steering filter matches the service port alone and OnIngressBatch
    // reads the OQDA from each frame). Epoll: one socket per address.
    const bool wildcard = config.datapath == net::DatapathKind::kAfPacket;
    for (IpAddress address : config.addresses) {
      if (!wildcard || listeners.empty()) {
        LDP_ASSIGN_OR_RETURN(
            auto listener,
            net::DatagramPath::Open(
                *loop, Endpoint{wildcard ? IpAddress() : address, port},
                handler, dp_options));
        port = listener->local().port;
        listeners.push_back(std::move(listener));
      }
      listener_by_addr[address] = listeners.back().get();
    }
    if (!splice_tcp) return Status::Ok();
    for (IpAddress address : config.addresses) {
      LDP_ASSIGN_OR_RETURN(
          auto listener,
          net::TcpListener::Listen(
              *loop, Endpoint{address, port},
              [this](std::unique_ptr<net::TcpConnection> conn) {
                OnTcpAccept(std::move(conn));
              }));
      tcp_listeners.push_back(std::move(listener));
    }
    return Status::Ok();
  }

  // --- flow table ---

  void Touch(Flow& flow) {
    lru.splice(lru.end(), lru, flow.lru_it);  // move to hottest position
    wheel.Schedule(flow.id, MonotonicNow() + config.flow_idle_timeout);
    ArmTick();
  }

  // Active -> draining: unreachable by key, excluded from the LRU, socket
  // kept open for flow_linger so late replies are counted, not invisible.
  void MoveToDraining(Flow& flow, stats::RelaxedCounter& reason) {
    flow.draining = true;
    lru.erase(flow.lru_it);
    counters->active_flows.fetch_sub(1, std::memory_order_relaxed);
    auto by_key = flows_by_key.find(flow.key);
    if (by_key != flows_by_key.end() && by_key->second == flow.id) {
      flows_by_key.erase(by_key);
    }
    reason.Add();
    wheel.Schedule(flow.id, MonotonicNow() + config.flow_linger);
    ArmTick();
  }

  Flow* FlowFor(Endpoint client, IpAddress oqda) {
    FlowKey key{client, oqda};
    auto it = flows_by_key.find(key);
    if (it != flows_by_key.end()) return &flows.at(it->second);

    if (lru.size() >= config.flow_capacity && !lru.empty()) {
      MoveToDraining(flows.at(lru.front()), counters->flows_evicted);
    }

    uint64_t id = next_flow_id++;
    // Port-preserving relay bind: the meta server should see the client's
    // original source port (paper §2.4, "ports pass through untouched").
    // A collision (e.g. two clients sharing a port across evict/re-create,
    // or the service port itself) falls back to an ephemeral port.
    auto handler = [this, id](std::span<const net::DatagramPath::RecvItem>
                                  items) { OnRelayBatch(id, items); };
    auto sock = net::DatagramPath::Open(
        *loop, Endpoint{oqda, client.port}, handler);
    if (!sock.ok()) {
      counters->port_fallbacks.Add();
      sock = net::DatagramPath::Open(*loop, Endpoint{oqda, 0}, handler);
      if (!sock.ok()) {
        LDP_DEBUG << "relay bind failed: " << sock.error().ToString();
        return nullptr;
      }
    }

    Flow flow;
    flow.id = id;
    flow.key = key;
    flow.sock = std::move(*sock);
    if (!config.sites.empty()) {
      flow.site = config.catchment.Lookup(client.addr);
    }
    flow.lru_it = lru.insert(lru.end(), id);
    auto emplaced = flows.emplace(id, std::move(flow));
    flows_by_key.emplace(key, id);
    counters->flows_created.Add();
    counters->active_flows.fetch_add(1, std::memory_order_relaxed);
    wheel.Schedule(id, MonotonicNow() + config.flow_idle_timeout);
    ArmTick();
    return &emplaced.first->second;
  }

  void ArmTick() {
    if (tick_armed || wheel.empty()) return;
    tick_armed = true;
    loop->ScheduleAfter(tick_interval, [this]() { OnTick(); });
  }

  void OnTick() {
    tick_armed = false;
    expired.clear();
    wheel.Advance(MonotonicNow(), expired);
    for (uint64_t id : expired) {
      auto it = flows.find(id);
      if (it == flows.end()) continue;
      if (it->second.draining) {
        flows.erase(it);  // linger over: the relay socket closes here
      } else {
        MoveToDraining(it->second, counters->flows_expired);
      }
    }
    ArmTick();
  }

  // --- UDP data path ---

  // Queries arriving at an emulated nameserver address. The paper's
  // recursive-proxy rewrite (src := OQDA, dst := meta) is realized by
  // forwarding from the flow's relay socket, which is bound to the OQDA.
  // Each datagram carries the address it targeted (RecvItem::to): the
  // listener's own address on epoll paths, the parsed destination on the
  // wildcard afpacket ring.
  void OnIngressBatch(std::span<const net::DatagramPath::RecvItem> items) {
    NanoTime t0 = MonotonicNow();
    if (udp_batch != nullptr) udp_batch->Record(items.size());
    for (const auto& item : items) {
      counters->queries_in.Add();
      IpAddress oqda = item.to.addr;
      if (item.payload.size() < kDnsHeaderBytes ||
          !listener_by_addr.contains(oqda)) {
        // Not a DNS message — or (wildcard ring only) a datagram for an
        // address we don't emulate that happens to share the service
        // port. Nothing to rewrite; the iptables analogue would never
        // have captured it.
        counters->passed_through.Add();
        continue;
      }
      Flow* flow = FlowFor(item.from, oqda);
      if (flow == nullptr) {
        counters->meta_send_errors.Add();
        continue;
      }
      if (flow->site < counters->sites.size()) {
        counters->sites[flow->site].queries_in.Add();
      }
      auto status = flow->sock->SendTo(item.payload, config.meta_server);
      if (status.ok()) {
        counters->rewritten.Add();
      } else {
        counters->meta_send_errors.Add();
      }
      Touch(*flow);
    }
    if (rewrite_ns != nullptr && !items.empty()) {
      // Per-query rewrite+forward cost, averaged over the batch.
      rewrite_ns->Record(static_cast<uint64_t>(
          (MonotonicNow() - t0) / static_cast<int64_t>(items.size())));
    }
  }

  // Meta-server replies landing on one flow's relay socket. The reverse
  // rewrite (src := OQDA, dst := client) is realized by answering from
  // the listener bound to the OQDA.
  void OnRelayBatch(uint64_t flow_id,
                    std::span<const net::DatagramPath::RecvItem> items) {
    auto it = flows.find(flow_id);
    if (it == flows.end()) return;
    Flow& flow = it->second;
    if (flow.draining) {
      // The flow was evicted/expired before the meta server answered:
      // accountable loss, not silence.
      counters->evicted_drops.Add(items.size());
      return;
    }
    counters->responses_in.Add(items.size());
    auto listener = listener_by_addr.find(flow.key.oqda);
    if (listener == listener_by_addr.end()) return;  // unreachable
    // `from` makes the reply leave from the queried address: redundant on
    // an epoll path (already bound to the OQDA), load-bearing on the
    // wildcard afpacket ring, which writes it into the IPv4 header.
    Endpoint reply_source{flow.key.oqda, listener->second->local().port};
    NanoDuration rtt =
        flow.site < config.sites.size() ? config.sites[flow.site].rtt : 0;
    if (rtt > 0) {
      // Anycast RTT injection: hold the reply for the flow's site delay.
      // Payloads are copied (the recv spans die with this batch) and the
      // send runs on this same loop thread, so the shared reply_items
      // staging and counters stay single-writer.
      std::vector<Bytes> held;
      held.reserve(items.size());
      for (const auto& item : items) {
        held.emplace_back(item.payload.begin(), item.payload.end());
      }
      net::DatagramPath* path = listener->second;
      Endpoint client = flow.key.client;
      size_t site = flow.site;
      loop->ScheduleAfter(
          rtt, [this, path, client, reply_source, site,
                held = std::move(held)]() {
            reply_items.clear();
            for (const auto& payload : held) {
              reply_items.push_back(
                  net::DatagramPath::SendItem{payload, client, reply_source});
            }
            SendReplies(*path, site);
          });
    } else {
      reply_items.clear();
      for (const auto& item : items) {
        reply_items.push_back(net::DatagramPath::SendItem{
            item.payload, flow.key.client, reply_source});
      }
      SendReplies(*listener->second, flow.site);
    }
    Touch(flow);
  }

  // Flushes reply_items through `path`, attributing to `site`.
  void SendReplies(net::DatagramPath& path, size_t site) {
    size_t accepted = path.SendBatch(reply_items);
    counters->responses_out.Add(accepted);
    counters->rewritten.Add(accepted);
    if (site < counters->sites.size()) {
      counters->sites[site].responses_out.Add(accepted);
    }
  }

  // --- TCP splice (shard 0) ---

  void OnTcpAccept(std::unique_ptr<net::TcpConnection> conn) {
    counters->tcp_accepted.Add();
    uint64_t id = next_splice_id++;
    auto splice = std::make_unique<Splice>();
    splice->oqda = conn->local().addr;  // the address the client dialed
    splice->client = std::move(conn);
    Splice* raw = splice.get();
    splices.emplace(id, std::move(splice));
    auto status = net::TcpListener::AdoptHandlers(
        *raw->client,
        [this, id](std::span<const uint8_t> data) { OnClientData(id, data); },
        [this, id](Status) { DisposeSplice(id); });
    if (!status.ok()) {
      DisposeSplice(id);
      return;
    }
    StartUpstream(id, /*port_preserving=*/true);
  }

  void StartUpstream(uint64_t id, bool port_preserving) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    BuryUpstream(splice);
    splice.up_connected = false;
    splice.from_upstream = dns::StreamAssembler();  // new stream, new framing
    net::TcpConnectOptions options;
    // Dial from the OQDA so the meta server's view match sees it; keep the
    // client's port on the first attempt (reconnects use an ephemeral port
    // — the old 4-tuple may linger in TIME_WAIT).
    options.local = Endpoint{
        splice.oqda,
        port_preserving ? splice.client->remote().port : uint16_t{0}};
    auto conn = net::TcpConnection::Connect(
        *loop, config.meta_server,
        [this, id](Status status) { OnUpstreamConnected(id, status); },
        [this, id](std::span<const uint8_t> data) {
          OnUpstreamData(id, data);
        },
        [this, id](Status) { OnUpstreamClosed(id); }, options);
    if (!conn.ok() && port_preserving) {
      counters->port_fallbacks.Add();
      options.local.port = 0;
      conn = net::TcpConnection::Connect(
          *loop, config.meta_server,
          [this, id](Status status) { OnUpstreamConnected(id, status); },
          [this, id](std::span<const uint8_t> data) {
            OnUpstreamData(id, data);
          },
          [this, id](Status) { OnUpstreamClosed(id); }, options);
    }
    if (!conn.ok()) {
      RetryOrFail(id);
      return;
    }
    splice.upstream = std::move(*conn);
  }

  void OnClientData(uint64_t id, std::span<const uint8_t> data) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    if (!splice.from_client.Feed(data).ok()) {
      DisposeSplice(id);
      return;
    }
    while (auto wire = splice.from_client.NextMessage()) {
      if (wire->size() < kDnsHeaderBytes) {
        counters->passed_through.Add();
        continue;
      }
      counters->tcp_queries.Add();
      uint16_t dns_id =
          static_cast<uint16_t>(((*wire)[0] << 8) | (*wire)[1]);
      Splice::Entry entry;
      entry.seq = splice.next_seq++;
      // *wire came out of a StreamAssembler, so it fits a u16 frame.
      entry.frame = std::move(dns::FrameMessage(*wire)).value();
      // A client reusing an inflight ID orphans the old query — it could
      // never be demultiplexed anyway.
      splice.inflight[dns_id] = std::move(entry);
      if (splice.up_connected && splice.backlog.empty()) {
        auto status = splice.upstream->Send(splice.inflight[dns_id].frame);
        if (status.ok()) {
          counters->rewritten.Add();
        } else {
          splice.backlog.push_back(dns_id);  // close event will re-queue
        }
      } else {
        splice.backlog.push_back(dns_id);
      }
    }
  }

  void OnUpstreamConnected(uint64_t id, Status status) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    if (!status.ok()) {
      BuryUpstream(*it->second);
      RetryOrFail(id);
      return;
    }
    Splice& splice = *it->second;
    splice.up_connected = true;
    while (!splice.backlog.empty()) {
      uint16_t dns_id = splice.backlog.front();
      auto entry = splice.inflight.find(dns_id);
      if (entry != splice.inflight.end()) {
        if (!splice.upstream->Send(entry->second.frame).ok()) break;
        counters->rewritten.Add();
      }
      splice.backlog.pop_front();
    }
  }

  void OnUpstreamData(uint64_t id, std::span<const uint8_t> data) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    if (!splice.from_upstream.Feed(data).ok()) return;
    while (auto wire = splice.from_upstream.NextMessage()) {
      if (wire->size() < 2) continue;
      uint16_t dns_id =
          static_cast<uint16_t>(((*wire)[0] << 8) | (*wire)[1]);
      splice.inflight.erase(dns_id);
      splice.attempts = 0;  // a live reply refills the reconnect budget
      counters->tcp_responses.Add();
      counters->rewritten.Add();
      Bytes framed = std::move(dns::FrameMessage(*wire)).value();
      auto status = splice.client->Send(framed);
      (void)status;  // client gone => its close callback disposes us
    }
  }

  void OnUpstreamClosed(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    splice.up_connected = false;
    BuryUpstream(splice);
    if (splice.inflight.empty()) {
      // Nothing owed: mirror the close to the client.
      DisposeSplice(id);
      return;
    }
    RetryOrFail(id);
  }

  // The stream died with queries still owed: rebuild the backlog in
  // arrival order and reconnect (budget + backoff), redelivering the
  // unanswered frames on the new stream — the rewrite survives the
  // reconnect. Budget spent => the splice failed; closing the client lets
  // the replayer's own TCP recovery take over.
  void RetryOrFail(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    if (splice.attempts >= config.tcp_max_reconnects) {
      counters->tcp_failed.Add();
      DisposeSplice(id);
      return;
    }
    std::vector<uint16_t> ids;
    ids.reserve(splice.inflight.size());
    for (const auto& [dns_id, entry] : splice.inflight) ids.push_back(dns_id);
    std::sort(ids.begin(), ids.end(),
              [&splice](uint16_t a, uint16_t b) {
                return splice.inflight[a].seq < splice.inflight[b].seq;
              });
    splice.backlog.assign(ids.begin(), ids.end());

    NanoDuration delay = config.tcp_reconnect_backoff
                         << std::min(splice.attempts, 10);
    ++splice.attempts;
    counters->tcp_reconnects.Add();
    splice.reconnect_timer = loop->ScheduleAfter(delay, [this, id]() {
      StartUpstream(id, /*port_preserving=*/false);
    });
  }

  void DisposeSplice(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    it->second->reconnect_timer.Cancel();
    BuryUpstream(*it->second);
    if (it->second->client != nullptr) {
      graveyard_conns.push_back(std::move(it->second->client));
    }
    graveyard_splices.push_back(std::move(it->second));
    splices.erase(it);
    ArmSweep();
  }

  void BuryUpstream(Splice& splice) {
    if (splice.upstream == nullptr) return;
    graveyard_conns.push_back(std::move(splice.upstream));
    ArmSweep();
  }

  void ArmSweep() {
    if (sweep_armed) return;
    sweep_armed = true;
    // Destroy on the next loop pass: the buried connection may be the one
    // whose callback is executing right now.
    loop->ScheduleAfter(0, [this]() {
      sweep_armed = false;
      graveyard_conns.clear();
      graveyard_splices.clear();
    });
  }
};

Result<std::unique_ptr<HierarchyProxy>> HierarchyProxy::Start(
    const Config& config) {
  if (config.addresses.empty()) {
    return Error(ErrorCode::kInvalidArgument, "no addresses to proxy");
  }
  if (config.meta_server.addr.IsUnspecified() ||
      config.meta_server.port == 0) {
    return Error(ErrorCode::kInvalidArgument, "meta server endpoint unset");
  }
  if (!config.sites.empty() &&
      config.catchment.default_site() >= config.sites.size()) {
    return Error(ErrorCode::kOutOfRange,
                 "catchment default site out of range");
  }
  auto proxy = std::unique_ptr<HierarchyProxy>(new HierarchyProxy());
  size_t n_shards = config.n_shards > 0 ? config.n_shards : 1;
  uint16_t port = config.port;

  for (size_t i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->config = config;
    shard->config.n_shards = n_shards;
    shard->tick_interval = RelayTickFor(config);
    shard->wheel = replay::TimerWheel(shard->tick_interval, 512);
    LDP_ASSIGN_OR_RETURN(shard->loop, net::EventLoop::Create());
    for (size_t s = 0; s < config.sites.size(); ++s) {
      shard->counters->sites.emplace_back();
    }

    if (config.metrics != nullptr) {
      RegisterRelayMetrics(config.metrics, shard->counters, config.sites);
      shard->rewrite_ns = config.metrics->AddHistogram("proxy.rewrite_ns");
      shard->udp_batch = config.metrics->AddHistogram("proxy.udp_batch");
      shard->loop->SetMetrics(
          config.metrics->AddHistogram("proxy.loop_lag_ns"),
          config.metrics->AddHistogram("proxy.epoll_batch"));
    }

    net::DatapathOptions dp_options;
    dp_options.kind = config.datapath;
    dp_options.udp.reuse_port = true;  // kernel shards datagrams across workers
    dp_options.udp.recv_buffer_bytes = config.udp_recv_buffer_bytes;
    dp_options.afpacket = config.afpacket;
    dp_options.afpacket.fanout =
        config.datapath == net::DatapathKind::kAfPacket && n_shards > 1;
    dp_options.metrics = config.metrics;

    // TCP splice on shard 0 only: the splice needs correctness, not
    // multi-core throughput (unlike ShardedDnsServer's stream lane, which
    // binds a SO_REUSEPORT listener on every shard).
    const bool splice_tcp = i == 0 && config.splice_tcp;
    Status bound = shard->Bind(port, dp_options, splice_tcp);
    // Port 0: the first UDP listener picks the number and every other
    // listener must then take the same one, which a live socket may
    // already hold. Try a fresh ephemeral port a bounded number of times.
    for (int retry = 0; !bound.ok() && port == 0 &&
                        retry < kEphemeralBindRetries;
         ++retry) {
      bound = shard->Bind(port, dp_options, splice_tcp);
    }
    LDP_RETURN_IF_ERROR(bound);
    port = shard->listeners.front()->local().port;  // resolve once
    proxy->shards_.push_back(std::move(shard));
  }
  proxy->port_ = port;

  for (auto& shard : proxy->shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([raw]() { raw->loop->Run(); });
  }
  return proxy;
}

HierarchyProxy::~HierarchyProxy() { Stop(); }

void HierarchyProxy::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->loop->RequestStop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

RelayStats HierarchyProxy::TotalStats() const {
  RelayStats total;
  if (!shards_.empty()) {
    for (const auto& site : shards_.front()->config.sites) {
      total.sites.push_back({site.name, 0, 0});
    }
  }
  for (const auto& shard : shards_) {
    const ShardCounters& c = *shard->counters;
    total.rewritten += c.rewritten.Get();
    total.passed_through += c.passed_through.Get();
    total.queries_in += c.queries_in.Get();
    total.responses_in += c.responses_in.Get();
    total.responses_out += c.responses_out.Get();
    total.flows_created += c.flows_created.Get();
    total.flows_evicted += c.flows_evicted.Get();
    total.flows_expired += c.flows_expired.Get();
    total.evicted_drops += c.evicted_drops.Get();
    total.port_fallbacks += c.port_fallbacks.Get();
    total.meta_send_errors += c.meta_send_errors.Get();
    total.tcp_accepted += c.tcp_accepted.Get();
    total.tcp_queries += c.tcp_queries.Get();
    total.tcp_responses += c.tcp_responses.Get();
    total.tcp_reconnects += c.tcp_reconnects.Get();
    total.tcp_failed += c.tcp_failed.Get();
    total.active_flows +=
        c.active_flows.load(std::memory_order_relaxed);
    for (size_t i = 0; i < c.sites.size() && i < total.sites.size(); ++i) {
      total.sites[i].queries_in += c.sites[i].queries_in.Get();
      total.sites[i].responses_out += c.sites[i].responses_out.Get();
    }
  }
  return total;
}

}  // namespace ldp::proxy
