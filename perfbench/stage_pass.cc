#include "stage_pass.h"

#include <chrono>
#include <string>

#include "server/engine.h"
#include "server/response_cache.h"
#include "zone/lookup.h"

namespace ldp::perfbench {
namespace {

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The UDP size limit the socket server hands HandleWire.
constexpr size_t kUdpLimit = 65535;

// AuthServerEngine's effective UDP ceiling: the EDNS advertisement, else
// 512, never below 512, capped by the transport.
size_t EffectiveLimit(bool has_edns, uint32_t advertised) {
  size_t ceiling = has_edns ? advertised : dns::kMaxUdpPayloadDefault;
  ceiling = std::max(ceiling, dns::kMaxUdpPayloadDefault);
  return std::min(kUdpLimit, ceiling);
}

bool Truncated(const Bytes& wire) {
  return wire.size() >= 4 && (wire[2] & 0x02);
}

// The engine's cache key for a query, or false when the engine would
// bypass its cache for it.
bool CacheKey(const zone::ZoneSet* view, const server::WireQueryInfo& info,
              server::ResponseCacheKey* key) {
  if (info.qtype == static_cast<uint16_t>(dns::RRType::kAXFR)) return false;
  key->view = view;
  key->question.assign(info.question.begin(), info.question.end());
  key->has_edns = info.has_edns;
  key->do_bit = info.do_bit;
  key->advertised = info.has_edns ? info.advertised : 0;
  key->limit = static_cast<uint32_t>(
      EffectiveLimit(info.has_edns, info.advertised));
  return true;
}

}  // namespace

StagePassResult RunStagePass(const WorkloadSpec& spec, const ServedZones& zones,
                             const std::vector<trace::QueryRecord>& records,
                             size_t max_sampled) {
  StagePassResult result;
  const zone::ViewTable& views = *zones.views;
  server::AuthServerEngine engine(
      zones.views,
      server::EngineOptions{.response_cache_entries = kResponseCacheEntries});
  // Mirrors the engine's cache state so the probe is timed warm, on the
  // same hit/miss sequence HandleWire sees.
  server::ResponseCache cache(kResponseCacheEntries);
  size_t stride = std::max<size_t>(
      1, (records.size() + max_sampled - 1) / std::max<size_t>(max_sampled, 1));

  std::vector<double> parse, match, probe, decode, find, build, encode, whole,
      self;
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    bool sampled = i % stride == 0;
    if (spec.tcp && !sampled) continue;  // the stream lane keeps no state
    Bytes wire = record.ToMessage().Encode();
    IpAddress source =
        spec.via_proxy ? LoopbackAlias(record.dst) : IpAddress::Loopback();

    int64_t whole_start = Now();
    Bytes whole_out;
    if (spec.tcp) {
      auto out = engine.HandleStream(wire, source);
      if (out.ok() && !out->empty()) whole_out = std::move(out->front());
    } else {
      auto out = engine.HandleWire(wire, source, kUdpLimit);
      if (out.ok()) whole_out = std::move(*out);
    }
    int64_t whole_end = Now();

    if (!sampled) {
      server::WireQueryInfo info;
      server::ResponseCacheKey key;
      if (whole_out.size() >= 4 && ParseWireQuery(wire, &info) &&
          CacheKey(views.Match(source), info, &key) &&
          cache.Lookup(key) == nullptr && !Truncated(whole_out)) {
        auto rcode = static_cast<dns::Rcode>(whole_out[3] & 0x0f);
        cache.Insert(std::move(key), whole_out, rcode);
      }
      continue;
    }

    ++result.sampled;
    auto add_span = [&](const char* name, int64_t start, int64_t end,
                        int64_t parent) {
      result.spans.push_back(Span{name, start, end, parent, i});
      return static_cast<int64_t>(result.spans.size()) - 1;
    };
    int64_t root = add_span("query", whole_start, whole_start, -1);
    add_span("server.handle_wire", whole_start, whole_end, root);
    int64_t stages_start = Now();
    int64_t stages =
        add_span("server.stages", stages_start, stages_start, root);
    auto timed = [&](const char* name, std::vector<double>& sink, auto&& fn) {
      int64_t start = Now();
      auto value = fn();
      int64_t end = Now();
      add_span(name, start, end, stages);
      sink.push_back(static_cast<double>(end - start));
      return value;
    };

    Bytes stage_out;
    bool answered_from_cache = false;
    const zone::ZoneSet* view = nullptr;
    bool have_view = false;
    server::WireQueryInfo info;
    server::ResponseCacheKey key;
    bool cacheable = false;
    if (!spec.tcp) {
      bool parsed = timed("server.parse_wire", parse,
                          [&] { return ParseWireQuery(wire, &info); });
      if (parsed) {
        view = timed("zone.view_match", match,
                     [&] { return views.Match(source); });
        have_view = true;
        cacheable = CacheKey(view, info, &key);
      }
      if (cacheable) {
        const auto* entry = timed("server.cache_probe", probe,
                                  [&] { return cache.Lookup(key); });
        if (entry != nullptr) {
          stage_out = server::ResponseCache::PatchedCopy(entry->wire, info.id,
                                                         info.rd);
          answered_from_cache = true;
        }
      }
    }
    if (!answered_from_cache) {
      auto query = timed("dns.decode", decode,
                         [&] { return dns::Message::Decode(wire); });
      if (!have_view) {
        view = timed("zone.view_match", match,
                     [&] { return views.Match(source); });
      }
      const zone::Zone* zone = nullptr;
      if (query.ok() && view != nullptr && !query->questions.empty()) {
        zone = timed("zone.find_zone", find, [&] {
          return view->FindBestZone(query->questions.front().name);
        });
      }
      if (zone == nullptr) {
        ++result.no_zone;
      } else {
        bool want_dnssec = query->edns.has_value() && query->edns->do_bit;
        auto response = timed("zone.build_response", build, [&] {
          return zone::BuildResponse(*zone, *query, want_dnssec);
        });
        size_t limit =
            spec.tcp ? dns::kMaxMessageSize
                     : EffectiveLimit(query->edns.has_value(),
                                      query->edns.has_value()
                                          ? query->edns->udp_payload_size
                                          : 0);
        stage_out = timed("dns.encode", encode,
                          [&] { return response.Encode(limit); });
        if (cacheable && !Truncated(stage_out)) {
          cache.Insert(std::move(key), stage_out, response.rcode);
        }
      }
    }
    int64_t stages_end = Now();
    result.spans[stages].end_ns = stages_end;
    result.spans[root].end_ns = stages_end;
    if (!stage_out.empty() && stage_out != whole_out) ++result.mismatches;

    std::vector<Span> children(result.spans.begin() + stages + 1,
                               result.spans.end());
    int64_t covered = (stages_end - stages_start) -
                      SelfTimeNs(result.spans[stages], children);
    whole.push_back(static_cast<double>(whole_end - whole_start));
    self.push_back(static_cast<double>(whole_end - whole_start - covered));
  }

  StageMedians& m = result.medians;
  m.parse_wire = Median(parse);
  m.view_match = Median(match);
  m.cache_probe = Median(probe);
  m.decode = Median(decode);
  m.find_zone = Median(find);
  m.build_response = Median(build);
  m.encode = Median(encode);
  m.handle_wire = Median(whole);
  m.engine_self = Median(self);
  return result;
}

}  // namespace ldp::perfbench
