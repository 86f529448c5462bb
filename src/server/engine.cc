#include "server/engine.h"

namespace ldp::server {
namespace {

// Messages in an AXFR stream stay comfortably under the 64 KiB frame cap;
// real servers batch a few hundred records per message.
constexpr size_t kAxfrMessageBudget = 32 * 1024;

// Counter increments are relaxed: each shard's engine is mutated by one
// thread only; atomics exist so cross-thread stat snapshots are race-free.
void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

// The effective UDP ceiling: the client's EDNS advertisement, else the
// classic 512 bytes (RFC 1035 §4.2.1), both capped by the transport.
// udp_limit == 0 means a stream transport: no truncation.
size_t EffectiveLimit(size_t udp_limit, bool has_edns, uint32_t advertised) {
  if (udp_limit == 0) return dns::kMaxMessageSize;
  size_t ceiling = has_edns ? advertised : dns::kMaxUdpPayloadDefault;
  if (ceiling < dns::kMaxUdpPayloadDefault) {
    ceiling = dns::kMaxUdpPayloadDefault;
  }
  return std::min(udp_limit, ceiling);
}

}  // namespace

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  queries += other.queries;
  responses += other.responses;
  dropped += other.dropped;
  refused += other.refused;
  nxdomain += other.nxdomain;
  truncated += other.truncated;
  response_bytes += other.response_bytes;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_bypass += other.cache_bypass;
  cache_evictions += other.cache_evictions;
  cache_size += other.cache_size;
  return *this;
}

AuthServerEngine::AuthServerEngine(
    std::shared_ptr<const zone::ViewTable> views, EngineOptions options)
    : views_(std::move(views)) {
  if (options.response_cache_entries > 0) {
    cache_ =
        std::make_unique<ResponseCache>(options.response_cache_entries);
  }
}

EngineStats AuthServerEngine::stats() const {
  EngineStats snapshot;
  snapshot.queries = Load(stats_.queries);
  snapshot.responses = Load(stats_.responses);
  snapshot.dropped = Load(stats_.dropped);
  snapshot.refused = Load(stats_.refused);
  snapshot.nxdomain = Load(stats_.nxdomain);
  snapshot.truncated = Load(stats_.truncated);
  snapshot.response_bytes = Load(stats_.response_bytes);
  snapshot.cache_hits = Load(stats_.cache_hits);
  snapshot.cache_misses = Load(stats_.cache_misses);
  snapshot.cache_bypass = Load(stats_.cache_bypass);
  snapshot.cache_evictions = Load(stats_.cache_evictions);
  snapshot.cache_size = Load(stats_.cache_size);
  return snapshot;
}

void AuthServerEngine::BumpRcode(dns::Rcode rcode) {
  if (rcode == dns::Rcode::kNxDomain) Bump(stats_.nxdomain);
  if (rcode == dns::Rcode::kRefused) Bump(stats_.refused);
}

void AuthServerEngine::Answer(const dns::Message& query, IpAddress source) {
  Bump(stats_.queries);
  const zone::ZoneSet* zones = views_->Match(source);
  const zone::Zone* zone = nullptr;
  if (zones != nullptr && !query.questions.empty()) {
    zone = zones->FindBestZone(query.questions.front().name);
  }
  if (zone == nullptr) {
    // No zone for this name in the matched view: REFUSED, like BIND with
    // no matching zone clause.
    response_.Clear();
    response_.rcode = dns::Rcode::kRefused;
    if (query.edns.has_value()) {
      // Echo the client's advertised payload size (RFC 6891 §6.2.3: the
      // OPT in a response states *our* capability, but for a zoneless
      // REFUSED the paper-faithful behaviour is a plain echo).
      response_.edns =
          dns::Edns{.udp_payload_size = query.edns->udp_payload_size};
    }
  } else {
    bool want_dnssec = query.edns.has_value() && query.edns->do_bit;
    zone::AssembleResponse(*zone, query, want_dnssec, response_);
  }
  BumpRcode(response_.rcode);
  Bump(stats_.responses);
}

dns::Message AuthServerEngine::HandleQuery(const dns::Message& query,
                                           IpAddress source) {
  Answer(query, source);
  return zone::ToMessage(query, response_);
}

Result<std::vector<Bytes>> AuthServerEngine::HandleAxfr(
    const dns::Message& query, IpAddress source) {
  Bump(stats_.queries);
  if (query.questions.empty()) {
    return Error(ErrorCode::kInvalidArgument, "AXFR without a question");
  }
  const dns::Name& origin = query.questions.front().name;
  const zone::ZoneSet* zones = views_->Match(source);
  zone::ZonePtr zone = zones != nullptr ? zones->FindZone(origin) : nullptr;

  auto make_base = [&]() {
    dns::Message msg;
    msg.id = query.id;
    msg.qr = true;
    msg.aa = true;
    msg.questions = query.questions;
    return msg;
  };

  if (zone == nullptr || zone->Soa() == nullptr) {
    // Not authoritative for exactly this origin in this view.
    dns::Message refused = make_base();
    refused.aa = false;
    refused.rcode = dns::Rcode::kNotAuth;
    Bump(stats_.refused);
    Bump(stats_.responses);
    return std::vector<Bytes>{refused.Encode()};
  }

  // SOA, every other record in canonical order, SOA again. Flush a message
  // whenever the running estimate crosses the per-message budget.
  std::vector<Bytes> messages;
  dns::Message current = make_base();
  size_t current_size = 0;
  auto flush = [&]() {
    if (current.answers.empty() && !messages.empty()) return;
    messages.push_back(current.Encode());
    Bump(stats_.response_bytes, messages.back().size());
    Bump(stats_.responses);
    current = make_base();
    current.questions.clear();  // only the first message carries it
    current_size = 0;
  };
  auto append = [&](const dns::ResourceRecord& record) {
    size_t estimate = record.name.WireLength() + 10 +
                      dns::RdataWireLength(record.rdata);
    if (current_size + estimate > kAxfrMessageBudget) flush();
    current.answers.push_back(record);
    current_size += estimate;
  };

  const dns::RRset* soa = zone->Soa();
  dns::ResourceRecord soa_record = soa->ToRecords().front();
  append(soa_record);
  zone->ForEachRRset([&](const dns::RRset& rrset) {
    if (rrset.type == dns::RRType::kSOA && rrset.name == zone->origin()) {
      return;
    }
    for (const auto& record : rrset.ToRecords()) append(record);
  });
  append(soa_record);  // terminal SOA
  flush();
  return messages;
}

Result<std::vector<Bytes>> AuthServerEngine::HandleStream(
    std::span<const uint8_t> wire, IpAddress source) {
  auto query = dns::Message::Decode(wire);
  if (!query.ok()) {
    Bump(stats_.dropped);
    return query.error();
  }
  if (!query->questions.empty() &&
      query->questions.front().type == dns::RRType::kAXFR) {
    return HandleAxfr(*query, source);
  }
  Answer(*query, source);
  Bytes encoded =
      zone::EncodeResponse(*query, response_, dns::kMaxMessageSize);
  Bump(stats_.response_bytes, encoded.size());
  return std::vector<Bytes>{std::move(encoded)};
}

Result<Bytes> AuthServerEngine::HandleWire(std::span<const uint8_t> wire,
                                           IpAddress source,
                                           size_t udp_limit) {
  // Wire-level response cache: a repeat query is answered from the stored
  // encoding with just the ID and RD flag patched in — no decode, no
  // lookup, no encode. ParseWireQuery reads the key fields straight from
  // the wire; only plain single-question QUERYs pass it, everything else
  // bypasses (and a truncated response is never stored, response_cache.h).
  bool cacheable = false;
  if (cache_ != nullptr) {
    WireQueryInfo info;
    if (ParseWireQuery(wire, &info) &&
        info.qtype != static_cast<uint16_t>(dns::RRType::kAXFR)) {
      cacheable = true;
      scratch_key_.view = views_->Match(source);
      scratch_key_.question.assign(info.question.begin(),
                                   info.question.end());
      scratch_key_.has_edns = info.has_edns;
      scratch_key_.do_bit = info.do_bit;
      scratch_key_.advertised = info.has_edns ? info.advertised : 0;
      scratch_key_.limit = static_cast<uint32_t>(
          EffectiveLimit(udp_limit, info.has_edns, info.advertised));
      if (const ResponseCache::Entry* entry =
              cache_->Lookup(scratch_key_)) {
        Bump(stats_.queries);
        Bump(stats_.responses);
        BumpRcode(entry->rcode);
        Bump(stats_.cache_hits);
        Bump(stats_.response_bytes, entry->wire.size());
        return ResponseCache::PatchedCopy(entry->wire, info.id, info.rd);
      }
      Bump(stats_.cache_misses);
    } else {
      Bump(stats_.cache_bypass);
    }
  }

  auto query = dns::Message::Decode(wire);
  if (!query.ok()) {
    Bump(stats_.dropped);
    return query.error();
  }
  if (!query->questions.empty() &&
      query->questions.front().type == dns::RRType::kAXFR) {
    // AXFR needs a stream; over UDP it is refused (RFC 5936 §4.2). Stream
    // transports special-case AXFR before calling HandleWire.
    Bump(stats_.queries);
    Bump(stats_.responses);
    Bump(stats_.refused);
    dns::Message refused;
    refused.id = query->id;
    refused.qr = true;
    refused.questions = query->questions;
    refused.rcode = dns::Rcode::kRefused;
    return refused.Encode();
  }

  size_t limit = EffectiveLimit(
      udp_limit, query->edns.has_value(),
      query->edns.has_value() ? query->edns->udp_payload_size : 0);

  Answer(*query, source);
  Bytes encoded = zone::EncodeResponse(*query, response_, limit);
  // TC is patched into the wire during truncation; detect via re-check of
  // the flags byte rather than re-decoding the whole message.
  bool truncated = encoded.size() >= 4 && (encoded[2] & 0x02);
  if (truncated) Bump(stats_.truncated);
  Bump(stats_.response_bytes, encoded.size());

  if (cacheable && !truncated) {
    cache_->Insert(std::move(scratch_key_), encoded, response_.rcode);
    stats_.cache_evictions.store(cache_->evictions(),
                                 std::memory_order_relaxed);
    stats_.cache_size.store(cache_->size(), std::memory_order_relaxed);
  }
  return encoded;
}

}  // namespace ldp::server
