#include "zone/dnssec.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace ldp::zone {
namespace {

Bytes DeterministicBytes(ldp::Rng& rng, size_t size) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

// RFC 4034 Appendix B key tag over the DNSKEY RDATA wire form.
uint16_t ComputeKeyTag(const dns::DnskeyRdata& key) {
  ldp::ByteWriter w;
  w.WriteU16(key.flags);
  w.WriteU8(key.protocol);
  w.WriteU8(key.algorithm);
  w.WriteBytes(key.public_key);
  uint32_t acc = 0;
  const Bytes& data = w.data();
  for (size_t i = 0; i < data.size(); ++i) {
    acc += (i & 1) ? data[i] : (static_cast<uint32_t>(data[i]) << 8);
  }
  acc += (acc >> 16) & 0xffff;
  return static_cast<uint16_t>(acc & 0xffff);
}

}  // namespace

Status SignZone(Zone& zone, const DnssecConfig& config) {
  if (zone.FindRRset(zone.origin(), dns::RRType::kDNSKEY) != nullptr) {
    return Error(ErrorCode::kAlreadyExists,
                 "zone " + zone.origin().ToString() + " is already signed");
  }
  const dns::RRset* soa = zone.Soa();
  if (soa == nullptr) {
    return Error(ErrorCode::kInvalidArgument, "cannot sign a zone without SOA");
  }
  uint32_t ttl = soa->ttl;
  ldp::Rng rng(config.seed ^ zone.origin().Hash());

  // 1. DNSKEY RRset at the apex: KSK + one ZSK (two during rollover).
  dns::DnskeyRdata ksk{257, 3, config.algorithm,
                       DeterministicBytes(rng, PublicKeySize(config.ksk_bits))};
  std::vector<dns::DnskeyRdata> zsks;
  zsks.push_back(dns::DnskeyRdata{
      256, 3, config.algorithm,
      DeterministicBytes(rng, PublicKeySize(config.zsk_bits))});
  if (config.zsk_rollover) {
    zsks.push_back(dns::DnskeyRdata{
        256, 3, config.algorithm,
        DeterministicBytes(rng, PublicKeySize(config.zsk_bits))});
  }
  for (const auto& zsk : zsks) {
    LDP_RETURN_IF_ERROR(zone.AddRecord(dns::ResourceRecord{
        zone.origin(), dns::RRType::kDNSKEY, dns::RRClass::kIN, ttl, zsk}));
  }
  LDP_RETURN_IF_ERROR(zone.AddRecord(dns::ResourceRecord{
      zone.origin(), dns::RRType::kDNSKEY, dns::RRClass::kIN, ttl, ksk}));

  // 2. Authoritative-data inventory. Delegation NS and glue at/below cuts
  // are excluded from both the NSEC type maps and signing.
  std::vector<dns::Name> cuts = zone.DelegationPoints();
  auto below_cut = [&cuts](const dns::Name& name) {
    return std::any_of(cuts.begin(), cuts.end(), [&](const dns::Name& cut) {
      return name.IsSubdomainOf(cut) && name != cut;
    });
  };
  auto is_authoritative = [&](const dns::RRset& rrset) {
    if (below_cut(rrset.name)) return false;  // glue
    bool at_cut = std::find(cuts.begin(), cuts.end(), rrset.name) != cuts.end();
    if (at_cut) {
      return rrset.type == dns::RRType::kDS;  // parent side of the cut
    }
    return true;
  };

  struct Target {
    dns::Name name;
    dns::RRType type;
    uint32_t ttl;
  };
  std::vector<Target> to_sign;
  // NSEC chain members: every name with any authoritative data or a cut
  // (cuts appear in the chain with their NS bit, unsigned), in canonical
  // order, each with its types.
  std::vector<std::pair<dns::Name, std::vector<dns::RRType>>> nsec_types;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (below_cut(rrset.name)) return;
    if (nsec_types.empty() || nsec_types.back().first != rrset.name) {
      nsec_types.emplace_back(rrset.name, std::vector<dns::RRType>{});
    }
    nsec_types.back().second.push_back(rrset.type);
    if (is_authoritative(rrset)) {
      to_sign.push_back(Target{rrset.name, rrset.type, rrset.ttl});
    }
  });

  // 3. NSEC chain in canonical order, wrapping to the apex. The records go
  // in back to front: each new NSEC node then takes over the index's cover
  // only up to the next NSEC node, which keeps signing linear (zone.h).
  for (size_t i = nsec_types.size(); i-- > 0;) {
    const dns::Name& owner = nsec_types[i].first;
    const dns::Name& next = nsec_types[(i + 1) % nsec_types.size()].first;
    std::vector<dns::RRType> types = std::move(nsec_types[i].second);
    types.push_back(dns::RRType::kRRSIG);
    types.push_back(dns::RRType::kNSEC);
    std::sort(types.begin(), types.end(), [](dns::RRType a, dns::RRType b) {
      return static_cast<uint16_t>(a) < static_cast<uint16_t>(b);
    });
    types.erase(std::unique(types.begin(), types.end()), types.end());
    dns::NsecRdata nsec{next, std::move(types)};
    LDP_RETURN_IF_ERROR(zone.AddRecord(dns::ResourceRecord{
        owner, dns::RRType::kNSEC, dns::RRClass::kIN, soa->ttl, nsec}));
  }
  // NSEC records are themselves signed (even at cuts, where the NSEC is
  // authoritative parent-side data).
  for (const auto& [owner, types] : nsec_types) {
    to_sign.push_back(Target{owner, dns::RRType::kNSEC, soa->ttl});
  }

  // 4. Signatures. The DNSKEY RRset is signed by the KSK (and ZSK); all
  // other RRsets by the ZSK(s).
  uint16_t ksk_tag = ComputeKeyTag(ksk);
  std::vector<uint16_t> zsk_tags;
  for (const auto& zsk : zsks) zsk_tags.push_back(ComputeKeyTag(zsk));

  to_sign.push_back(Target{zone.origin(), dns::RRType::kDNSKEY, ttl});

  for (const auto& target : to_sign) {
    auto make_sig = [&](int key_bits, uint16_t key_tag) {
      dns::RrsigRdata sig;
      sig.type_covered = target.type;
      sig.algorithm = config.algorithm;
      sig.labels = static_cast<uint8_t>(
          target.name.IsWildcard() ? target.name.label_count() - 1
                                   : target.name.label_count());
      sig.original_ttl = target.ttl;
      sig.inception = config.inception;
      sig.expiration = config.inception + config.signature_validity_seconds;
      sig.key_tag = key_tag;
      sig.signer = zone.origin();
      sig.signature = DeterministicBytes(rng, SignatureSize(key_bits));
      return sig;
    };

    if (target.type == dns::RRType::kDNSKEY) {
      LDP_RETURN_IF_ERROR(zone.AddRecord(
          dns::ResourceRecord{target.name, dns::RRType::kRRSIG,
                              dns::RRClass::kIN, target.ttl,
                              make_sig(config.ksk_bits, ksk_tag)}));
      continue;
    }
    for (size_t k = 0; k < zsk_tags.size(); ++k) {
      LDP_RETURN_IF_ERROR(zone.AddRecord(
          dns::ResourceRecord{target.name, dns::RRType::kRRSIG,
                              dns::RRClass::kIN, target.ttl,
                              make_sig(config.zsk_bits, zsk_tags[k])}));
    }
  }
  return Status::Ok();
}

}  // namespace ldp::zone
