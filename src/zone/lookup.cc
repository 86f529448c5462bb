#include "zone/lookup.h"

#include <algorithm>

namespace ldp::zone {
namespace {

using Node = Zone::Node;

RRsetRef Ref(const dns::RRset& rrset, const Node& node) {
  return RRsetRef{rrset.name, rrset.type, &rrset, &node};
}

// Glue: A/AAAA records for each NS target found inside this zone.
void CollectGlue(const Zone& zone, const dns::RRset& ns_rrset,
                 std::vector<RRsetRef>& additional) {
  for (const auto& rdata : ns_rrset.rdatas) {
    const auto* ns = std::get_if<dns::NsRdata>(&rdata);
    if (ns == nullptr) continue;
    if (!ns->nsdname.IsSubdomainOf(zone.origin())) continue;
    const Node* node = zone.FindNode(dns::NameKey(ns->nsdname).view());
    if (node == nullptr) continue;
    for (dns::RRType type : {dns::RRType::kA, dns::RRType::kAAAA}) {
      const dns::RRset* glue = node->Find(type);
      if (glue != nullptr) additional.push_back(Ref(*glue, *node));
    }
  }
}

const dns::Name& CnameTarget(const dns::RRset& cname) {
  return std::get<dns::CnameRdata>(cname.rdatas.front()).target;
}

}  // namespace

size_t RRsetRef::size() const {
  return static_cast<size_t>(
      std::count_if(rrset->rdatas.begin(), rrset->rdatas.end(),
                    [this](const dns::Rdata& rdata) { return Includes(rdata); }));
}

void Lookup(const Zone& zone, const dns::Name& qname, dns::RRType qtype,
            LookupResult& result) {
  result.outcome = LookupOutcome::kNotInZone;
  result.answers.clear();
  result.authority.clear();
  result.additional.clear();
  result.wildcard = false;
  result.encloser_labels = zone.origin().label_count();
  if (!qname.IsSubdomainOf(zone.origin())) return;

  // Every name below is a prefix of this key (ancestors) or an extension
  // of one (the wildcard child of an encloser); none is built as a Name.
  const size_t origin_labels = zone.origin().label_count();
  dns::NameKey key(qname);

  // 1. Referral check: the highest zone cut on the path from the apex to
  // qname wins. A cut at qname itself still answers DS from this side of
  // the cut (the parent holds DS, RFC 4035 §3.1.4.1).
  for (size_t i = origin_labels + 1; i <= key.label_count(); ++i) {
    const Node* node = zone.FindNode(key.Prefix(i));
    if (node == nullptr) continue;
    const dns::RRset* ns = node->Find(dns::RRType::kNS);
    if (ns == nullptr) continue;
    if (i == key.label_count() && qtype == dns::RRType::kDS) break;
    result.outcome = LookupOutcome::kDelegation;
    result.authority.push_back(Ref(*ns, *node));
    const dns::RRset* ds = node->Find(dns::RRType::kDS);
    if (ds != nullptr) result.authority.push_back(Ref(*ds, *node));
    CollectGlue(zone, *ns, result.additional);
    return;
  }

  // 2. Exact match / CNAME chain. The chase re-enters for in-zone CNAME
  // targets. Every answer so far is a CNAME owned by a name the chase has
  // left, so meeting one of those owners again is a loop: stop there.
  const dns::Name* current = &qname;
  bool synthesized_any = false;
  while (true) {
    if (std::any_of(result.answers.begin(), result.answers.end(),
                    [&](const RRsetRef& ref) { return ref.name == *current; })) {
      break;
    }
    if (current != &qname) key.Assign(*current);
    const Node* node = zone.FindNode(key.view());

    if (node == nullptr) {
      // 3. Wildcard: only if `current` is not an empty non-terminal and a
      // "*.<closest-encloser>" node exists (RFC 4592).
      if (zone.HasNodeAtOrBelow(key.view())) {
        result.outcome = LookupOutcome::kNoData;
        break;
      }
      // The closest encloser is the longest ancestor that exists or is an
      // empty non-terminal; only its wildcard child may apply.
      const Node* source = nullptr;
      for (size_t i = key.label_count(); i-- > origin_labels;) {
        if (!zone.HasNodeAtOrBelow(key.Prefix(i))) continue;
        result.encloser_labels = i;
        key.Truncate(i);
        key.PushLabel("*");
        source = zone.FindNode(key.view());
        break;
      }
      if (source == nullptr) {
        result.outcome = LookupOutcome::kNxDomain;
        break;  // fall through to attach the SOA for negative caching
      }
      // CNAME at the wildcard?
      const dns::RRset* wc_cname = source->Find(dns::RRType::kCNAME);
      if (wc_cname != nullptr && qtype != dns::RRType::kCNAME &&
          qtype != dns::RRType::kANY) {
        result.answers.push_back(
            RRsetRef{*current, dns::RRType::kCNAME, wc_cname, source});
        result.wildcard = true;
        synthesized_any = true;
        const dns::Name& target = CnameTarget(*wc_cname);
        if (!target.IsSubdomainOf(zone.origin())) {
          result.outcome = LookupOutcome::kCname;
          return;
        }
        current = &target;
        continue;
      }
      result.wildcard = true;
      if (qtype == dns::RRType::kANY) {
        source->ForEach([&](const dns::RRset& rrset) {
          result.answers.push_back(
              RRsetRef{*current, rrset.type, &rrset, source});
        });
      } else if (const dns::RRset* match = source->Find(qtype)) {
        result.answers.push_back(RRsetRef{*current, qtype, match, source});
      } else {
        result.outcome = LookupOutcome::kNoData;
        break;
      }
      result.outcome =
          synthesized_any ? LookupOutcome::kCname : LookupOutcome::kAnswer;
      return;
    }

    // Node exists. CNAME first (unless the query asks for the CNAME).
    const dns::RRset* cname = node->Find(dns::RRType::kCNAME);
    if (cname != nullptr && qtype != dns::RRType::kCNAME &&
        qtype != dns::RRType::kANY) {
      result.answers.push_back(Ref(*cname, *node));
      synthesized_any = true;
      const dns::Name& target = CnameTarget(*cname);
      if (!target.IsSubdomainOf(zone.origin())) {
        result.outcome = LookupOutcome::kCname;
        return;
      }
      current = &target;
      continue;
    }

    if (qtype == dns::RRType::kANY) {
      node->ForEach([&](const dns::RRset& rrset) {
        result.answers.push_back(Ref(rrset, *node));
      });
      result.outcome = result.answers.empty() ? LookupOutcome::kNoData
                                              : LookupOutcome::kAnswer;
      if (result.outcome == LookupOutcome::kNoData) break;
      return;
    }

    const dns::RRset* match = node->Find(qtype);
    if (match != nullptr) {
      result.answers.push_back(Ref(*match, *node));
      result.outcome =
          synthesized_any ? LookupOutcome::kCname : LookupOutcome::kAnswer;
      return;
    }
    result.outcome = LookupOutcome::kNoData;
    break;
  }

  // Negative answer: attach the SOA for caching (RFC 2308).
  if (synthesized_any) {
    // A chase that dead-ends inside the zone is still a CNAME response;
    // the negative part applies to the final target.
    result.outcome = LookupOutcome::kCname;
  }
  const dns::RRset* soa = zone.Soa();
  if (soa != nullptr) result.authority.push_back(Ref(*soa, *zone.apex()));
}

LookupResult Lookup(const Zone& zone, const dns::Name& qname,
                    dns::RRType qtype) {
  LookupResult result;
  result.qname = std::make_shared<const dns::Name>(qname);
  Lookup(zone, *result.qname, qtype, result);
  return result;
}

namespace {

// Appends `ref` and, when DNSSEC was requested, the signatures covering it.
// They live at the RRset's own node, which for a wildcard-synthesized
// answer is the wildcard (RFC 4035 §3.1.3.3); they are written under the
// answer's owner.
void AppendWithSigs(const RRsetRef& ref, bool include_dnssec,
                    std::vector<RRsetRef>& section) {
  section.push_back(ref);
  if (!include_dnssec || ref.type == dns::RRType::kRRSIG) return;
  const dns::RRset* sigs = ref.node->Find(dns::RRType::kRRSIG);
  if (sigs == nullptr) return;
  RRsetRef covering{ref.name, dns::RRType::kRRSIG, sigs, ref.node, ref.type};
  if (covering.size() > 0) section.push_back(covering);
}

}  // namespace

void Response::Clear() {
  rcode = dns::Rcode::kNoError;
  aa = false;
  edns.reset();
  answers.clear();
  authorities.clear();
  additionals.clear();
}

void AssembleResponse(const Zone& zone, const dns::Message& query,
                      bool include_dnssec, Response& out) {
  out.Clear();
  if (query.edns.has_value()) {
    out.edns = dns::Edns{.udp_payload_size = 4096,
                         .do_bit = query.edns->do_bit};
  }
  if (query.opcode != dns::Opcode::kQuery || query.questions.empty()) {
    out.rcode = dns::Rcode::kNotImp;
    return;
  }
  const dns::Question& q = query.questions.front();

  LookupResult& result = out.lookup;
  Lookup(zone, q.name, q.type, result);
  switch (result.outcome) {
    case LookupOutcome::kNotInZone:
      out.rcode = dns::Rcode::kRefused;
      return;
    case LookupOutcome::kNxDomain:
      out.rcode = dns::Rcode::kNxDomain;
      out.aa = true;
      break;
    case LookupOutcome::kDelegation:
      out.aa = false;
      break;
    default:
      out.aa = true;
      break;
  }

  for (const auto& ref : result.answers) {
    AppendWithSigs(ref, include_dnssec, out.answers);
  }
  for (const auto& ref : result.authority) {
    // Referral NS sets are not signed (they live on the parent side of the
    // cut); everything else in the authority section is.
    bool sign = include_dnssec &&
                !(result.outcome == LookupOutcome::kDelegation &&
                  ref.type == dns::RRType::kNS);
    AppendWithSigs(ref, sign, out.authorities);
  }
  for (const auto& ref : result.additional) {
    AppendWithSigs(ref, include_dnssec, out.additionals);
  }

  // DNSSEC denial of existence: covering NSEC records for negative answers
  // and for wildcard expansions (RFC 4035 §3.1.3).
  if (include_dnssec &&
      (result.outcome == LookupOutcome::kNxDomain ||
       result.outcome == LookupOutcome::kNoData || result.wildcard)) {
    const Node* nsec = zone.CoveringNsec(dns::NameKey(q.name).view());
    if (nsec != nullptr) {
      AppendWithSigs(Ref(*nsec->Find(dns::RRType::kNSEC), *nsec), true,
                     out.authorities);
    }
    if (result.outcome == LookupOutcome::kNxDomain && nsec != nullptr) {
      // Also deny the wildcard at the closest encloser (RFC 4035
      // §3.1.3.2), unless the same NSEC already covers it. The zone has
      // data, so the encloser is a proper ancestor and "*" fits.
      dns::NameKey wildcard(q.name);
      wildcard.Truncate(result.encloser_labels);
      wildcard.PushLabel("*");
      const Node* wc_nsec = zone.CoveringNsec(wildcard.view());
      if (wc_nsec != nullptr && wc_nsec != nsec) {
        AppendWithSigs(Ref(*wc_nsec->Find(dns::RRType::kNSEC), *wc_nsec),
                       true, out.authorities);
      }
    }
  }

  // Additional-section processing: addresses for NS/MX/SRV targets named in
  // the answer (RFC 1034 §4.3.2 step 6), skipping duplicates. Additional
  // references are never synthesized, so one node means one owner name.
  auto add_target_addresses = [&](const dns::Name& target) {
    const Node* node = zone.FindNode(dns::NameKey(target).view());
    if (node == nullptr) return;
    for (dns::RRType type : {dns::RRType::kA, dns::RRType::kAAAA}) {
      const dns::RRset* addr = node->Find(type);
      if (addr == nullptr) continue;
      bool already = std::any_of(
          out.additionals.begin(), out.additionals.end(),
          [&](const RRsetRef& ref) {
            return ref.node == node && ref.type == type;
          });
      if (!already) {
        AppendWithSigs(Ref(*addr, *node), include_dnssec, out.additionals);
      }
    }
  };
  for (const auto& ref : out.answers) {
    for (const auto& rdata : ref.rrset->rdatas) {
      if (!ref.Includes(rdata)) continue;
      if (const auto* ns = std::get_if<dns::NsRdata>(&rdata)) {
        add_target_addresses(ns->nsdname);
      } else if (const auto* mx = std::get_if<dns::MxRdata>(&rdata)) {
        add_target_addresses(mx->exchange);
      } else if (const auto* srv = std::get_if<dns::SrvRdata>(&rdata)) {
        add_target_addresses(srv->target);
      }
    }
  }
}

dns::Message ToMessage(const dns::Message& query, const Response& response) {
  dns::Message message;
  message.id = query.id;
  message.qr = true;
  message.opcode = query.opcode;
  message.aa = response.aa;
  message.rd = query.rd;
  message.rcode = response.rcode;
  message.questions = query.questions;
  message.edns = response.edns;
  auto expand = [](const std::vector<RRsetRef>& refs,
                   std::vector<dns::ResourceRecord>& records) {
    for (const auto& ref : refs) {
      for (const auto& rdata : ref.rrset->rdatas) {
        if (!ref.Includes(rdata)) continue;
        records.push_back(dns::ResourceRecord{
            ref.name, ref.type, ref.rrset->klass, ref.rrset->ttl, rdata});
      }
    }
  };
  expand(response.answers, message.answers);
  expand(response.authorities, message.authorities);
  expand(response.additionals, message.additionals);
  return message;
}

Bytes EncodeResponse(const dns::Message& query, const Response& response,
                     size_t max_size) {
  dns::MessageWriter writer(
      dns::Header{.id = query.id, .qr = true, .opcode = query.opcode,
                  .aa = response.aa, .rd = query.rd,
                  .rcode = response.rcode},
      max_size, response.edns.has_value() ? &*response.edns : nullptr);
  for (const auto& q : query.questions) writer.AddQuestion(q);
  auto write = [&](dns::MessageWriter::Section section,
                   const std::vector<RRsetRef>& refs) {
    for (const auto& ref : refs) {
      for (const auto& rdata : ref.rrset->rdatas) {
        if (!ref.Includes(rdata)) continue;
        if (!writer.AddRecord(section, ref.name, ref.type, ref.rrset->klass,
                              ref.rrset->ttl, rdata)) {
          return false;
        }
      }
    }
    return true;
  };
  write(dns::MessageWriter::Section::kAnswer, response.answers) &&
      write(dns::MessageWriter::Section::kAuthority, response.authorities) &&
      write(dns::MessageWriter::Section::kAdditional, response.additionals);
  return std::move(writer).Finish();
}

dns::Message BuildResponse(const Zone& zone, const dns::Message& query,
                           bool include_dnssec) {
  Response response;
  AssembleResponse(zone, query, include_dnssec, response);
  return ToMessage(query, response);
}

}  // namespace ldp::zone
