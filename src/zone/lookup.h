// Authoritative lookup (RFC 1034 §4.3.2): exact answers, CNAME chasing
// within the zone, wildcard synthesis (RFC 4592), referrals at zone cuts
// with glue, and negative answers (NXDOMAIN / NODATA with SOA).
//
// This is the algorithm whose *absence of shortcuts* LDplayer's hierarchy
// emulation depends on: a query that crosses a zone cut must produce a
// referral, never a direct answer from a deeper zone.
//
// Lookup and response assembly never copy zone data: their results are
// RRsetRefs into the zone. One assembly (AssembleResponse) feeds both
// BuildResponse, which expands it into a dns::Message, and EncodeResponse,
// which writes it straight to the wire.
#ifndef LDPLAYER_ZONE_LOOKUP_H
#define LDPLAYER_ZONE_LOOKUP_H

#include <memory>
#include <optional>
#include <vector>

#include "dns/message.h"
#include "zone/zone.h"

namespace ldp::zone {

enum class LookupOutcome {
  kAnswer,      // exact or wildcard data in answers
  kCname,       // answers hold a CNAME chain; final target may be off-zone
  kDelegation,  // authority holds the cut's NS, additional holds glue
  kNoData,      // name exists (or is an empty non-terminal), type does not
  kNxDomain,    // name does not exist
  kNotInZone,   // qname is outside this zone entirely
};

// One RRset as it goes into a response, by reference: the zone's `rrset`
// (stored at `node`), written under `name`, which is the query name when
// the RRset was synthesized from a wildcard (RFC 4592). An RRSIG reference
// with `covered` set stands for only the signatures covering that type.
struct RRsetRef {
  const dns::Name& name;
  dns::RRType type;
  const dns::RRset* rrset;
  const Zone::Node* node;
  dns::RRType covered = dns::RRType::kANY;  // kANY: every record

  // Whether `rdata`, one of rrset->rdatas, belongs to this reference.
  bool Includes(const dns::Rdata& rdata) const {
    if (covered == dns::RRType::kANY) return true;
    const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
    return sig != nullptr && sig->type_covered == covered;
  }
  // The number of records this reference stands for.
  size_t size() const;
};

struct LookupResult {
  LookupOutcome outcome = LookupOutcome::kNotInZone;
  std::vector<RRsetRef> answers;
  std::vector<RRsetRef> authority;
  std::vector<RRsetRef> additional;
  bool wildcard = false;  // answer was synthesized from a wildcard
  // Labels of the closest encloser of a name that does not exist (RFC
  // 4592): the longest existing ancestor, empty non-terminals included.
  size_t encloser_labels = 0;
  // The query name that synthesized answers are written under, owned by
  // the result when Lookup returns one by value.
  std::shared_ptr<const dns::Name> qname;
};

// Fills `result` (cleared first). References may point at `qname`, which
// must outlive them.
void Lookup(const Zone& zone, const dns::Name& qname, dns::RRType qtype,
            LookupResult& result);
// As above, with a result that owns a copy of `qname`.
LookupResult Lookup(const Zone& zone, const dns::Name& qname,
                    dns::RRType qtype);

// A response as references into the zone: everything but the header and
// question fields that are echoed from the query. Reusable across queries.
struct Response {
  dns::Rcode rcode = dns::Rcode::kNoError;
  bool aa = false;
  std::optional<dns::Edns> edns;
  std::vector<RRsetRef> answers;
  std::vector<RRsetRef> authorities;
  std::vector<RRsetRef> additionals;
  LookupResult lookup;  // the lookup behind the sections

  void Clear();
};

// Assembles the response to `query` from `zone` into `out`: AA, rcode and
// sections per the lookup outcome. When `include_dnssec` is false, RRSIG
// records are left out of all sections (how a server answers DO=0 queries
// from a signed zone). References point into `zone` and `query`.
void AssembleResponse(const Zone& zone, const dns::Message& query,
                      bool include_dnssec, Response& out);

// The response to `query` as a message: id, opcode, RD and questions from
// the query, the rest from `response`.
dns::Message ToMessage(const dns::Message& query, const Response& response);

// The same message encoded straight from the references, under the size
// limit and truncation rule of dns::Message::Encode; byte for byte equal
// to ToMessage(query, response).Encode(max_size).
Bytes EncodeResponse(const dns::Message& query, const Response& response,
                     size_t max_size);

// AssembleResponse + ToMessage.
dns::Message BuildResponse(const Zone& zone, const dns::Message& query,
                           bool include_dnssec);

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_LOOKUP_H
