// A deliberately naive reference for zone::Lookup and zone::BuildResponse.
// It answers from a flat record list by scanning it, building every name it
// needs as a dns::Name and comparing with Name::operator== and operator<:
// no index, no keys, no references. The engine's answers must match it
// record for record, case included.
//
// What the reference implements:
// - RFC 1034 §4.3.2: referral at the highest cut above the query name (DS
//   at the cut itself is answered from the parent, RFC 4035 §3.1.4.1),
//   glue for in-zone NS targets, exact answers, in-zone CNAME chasing with
//   loop detection, NODATA for empty non-terminals, SOA in negative
//   answers, A/AAAA additional data for NS/MX/SRV targets in the answer.
// - RFC 4592: synthesis from the wildcard child of the closest encloser,
//   including CNAME and ANY at the wildcard.
// - RFC 4035 §3.1.1-3.1.3: covering RRSIGs with DO (taken from the source
//   RRset's owner, so the wildcard's for synthesized answers), none on
//   referral NS sets; for NXDOMAIN, NODATA and wildcard answers the NSEC
//   covering the query name, and for NXDOMAIN also the one covering the
//   wildcard at the closest encloser when it differs.
// The engine's documented simplifications, mirrored here: referrals never
// carry an NSEC proving the absence of DS, a wildcard NODATA carries no
// NSEC for the wildcard itself, and a CNAME chain that dead-ends inside the
// zone gets no denial of existence for its target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>

#include "zone/dnssec.h"
#include "zone/lookup.h"
#include "zone/masterfile.h"
#include "workload/hierarchy.h"

namespace ldp::zone {
namespace {

using dns::Name;
using dns::ResourceRecord;
using dns::RRType;

// An RRset as the reference sees it: records written under `owner`, taken
// from the zone data at `source` (different only for wildcard synthesis).
struct NaiveSet {
  Name owner;
  Name source;
  RRType type;
  std::vector<ResourceRecord> records;
};

struct NaiveResult {
  LookupOutcome outcome = LookupOutcome::kNotInZone;
  std::vector<NaiveSet> answers, authority, additional;
  bool wildcard = false;
  Name encloser;  // closest encloser of an NXDOMAIN name
};

Name Suffix(const Name& name, size_t labels) {
  const auto& all = name.labels();
  return *Name::FromLabels(
      {all.end() - static_cast<ptrdiff_t>(labels), all.end()});
}

Name WildcardChild(const Name& name) { return *name.Child("*"); }

class NaiveZone {
 public:
  explicit NaiveZone(const Zone& zone) : origin_(zone.origin()) {
    zone.ForEachRRset([&](const dns::RRset& rrset) {
      for (auto& record : rrset.ToRecords()) records_.push_back(record);
    });
    EXPECT_EQ(records_.size(), zone.record_count());
  }

  const Name& origin() const { return origin_; }

  std::vector<ResourceRecord> Records(const Name& owner, RRType type) const {
    std::vector<ResourceRecord> out;
    for (const auto& record : records_) {
      if (record.name == owner && record.type == type) out.push_back(record);
    }
    return out;
  }
  bool Exists(const Name& name) const {
    return std::any_of(records_.begin(), records_.end(),
                       [&](const ResourceRecord& r) { return r.name == name; });
  }
  bool ExistsAtOrBelow(const Name& name) const {
    return std::any_of(
        records_.begin(), records_.end(),
        [&](const ResourceRecord& r) { return r.name.IsSubdomainOf(name); });
  }
  std::vector<RRType> TypesAt(const Name& owner) const {
    std::set<uint16_t> types;
    for (const auto& record : records_) {
      if (record.name == owner) types.insert(static_cast<uint16_t>(record.type));
    }
    std::vector<RRType> out;
    for (uint16_t t : types) out.push_back(static_cast<RRType>(t));
    return out;
  }
  // The greatest NSEC owner <= `name` in canonical order, if any.
  std::optional<Name> NsecOwnerCovering(const Name& name) const {
    std::optional<Name> best;
    for (const auto& record : records_) {
      if (record.type != RRType::kNSEC || name < record.name) continue;
      if (!best.has_value() || *best < record.name) best = record.name;
    }
    return best;
  }

  NaiveSet Set(const Name& owner, RRType type) const {
    auto records = Records(owner, type);
    Name written = records.empty() ? owner : records.front().name;
    return NaiveSet{written, written, type, std::move(records)};
  }
  NaiveSet Synthesized(const Name& owner, const Name& wildcard,
                       RRType type) const {
    NaiveSet set{owner, wildcard, type, Records(wildcard, type)};
    for (auto& record : set.records) record.name = owner;
    return set;
  }

 private:
  Name origin_;
  std::vector<ResourceRecord> records_;
};

NaiveResult NaiveLookup(const NaiveZone& zone, const Name& qname,
                        RRType qtype) {
  NaiveResult result;
  result.encloser = zone.origin();
  if (!qname.IsSubdomainOf(zone.origin())) return result;
  size_t origin_labels = zone.origin().label_count();

  for (size_t k = origin_labels + 1; k <= qname.label_count(); ++k) {
    Name ancestor = Suffix(qname, k);
    NaiveSet ns = zone.Set(ancestor, RRType::kNS);
    if (ns.records.empty()) continue;
    if (k == qname.label_count() && qtype == RRType::kDS) break;
    result.outcome = LookupOutcome::kDelegation;
    NaiveSet ds = zone.Set(ancestor, RRType::kDS);
    result.authority.push_back(ns);
    if (!ds.records.empty()) result.authority.push_back(ds);
    for (const auto& record : ns.records) {
      const Name& target = std::get<dns::NsRdata>(record.rdata).nsdname;
      if (!target.IsSubdomainOf(zone.origin())) continue;
      for (RRType type : {RRType::kA, RRType::kAAAA}) {
        NaiveSet glue = zone.Set(target, type);
        if (!glue.records.empty()) result.additional.push_back(glue);
      }
    }
    return result;
  }

  Name current = qname;
  std::vector<Name> visited;
  bool chased = false;
  auto chase = [&](const NaiveSet& cname) {
    result.answers.push_back(cname);
    chased = true;
    current = std::get<dns::CnameRdata>(cname.records.front().rdata).target;
    return current.IsSubdomainOf(zone.origin());
  };
  auto answer_or_nodata = [&](std::vector<NaiveSet> sets) {
    bool any = false;
    for (auto& set : sets) {
      if (set.records.empty()) continue;
      any = true;
      result.answers.push_back(std::move(set));
    }
    result.outcome = !any    ? LookupOutcome::kNoData
                     : chased ? LookupOutcome::kCname
                              : LookupOutcome::kAnswer;
    return any;
  };
  while (true) {
    if (std::find(visited.begin(), visited.end(), current) != visited.end()) {
      break;  // CNAME loop
    }
    visited.push_back(current);
    bool take_cname = qtype != RRType::kCNAME && qtype != RRType::kANY;

    if (zone.Exists(current)) {
      NaiveSet cname = zone.Set(current, RRType::kCNAME);
      if (take_cname && !cname.records.empty()) {
        if (!chase(cname)) {
          result.outcome = LookupOutcome::kCname;
          return result;
        }
        continue;
      }
      std::vector<NaiveSet> sets;
      if (qtype == RRType::kANY) {
        for (RRType type : zone.TypesAt(current)) {
          sets.push_back(zone.Set(current, type));
        }
      } else {
        sets.push_back(zone.Set(current, qtype));
      }
      if (answer_or_nodata(std::move(sets))) return result;
      break;
    }
    if (zone.ExistsAtOrBelow(current)) {
      result.outcome = LookupOutcome::kNoData;  // empty non-terminal
      break;
    }
    std::optional<Name> encloser;
    for (size_t k = current.label_count(); k-- > origin_labels;) {
      Name ancestor = Suffix(current, k);
      if (zone.ExistsAtOrBelow(ancestor)) {
        encloser = ancestor;
        break;
      }
    }
    if (encloser.has_value()) result.encloser = *encloser;
    if (!encloser.has_value() || !zone.Exists(WildcardChild(*encloser))) {
      result.outcome = LookupOutcome::kNxDomain;
      break;
    }
    Name wildcard = WildcardChild(*encloser);
    result.wildcard = true;
    NaiveSet cname = zone.Synthesized(current, wildcard, RRType::kCNAME);
    if (take_cname && !cname.records.empty()) {
      if (!chase(cname)) {
        result.outcome = LookupOutcome::kCname;
        return result;
      }
      continue;
    }
    std::vector<NaiveSet> sets;
    if (qtype == RRType::kANY) {
      for (RRType type : zone.TypesAt(wildcard)) {
        sets.push_back(zone.Synthesized(current, wildcard, type));
      }
    } else {
      sets.push_back(zone.Synthesized(current, wildcard, qtype));
    }
    if (answer_or_nodata(std::move(sets))) return result;
    break;
  }
  if (chased) result.outcome = LookupOutcome::kCname;
  NaiveSet soa = zone.Set(zone.origin(), RRType::kSOA);
  if (!soa.records.empty()) result.authority.push_back(soa);
  return result;
}

dns::Message NaiveResponse(const NaiveZone& zone, const dns::Message& query,
                           bool dnssec) {
  dns::Message response;
  response.id = query.id;
  response.qr = true;
  response.opcode = query.opcode;
  response.rd = query.rd;
  response.questions = query.questions;
  if (query.edns.has_value()) {
    response.edns = dns::Edns{.udp_payload_size = 4096,
                              .do_bit = query.edns->do_bit};
  }
  const dns::Question& q = query.questions.front();
  NaiveResult result = NaiveLookup(zone, q.name, q.type);
  switch (result.outcome) {
    case LookupOutcome::kNotInZone:
      response.rcode = dns::Rcode::kRefused;
      return response;
    case LookupOutcome::kNxDomain:
      response.rcode = dns::Rcode::kNxDomain;
      response.aa = true;
      break;
    case LookupOutcome::kDelegation:
      break;
    default:
      response.aa = true;
  }

  auto append = [&](const NaiveSet& set, bool sign,
                    std::vector<ResourceRecord>& section) {
    section.insert(section.end(), set.records.begin(), set.records.end());
    if (!sign || set.type == RRType::kRRSIG) return;
    for (auto record : zone.Records(set.source, RRType::kRRSIG)) {
      if (std::get<dns::RrsigRdata>(record.rdata).type_covered != set.type) {
        continue;
      }
      record.name = set.owner;
      section.push_back(record);
    }
  };
  for (const auto& set : result.answers) append(set, dnssec, response.answers);
  for (const auto& set : result.authority) {
    bool referral_ns = result.outcome == LookupOutcome::kDelegation &&
                       set.type == RRType::kNS;
    append(set, dnssec && !referral_ns, response.authorities);
  }
  for (const auto& set : result.additional) {
    append(set, dnssec, response.additionals);
  }
  if (dnssec && (result.outcome == LookupOutcome::kNxDomain ||
                 result.outcome == LookupOutcome::kNoData || result.wildcard)) {
    auto nsec = zone.NsecOwnerCovering(q.name);
    if (nsec.has_value()) {
      append(zone.Set(*nsec, RRType::kNSEC), true, response.authorities);
    }
    if (result.outcome == LookupOutcome::kNxDomain) {
      auto wc_nsec = zone.NsecOwnerCovering(WildcardChild(result.encloser));
      if (wc_nsec.has_value() && nsec.has_value() && *wc_nsec != *nsec) {
        append(zone.Set(*wc_nsec, RRType::kNSEC), true, response.authorities);
      }
    }
  }
  std::vector<Name> targets;
  for (const auto& record : response.answers) {
    if (const auto* ns = std::get_if<dns::NsRdata>(&record.rdata)) {
      targets.push_back(ns->nsdname);
    } else if (const auto* mx = std::get_if<dns::MxRdata>(&record.rdata)) {
      targets.push_back(mx->exchange);
    } else if (const auto* srv = std::get_if<dns::SrvRdata>(&record.rdata)) {
      targets.push_back(srv->target);
    }
  }
  for (const Name& target : targets) {
    for (RRType type : {RRType::kA, RRType::kAAAA}) {
      bool already = std::any_of(
          response.additionals.begin(), response.additionals.end(),
          [&](const ResourceRecord& r) {
            return r.name == target && r.type == type;
          });
      NaiveSet set = zone.Set(target, type);
      if (!already && !set.records.empty()) {
        append(set, dnssec, response.additionals);
      }
    }
  }
  return response;
}

std::vector<std::string> Texts(const std::vector<ResourceRecord>& records) {
  std::vector<std::string> out;
  for (const auto& record : records) out.push_back(record.ToText());
  return out;
}

std::vector<std::string> Texts(const std::vector<RRsetRef>& refs) {
  std::vector<std::string> out;
  for (const auto& ref : refs) {
    out.push_back(ref.name.ToString() + " " + dns::RRTypeToString(ref.type) +
                  " x" + std::to_string(ref.size()));
  }
  return out;
}

std::vector<std::string> Texts(const std::vector<NaiveSet>& sets) {
  std::vector<std::string> out;
  for (const auto& set : sets) {
    out.push_back(set.owner.ToString() + " " + dns::RRTypeToString(set.type) +
                  " x" + std::to_string(set.records.size()));
  }
  return out;
}

// The query names to try against a zone: every owner, and around each a
// child, a sibling, its ancestors (empty non-terminals among them), a
// mixed-case spelling, and children whose labels hold '.' or 0x00; around
// each wildcard, names it matches at one and two labels' depth.
std::vector<Name> ProbeNames(const NaiveZone& naive, const Zone& zone) {
  std::vector<Name> owners;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (owners.empty() || owners.back() != rrset.name) {
      owners.push_back(rrset.name);
    }
  });
  std::vector<Name> out;
  auto add = [&](Result<Name> name) {
    if (name.ok()) out.push_back(std::move(*name));
  };
  for (const Name& owner : owners) {
    out.push_back(owner);
    add(owner.Child("oracle-child"));
    add(owner.Child("a.b"));
    add(owner.Child(std::string("x\0y", 3)));
    if (owner.label_count() > naive.origin().label_count()) {
      Name parent = *owner.Parent();
      add(parent.Child("oracle-sibling"));
      add(parent.Child(owner.labels().front() + std::string(1, '\0')));
      for (size_t k = naive.origin().label_count(); k < owner.label_count();
           ++k) {
        out.push_back(Suffix(owner, k));
      }
      auto labels = owner.labels();
      for (auto& label : labels) {
        for (char& c : label) c = static_cast<char>(std::toupper(c));
      }
      add(Name::FromLabels(labels));
      // The first two labels fused into one dotted label.
      if (owner.label_count() >= naive.origin().label_count() + 2) {
        auto fused = owner.labels();
        fused[1] = fused[0] + "." + fused[1];
        fused.erase(fused.begin());
        add(Name::FromLabels(fused));
      }
    }
    if (owner.IsWildcard()) {
      Name encloser = *owner.Parent();
      add(encloser.Child("matched"));
      add(encloser.Child("two").value().Child("deep"));
    }
  }
  return out;
}

struct Tally {
  size_t queries = 0;
  std::map<LookupOutcome, size_t> outcomes;
};

void ExpectMatchesOracle(const Zone& zone, const std::vector<RRType>& qtypes,
                         Tally& tally) {
  NaiveZone naive(zone);
  for (const Name& qname : ProbeNames(naive, zone)) {
    for (RRType qtype : qtypes) {
      NaiveResult expected = NaiveLookup(naive, qname, qtype);
      LookupResult got = Lookup(zone, qname, qtype);
      std::string where = qname.ToString() + " " + dns::RRTypeToString(qtype);
      ASSERT_EQ(got.outcome, expected.outcome) << where;
      ASSERT_EQ(got.wildcard, expected.wildcard) << where;
      ASSERT_EQ(Texts(got.answers), Texts(expected.answers)) << where;
      ASSERT_EQ(Texts(got.authority), Texts(expected.authority)) << where;
      ASSERT_EQ(Texts(got.additional), Texts(expected.additional)) << where;
      ++tally.outcomes[got.outcome];

      for (bool dnssec : {false, true}) {
        auto query = dns::Message::MakeQuery(qname, qtype, false);
        query.id = 77;
        query.edns = dns::Edns{.do_bit = dnssec};
        dns::Message want = NaiveResponse(naive, query, dnssec);
        dns::Message have = BuildResponse(zone, query, dnssec);
        std::string what = where + (dnssec ? " +do" : "");
        ASSERT_EQ(have.rcode, want.rcode) << what;
        ASSERT_EQ(have.aa, want.aa) << what;
        ASSERT_EQ(Texts(have.answers), Texts(want.answers)) << what;
        ASSERT_EQ(Texts(have.authorities), Texts(want.authorities)) << what;
        ASSERT_EQ(Texts(have.additionals), Texts(want.additionals)) << what;
        ASSERT_EQ(have.Encode(), want.Encode()) << what;
        ++tally.queries;
      }
    }
  }
}

const std::vector<RRType> kAllTypes = {
    RRType::kA,    RRType::kAAAA,  RRType::kNS,   RRType::kCNAME,
    RRType::kMX,   RRType::kTXT,   RRType::kSOA,  RRType::kDS,
    RRType::kNSEC, RRType::kRRSIG, RRType::kDNSKEY, RRType::kANY};

ZonePtr Parse(const char* text) {
  auto zone = ParseMasterFile(text, MasterFileOptions{});
  EXPECT_TRUE(zone.ok()) << zone.error().ToString();
  return std::make_shared<Zone>(std::move(*zone));
}

// The zone_test fixture, plus a wildcard CNAME, a CNAME loop and SRV.
constexpr const char* kExampleZone = R"(
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 7200 3600 1209600 300
@ IN NS ns1
@ IN NS ns2
@ IN MX 10 mail
ns1 IN A 192.0.2.53
ns2 IN A 192.0.2.54
ns2 IN AAAA 2001:db8::54
www IN A 192.0.2.1
www IN A 192.0.2.2
alias IN CNAME www
external IN CNAME www.other.net.
*.wild IN TXT "wildcard data"
*.wild IN MX 5 mail
*.cn IN CNAME www
loop1 IN CNAME loop2
loop2 IN CNAME loop1
sub IN NS ns.sub
sub IN DS 12345 8 2 aabbccdd
ns.sub IN A 192.0.2.100
nods IN NS ns.nods
ns.nods IN A 192.0.2.101
a.b.deep IN A 192.0.2.200
mail IN A 192.0.2.25
_sip._tcp IN SRV 1 2 5060 www
)";

// Labels that only differ by the octets canonical order is most sensitive
// to: '.', 0x00, case, and prefixes of one another.
constexpr const char* kOddOctetZone = R"(
$ORIGIN odd.
@ 3600 IN SOA ns admin 1 2 3 4 300
@ IN NS ns
ns IN A 192.0.2.1
a IN A 192.0.2.2
a\000 IN A 192.0.2.3
a\000b IN A 192.0.2.4
\000 IN A 192.0.2.5
a\.b IN A 192.0.2.6
b.a IN A 192.0.2.7
A\255 IN A 192.0.2.8
x.y\.z IN TXT "dotted below"
* IN TXT "apex wildcard"
e.n.t IN A 192.0.2.9
)";

TEST(LookupOracle, ExampleZoneUnsigned) {
  Tally tally;
  ExpectMatchesOracle(*Parse(kExampleZone), kAllTypes, tally);
  EXPECT_GT(tally.outcomes[LookupOutcome::kDelegation], 0u);
  EXPECT_GT(tally.outcomes[LookupOutcome::kCname], 0u);
  EXPECT_GT(tally.outcomes[LookupOutcome::kNxDomain], 0u);
}

TEST(LookupOracle, ExampleZoneSigned) {
  ZonePtr zone = Parse(kExampleZone);
  ASSERT_TRUE(SignZone(*zone, DnssecConfig{}).ok());
  Tally tally;
  ExpectMatchesOracle(*zone, kAllTypes, tally);
  EXPECT_GT(tally.outcomes[LookupOutcome::kAnswer], 0u);
  EXPECT_GT(tally.outcomes[LookupOutcome::kNoData], 0u);
}

TEST(LookupOracle, OddOctetsSigned) {
  ZonePtr zone = Parse(kOddOctetZone);
  ASSERT_TRUE(SignZone(*zone, DnssecConfig{}).ok());
  Tally tally;
  ExpectMatchesOracle(*zone, kAllTypes, tally);
}

TEST(LookupOracle, SignedBRootZone) {
  auto root = workload::BuildRootHierarchy(30, /*sign=*/true, DnssecConfig{});
  Tally tally;
  ExpectMatchesOracle(*root.root,
                      {RRType::kA, RRType::kNS, RRType::kDS, RRType::kSOA,
                       RRType::kNSEC, RRType::kANY},
                      tally);
  EXPECT_GT(tally.outcomes[LookupOutcome::kDelegation], 0u);
  EXPECT_GT(tally.outcomes[LookupOutcome::kNxDomain], 0u);
}

TEST(LookupOracle, GeneratedHierarchy) {
  workload::HierarchyConfig config;
  config.n_tlds = 4;
  config.n_slds_per_tld = 5;
  config.sign_root = true;
  auto hierarchy = workload::BuildHierarchy(config);
  Tally tally;
  for (const auto& zone : hierarchy.AllZones()) {
    ExpectMatchesOracle(*zone,
                        {RRType::kA, RRType::kAAAA, RRType::kNS, RRType::kDS,
                         RRType::kMX, RRType::kANY},
                        tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.outcomes[LookupOutcome::kDelegation], 0u);
  EXPECT_GT(tally.outcomes[LookupOutcome::kAnswer], 0u);
}

}  // namespace
}  // namespace ldp::zone
