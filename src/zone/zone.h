// Authoritative zone data: the RRsets of each owner name, with the apex
// bookkeeping a server needs (SOA, apex NS, zone cuts), and a flat index of
// the nodes in canonical DNS order that every lookup goes through.
//
// The index is one contiguous, sorted array with an entry per node. An
// entry holds the node's dns::NameKey (lowercased, rightmost label first,
// so a name's ancestors are prefixes of its key) and the node whose NSEC
// covers its position. It is kept current by every mutation, so a zone is
// ready to serve as soon as it is built; once served it is read-only and
// shards read it concurrently without locks. The index points into the
// RRset storage and never copies an RRset.
#ifndef LDPLAYER_ZONE_ZONE_H
#define LDPLAYER_ZONE_ZONE_H

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dns/name.h"
#include "dns/rr.h"

namespace ldp::zone {

class Zone {
 public:
  // The RRsets at one owner name, by ascending type.
  class Node {
   public:
    const dns::Name& name() const { return name_; }
    // nullptr when absent.
    const dns::RRset* Find(dns::RRType type) const {
      for (const auto& entry : rrsets_) {
        if (entry.type == type) return entry.rrset;
      }
      return nullptr;
    }
    template <typename Visit>
    void ForEach(Visit&& visit) const {
      for (const auto& entry : rrsets_) visit(*entry.rrset);
    }

   private:
    friend class Zone;
    struct Typed {
      dns::RRType type;
      dns::RRset* rrset;  // stable: points into Zone::rrsets_
    };
    explicit Node(dns::Name name) : name_(std::move(name)) {}

    dns::Name name_;
    std::vector<Typed> rrsets_;
  };

  explicit Zone(dns::Name origin);
  // The index points into this zone's own storage, so a copy would alias
  // the source. Moving keeps every address.
  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;
  Zone(Zone&&) = default;
  Zone& operator=(Zone&&) = default;

  const dns::Name& origin() const { return origin_; }

  // Merges a record into its RRset. Records outside the origin are rejected;
  // duplicate rdata is dropped silently (DNS sets have set semantics). The
  // RRset TTL is the first record's TTL.
  Status AddRecord(const dns::ResourceRecord& record);
  Status AddRRset(const dns::RRset& rrset);

  // nullptr when absent.
  const dns::RRset* FindRRset(const dns::Name& name, dns::RRType type) const;

  // True if `name` does not exist but some existing name is below it —
  // an empty non-terminal, which must answer NODATA rather than NXDOMAIN.
  bool IsEmptyNonTerminal(const dns::Name& name) const;

  const dns::RRset* Soa() const {
    return apex_ != nullptr ? apex_->Find(dns::RRType::kSOA) : nullptr;
  }
  const dns::RRset* ApexNs() const {
    return apex_ != nullptr ? apex_->Find(dns::RRType::kNS) : nullptr;
  }

  // Names with NS RRsets strictly below the apex: the zone's cuts.
  std::vector<dns::Name> DelegationPoints() const;

  // Index access by key (dns::NameKey::view() or Prefix()); lookups use
  // these so they never build a dns::Name.
  //
  // The node whose key is exactly `key`, or nullptr.
  const Node* FindNode(std::string_view key) const;
  // True if the name with this key exists or is an empty non-terminal.
  bool HasNodeAtOrBelow(std::string_view key) const;
  // The canonically greatest node <= `key` that has an NSEC RRset, or
  // nullptr: where the covering NSEC for DNSSEC denial of existence lives.
  const Node* CoveringNsec(std::string_view key) const;
  // The node at the origin, or nullptr while it has no records.
  const Node* apex() const { return apex_; }

  size_t record_count() const { return record_count_; }
  size_t node_count() const { return index_.size(); }

  // Visits RRsets in canonical order.
  void ForEachRRset(
      const std::function<void(const dns::RRset&)>& visit) const;

  // A zone is servable when it has a SOA and apex NS set.
  Status Validate() const;

  // Estimated in-memory footprint in bytes (names, rdata and the index),
  // used by the hierarchy-emulation ablation bench.
  size_t MemoryFootprint() const;

 private:
  struct IndexEntry {
    uint32_t key_offset;  // into keys_
    uint16_t key_length;
    Node* node;
    const Node* nsec;  // this node if it has an NSEC, else the nearest before
  };

  std::string_view KeyOf(const IndexEntry& entry) const {
    return std::string_view(keys_).substr(entry.key_offset, entry.key_length);
  }
  // Position of the first entry whose key is >= `key`.
  size_t LowerBound(std::string_view key) const;

  dns::Name origin_;
  std::deque<Node> nodes_;        // stable addresses, insertion order
  std::deque<dns::RRset> rrsets_;  // stable addresses, insertion order
  std::vector<IndexEntry> index_;  // canonical order (dns::Name::operator<)
  std::string keys_;               // every node's key, back to back
  Node* apex_ = nullptr;
  size_t record_count_ = 0;
};

using ZonePtr = std::shared_ptr<Zone>;

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_ZONE_H
