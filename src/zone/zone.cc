#include "zone/zone.h"

#include <algorithm>

namespace ldp::zone {

Zone::Zone(dns::Name origin) : origin_(std::move(origin)) {}

Status Zone::AddRecord(const dns::ResourceRecord& record) {
  if (!record.name.IsSubdomainOf(origin_)) {
    return Error(ErrorCode::kInvalidArgument,
                 record.name.ToString() + " is outside zone " +
                     origin_.ToString());
  }
  dns::NameKey key(record.name);
  size_t pos = LowerBound(key.view());
  if (pos == index_.size() || KeyOf(index_[pos]) != key.view()) {
    // A new node: its entry inherits the covering NSEC of its predecessor.
    Node* node = &nodes_.emplace_back(Node(record.name));
    if (record.name.label_count() == origin_.label_count()) apex_ = node;
    IndexEntry entry{static_cast<uint32_t>(keys_.size()),
                     static_cast<uint16_t>(key.view().size()), node,
                     pos > 0 ? index_[pos - 1].nsec : nullptr};
    keys_.append(key.view());
    index_.insert(index_.begin() + static_cast<ptrdiff_t>(pos), entry);
  }
  Node& node = *index_[pos].node;

  auto it = std::find_if(node.rrsets_.begin(), node.rrsets_.end(),
                         [&](const Node::Typed& t) {
                           return t.type >= record.type;
                         });
  if (it == node.rrsets_.end() || it->type != record.type) {
    dns::RRset& rrset = rrsets_.emplace_back();
    rrset.name = record.name;
    rrset.type = record.type;
    rrset.klass = record.klass;
    rrset.ttl = record.ttl;
    it = node.rrsets_.insert(it, Node::Typed{record.type, &rrset});
    if (record.type == dns::RRType::kNSEC) {
      // This node now covers itself and every following node that
      // inherited the previous cover.
      const Node* previous = index_[pos].nsec;
      for (size_t i = pos; i < index_.size() && index_[i].nsec == previous;
           ++i) {
        index_[i].nsec = &node;
      }
    }
  }
  dns::RRset& rrset = *it->rrset;
  if (std::find(rrset.rdatas.begin(), rrset.rdatas.end(), record.rdata) !=
      rrset.rdatas.end()) {
    return Status::Ok();  // duplicate rdata: set semantics
  }
  rrset.rdatas.push_back(record.rdata);
  ++record_count_;
  return Status::Ok();
}

Status Zone::AddRRset(const dns::RRset& rrset) {
  for (const auto& record : rrset.ToRecords()) {
    LDP_RETURN_IF_ERROR(AddRecord(record));
  }
  return Status::Ok();
}

size_t Zone::LowerBound(std::string_view key) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [this](const IndexEntry& entry, std::string_view k) {
        return KeyOf(entry) < k;
      });
  return static_cast<size_t>(it - index_.begin());
}

const Zone::Node* Zone::FindNode(std::string_view key) const {
  size_t pos = LowerBound(key);
  if (pos == index_.size() || KeyOf(index_[pos]) != key) return nullptr;
  return index_[pos].node;
}

bool Zone::HasNodeAtOrBelow(std::string_view key) const {
  // Descendants sort right after a name and extend its key, so the first
  // key >= `key` starts with `key` iff the name or a descendant exists.
  size_t pos = LowerBound(key);
  return pos < index_.size() && KeyOf(index_[pos]).starts_with(key);
}

const Zone::Node* Zone::CoveringNsec(std::string_view key) const {
  auto it = std::upper_bound(
      index_.begin(), index_.end(), key,
      [this](std::string_view k, const IndexEntry& entry) {
        return k < KeyOf(entry);
      });
  return it == index_.begin() ? nullptr : std::prev(it)->nsec;
}

const dns::RRset* Zone::FindRRset(const dns::Name& name,
                                  dns::RRType type) const {
  const Node* node = FindNode(dns::NameKey(name).view());
  return node != nullptr ? node->Find(type) : nullptr;
}

bool Zone::IsEmptyNonTerminal(const dns::Name& name) const {
  dns::NameKey key(name);
  return FindNode(key.view()) == nullptr && HasNodeAtOrBelow(key.view());
}

std::vector<dns::Name> Zone::DelegationPoints() const {
  std::vector<dns::Name> cuts;
  for (const IndexEntry& entry : index_) {
    if (entry.node == apex_) continue;
    if (entry.node->Find(dns::RRType::kNS) != nullptr) {
      cuts.push_back(entry.node->name());
    }
  }
  return cuts;
}

void Zone::ForEachRRset(
    const std::function<void(const dns::RRset&)>& visit) const {
  for (const IndexEntry& entry : index_) entry.node->ForEach(visit);
}

Status Zone::Validate() const {
  if (Soa() == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "zone " + origin_.ToString() + " lacks a SOA record");
  }
  if (ApexNs() == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "zone " + origin_.ToString() + " lacks apex NS records");
  }
  return Status::Ok();
}

size_t Zone::MemoryFootprint() const {
  size_t bytes = keys_.size() + index_.size() * sizeof(IndexEntry);
  for (const Node& node : nodes_) {
    bytes += node.name().WireLength() + sizeof(Node) +
             node.rrsets_.size() * sizeof(Node::Typed);
  }
  for (const dns::RRset& rrset : rrsets_) {
    bytes += sizeof(dns::RRset);
    for (const auto& rdata : rrset.rdatas) {
      bytes += dns::RdataWireLength(rdata) + sizeof(dns::Rdata);
    }
  }
  return bytes;
}

}  // namespace ldp::zone
