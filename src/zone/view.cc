#include "zone/view.h"

#include <algorithm>

namespace ldp::zone {

Status ZoneSet::AddZone(ZonePtr zone) {
  if (zone == nullptr) {
    return Error(ErrorCode::kInvalidArgument, "null zone");
  }
  dns::NameKey key(zone->origin());
  auto it = std::lower_bound(
      zones_.begin(), zones_.end(), key.view(),
      [](const Entry& entry, std::string_view k) {
        return entry.key < k;
      });
  if (it != zones_.end() && it->key == key.view()) {
    return Error(ErrorCode::kAlreadyExists,
                 "zone already present: " + zone->origin().ToString());
  }
  zones_.insert(it, Entry{std::string(key.view()), std::move(zone)});
  return Status::Ok();
}

const ZoneSet::Entry* ZoneSet::Find(std::string_view key) const {
  auto it = std::lower_bound(
      zones_.begin(), zones_.end(), key,
      [](const Entry& entry, std::string_view k) {
        return entry.key < k;
      });
  return it != zones_.end() && it->key == key ? &*it : nullptr;
}

const Zone* ZoneSet::FindBestZone(const dns::Name& qname) const {
  // Walk the ancestor keys from qname to the root; the first hit is the
  // deepest origin. O(labels) binary searches, no names built.
  dns::NameKey key(qname);
  for (size_t labels = key.label_count() + 1; labels-- > 0;) {
    if (const Entry* entry = Find(key.Prefix(labels))) {
      return entry->zone.get();
    }
  }
  return nullptr;
}

ZonePtr ZoneSet::FindZone(const dns::Name& origin) const {
  const Entry* entry = Find(dns::NameKey(origin).view());
  return entry != nullptr ? entry->zone : nullptr;
}

size_t ZoneSet::TotalMemoryFootprint() const {
  size_t total = 0;
  for (const Entry& entry : zones_) {
    total += entry.zone->MemoryFootprint();
  }
  return total;
}

Status ViewTable::AddView(std::string name,
                          const std::vector<IpAddress>& sources,
                          ZoneSet zones) {
  size_t index = views_.size();
  for (const IpAddress& source : sources) {
    auto [it, inserted] = source_to_view_.emplace(source, index);
    if (!inserted) {
      return Error(ErrorCode::kAlreadyExists,
                   "source " + source.ToString() + " already matches view " +
                       views_[it->second].name);
    }
  }
  views_.push_back(View{std::move(name), std::move(zones)});
  return Status::Ok();
}

const ZoneSet* ViewTable::Match(const IpAddress& source) const {
  auto it = source_to_view_.find(source);
  if (it != source_to_view_.end()) return &views_[it->second].zones;
  return &default_view_;
}

}  // namespace ldp::zone
