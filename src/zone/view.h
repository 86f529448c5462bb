// Split-horizon DNS (paper §2.4): the meta-DNS-server hosts many zones on
// one listener and selects the zone by the *source address* of the query —
// which, after the recursive proxy's rewrite, is the original query
// destination address (OQDA), i.e. the public address of the nameserver the
// recursive believed it was asking.
#ifndef LDPLAYER_ZONE_VIEW_H
#define LDPLAYER_ZONE_VIEW_H

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ip.h"
#include "common/result.h"
#include "zone/zone.h"

namespace ldp::zone {

// A set of zones served together; the deepest origin containing the qname
// answers (longest-suffix match, like a server with several zone clauses).
class ZoneSet {
 public:
  Status AddZone(ZonePtr zone);

  // The zone whose origin is the longest ancestor of `qname`, or nullptr.
  const Zone* FindBestZone(const dns::Name& qname) const;
  ZonePtr FindZone(const dns::Name& origin) const;

  size_t zone_count() const { return zones_.size(); }
  size_t TotalMemoryFootprint() const;

 private:
  struct Entry {
    std::string key;  // dns::NameKey of the origin
    ZonePtr zone;
  };
  // The zone whose origin has exactly this key, or nullptr.
  const Entry* Find(std::string_view key) const;

  std::vector<Entry> zones_;  // sorted by key
};

// BIND-style views with match-clients lists of explicit addresses. The
// LDplayer deployment gives every zone's nameserver addresses their own
// view, so the OQDA uniquely selects the level of the hierarchy.
class ViewTable {
 public:
  // Adds a view matching the given source addresses. Address collisions
  // across views are an error: they would make zone selection ambiguous —
  // exactly the failure the paper's design avoids.
  Status AddView(std::string name, const std::vector<IpAddress>& sources,
                 ZoneSet zones);

  // Fallback when no view matches (BIND: match-clients { any; }).
  void SetDefaultView(ZoneSet zones) { default_view_ = std::move(zones); }

  // The zone set for this query source, or the default view.
  const ZoneSet* Match(const IpAddress& source) const;

  size_t view_count() const { return views_.size(); }

 private:
  struct View {
    std::string name;
    ZoneSet zones;
  };
  std::vector<View> views_;
  std::unordered_map<IpAddress, size_t> source_to_view_;
  ZoneSet default_view_;
};

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_VIEW_H
