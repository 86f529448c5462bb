// Domain names (RFC 1035 §3.1): an ordered list of labels, case-preserving
// but case-insensitive for comparison, with wire-format compression support.
#ifndef LDPLAYER_DNS_NAME_H
#define LDPLAYER_DNS_NAME_H

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ldp::dns {

constexpr size_t kMaxLabelLength = 63;
constexpr size_t kMaxNameWireLength = 255;

class Name {
 public:
  // The root name (zero labels).
  Name() = default;

  // Parses presentation format ("www.example.com", trailing dot optional,
  // "." is the root). Supports \DDD and \X escapes per RFC 1035 §5.1.
  static Result<Name> Parse(std::string_view text);

  static Name Root() { return Name(); }

  // Builds from raw labels (no escaping applied); each label must be
  // non-empty and <= 63 octets.
  static Result<Name> FromLabels(std::vector<std::string> labels);

  bool IsRoot() const { return labels_.empty(); }
  size_t label_count() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

  // Length of the wire encoding without compression (labels + length octets
  // + terminal zero octet).
  size_t WireLength() const;

  // Presentation format, always with a trailing dot ("www.example.com.",
  // root is ".").
  std::string ToString() const;

  // Strips the leftmost label; calling on the root is an error.
  Result<Name> Parent() const;

  // Prepends `label` (e.g. Child("www") on example.com -> www.example.com).
  Result<Name> Child(std::string_view label) const;

  // True if *this is `ancestor` or inside it (example.com is a subdomain of
  // com and of the root). Case-insensitive, per DNS semantics.
  bool IsSubdomainOf(const Name& ancestor) const;

  // True iff the leftmost label is "*" (wildcard owner name, RFC 4592).
  bool IsWildcard() const;

  // The wildcard name covering this name's immediate parent domain:
  // a.b.example.com -> *.b.example.com.
  Result<Name> AsWildcardSibling() const;

  // Case-insensitive equality/ordering. Ordering is canonical DNS order
  // (RFC 4034 §6.1): by label from the rightmost, case-folded, memcmp-style.
  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }
  bool operator<(const Name& other) const;

  // Lowercased presentation form; used as a canonical map key.
  std::string CanonicalKey() const;

  size_t Hash() const;

 private:
  std::vector<std::string> labels_;  // leftmost label first
};

// Tracks where names were written while encoding a message so later names
// can emit compression pointers (RFC 1035 §4.1.4). One compressor per
// message. The table is flat: a (suffix hash, offset) pair per written
// suffix, in open addressing. A hash hit is only a candidate; it counts once
// the bytes already written at that offset spell the same suffix, so no
// suffix string is ever built and labels holding '.' never alias.
class NameCompressor {
 public:
  NameCompressor() = default;
  NameCompressor(const NameCompressor&) = delete;
  NameCompressor& operator=(const NameCompressor&) = delete;

  // Appends the wire form of `name` to `writer`, emitting a pointer to a
  // previously written suffix when one exists, and recording newly written
  // suffixes (only offsets < 0x3fff are recordable).
  void Encode(const Name& name, ByteWriter& writer);

 private:
  struct Slot {
    uint32_t hash = 0;
    uint16_t offset = kEmpty;
  };
  static constexpr uint16_t kEmpty = 0xffff;  // never a recordable offset
  static constexpr size_t kInlineSlots = 64;

  Slot* slots() { return spill_.empty() ? table_.data() : spill_.data(); }
  // The offset of a written suffix equal to labels[first..], or kEmpty.
  uint16_t Find(uint32_t hash, const Bytes& written,
                const std::vector<std::string>& labels, size_t first);
  void Insert(uint32_t hash, uint16_t offset);

  std::array<Slot, kInlineSlots> table_;
  std::vector<Slot> spill_;  // takes over once the inline table fills
  size_t mask_ = kInlineSlots - 1;
  size_t used_ = 0;
};

// A name's key in the zone index (zone/zone.h), built on the stack. Labels
// are case-folded and written rightmost first; in each label 0x00 becomes
// 00 FF and the label ends with 00 00. So keys compare with memcmp exactly
// as names do under Name::operator< (RFC 4034 §6.1), whatever octets the
// labels hold, and the key of every ancestor is a prefix of the key.
class NameKey {
 public:
  // Longest key: every label octet escaped, plus a terminator per label.
  static constexpr size_t kMaxLength = 2 * (kMaxNameWireLength - 1);

  NameKey() = default;
  explicit NameKey(const Name& name) { Assign(name); }

  void Assign(const Name& name);
  // Makes `label` the new leftmost label (e.g. "*" for a wildcard). The
  // result must still be a valid name: at most 255 octets on the wire.
  void PushLabel(std::string_view label);
  // Keeps the rightmost `labels` labels.
  void Truncate(size_t labels) { labels_ = labels; }

  size_t label_count() const { return labels_; }
  std::string_view view() const { return Prefix(labels_); }
  // The key of the ancestor keeping the rightmost `labels` labels.
  std::string_view Prefix(size_t labels) const {
    return std::string_view(bytes_.data(), ends_[labels]);
  }

 private:
  size_t labels_ = 0;
  std::array<uint16_t, kMaxNameWireLength / 2 + 1> ends_{};  // per label count
  std::array<char, kMaxLength> bytes_;
};

// Decodes a wire-format name starting at the reader's cursor, following
// compression pointers through reader.buffer(). The cursor advances past the
// name as it appears in the stream (pointers count as 2 bytes).
Result<Name> DecodeName(ByteReader& reader);

// Encodes without compression (e.g. for canonical forms and hashing).
void EncodeNameUncompressed(const Name& name, ByteWriter& writer);

}  // namespace ldp::dns

template <>
struct std::hash<ldp::dns::Name> {
  size_t operator()(const ldp::dns::Name& n) const noexcept { return n.Hash(); }
};

#endif  // LDPLAYER_DNS_NAME_H
