#include "dns/name.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace ldp::dns {
namespace {

// Case folding as a table (the froot-src maptolower idiom): ASCII A-Z only,
// every other octet maps to itself.
constexpr std::array<uint8_t, 256> MakeFoldTable() {
  std::array<uint8_t, 256> table{};
  for (size_t c = 0; c < 256; ++c) {
    table[c] = static_cast<uint8_t>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
  }
  return table;
}
constexpr std::array<uint8_t, 256> kFold = MakeFoldTable();

char FoldCase(char c) {
  return static_cast<char>(kFold[static_cast<uint8_t>(c)]);
}

bool LabelEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldCase(a[i]) != FoldCase(b[i])) return false;
  }
  return true;
}

// memcmp-style comparison of case-folded labels (RFC 4034 §6.1).
int LabelCompare(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    unsigned char ca = static_cast<unsigned char>(FoldCase(a[i]));
    unsigned char cb = static_cast<unsigned char>(FoldCase(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

// Does a label need escaping in presentation format? Beyond the RFC 1035
// specials ('.', '\\'), cover everything the master-file reader treats as
// structure — quotes, comments, parens, whitespace, and the '$'/'@'
// sigils — so a serialized name re-tokenizes as exactly one name token
// (found by the zone fuzzer: an owner label "$" serialized bare and
// reparsed as an unknown $-directive).
bool NeedsEscape(char c) {
  return c == '.' || c == '\\' || c == '"' || c == '$' || c == '@' ||
         c == ';' || c == '(' || c == ')' || c == ' ' ||
         !std::isprint(static_cast<unsigned char>(c));
}

// Characters the tokenizer splits on before escapes are interpreted; they
// must be emitted as \DDD (no raw occurrence), not as '\' + char.
bool NeedsDddEscape(char c) {
  return c == ';' || c == '(' || c == ')' || c == ' ' ||
         !std::isprint(static_cast<unsigned char>(c));
}

}  // namespace

Result<Name> Name::Parse(std::string_view text) {
  Name name;
  if (text.empty()) {
    return Error(ErrorCode::kParseError, "empty name (root is \".\")");
  }
  if (text == ".") return name;

  std::string label;
  size_t i = 0;
  auto flush_label = [&]() -> Status {
    if (label.empty()) {
      return Error(ErrorCode::kParseError,
                   "empty label in name: " + std::string(text));
    }
    if (label.size() > kMaxLabelLength) {
      return Error(ErrorCode::kParseError,
                   "label longer than 63 octets in: " + std::string(text));
    }
    name.labels_.push_back(std::move(label));
    label.clear();
    return Status::Ok();
  };

  while (i < text.size()) {
    char c = text[i];
    if (c == '.') {
      LDP_RETURN_IF_ERROR(flush_label());
      ++i;
      // A trailing dot ends the name; a dot elsewhere must be followed by
      // another label, enforced by flush_label on the next '.' or at end.
      if (i == text.size()) break;
      continue;
    }
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        return Error(ErrorCode::kParseError, "dangling escape in name");
      }
      char next = text[i + 1];
      if (std::isdigit(static_cast<unsigned char>(next))) {
        if (i + 3 >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[i + 2])) ||
            !std::isdigit(static_cast<unsigned char>(text[i + 3]))) {
          return Error(ErrorCode::kParseError, "bad \\DDD escape in name");
        }
        int value = (text[i + 1] - '0') * 100 + (text[i + 2] - '0') * 10 +
                    (text[i + 3] - '0');
        if (value > 255) {
          return Error(ErrorCode::kParseError, "\\DDD escape > 255");
        }
        label.push_back(static_cast<char>(value));
        i += 4;
      } else {
        label.push_back(next);
        i += 2;
      }
      continue;
    }
    label.push_back(c);
    ++i;
  }
  if (!label.empty()) LDP_RETURN_IF_ERROR(flush_label());

  if (name.WireLength() > kMaxNameWireLength) {
    return Error(ErrorCode::kParseError,
                 "name exceeds 255 octets: " + std::string(text));
  }
  return name;
}

Result<Name> Name::FromLabels(std::vector<std::string> labels) {
  for (const auto& label : labels) {
    if (label.empty()) {
      return Error(ErrorCode::kInvalidArgument, "empty label");
    }
    if (label.size() > kMaxLabelLength) {
      return Error(ErrorCode::kInvalidArgument, "label longer than 63 octets");
    }
  }
  Name name;
  name.labels_ = std::move(labels);
  if (name.WireLength() > kMaxNameWireLength) {
    return Error(ErrorCode::kInvalidArgument, "name exceeds 255 octets");
  }
  return name;
}

size_t Name::WireLength() const {
  size_t len = 1;  // terminal zero octet
  for (const auto& label : labels_) len += 1 + label.size();
  return len;
}

std::string Name::ToString() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
    for (char c : label) {
      if (NeedsEscape(c)) {
        if (!NeedsDddEscape(c)) {
          out.push_back('\\');
          out.push_back(c);
        } else {
          unsigned value = static_cast<unsigned char>(c);
          out.push_back('\\');
          out.push_back(static_cast<char>('0' + value / 100));
          out.push_back(static_cast<char>('0' + (value / 10) % 10));
          out.push_back(static_cast<char>('0' + value % 10));
        }
      } else {
        out.push_back(c);
      }
    }
    out.push_back('.');
  }
  return out;
}

Result<Name> Name::Parent() const {
  if (IsRoot()) {
    return Error(ErrorCode::kInvalidArgument, "root has no parent");
  }
  Name parent;
  parent.labels_.assign(labels_.begin() + 1, labels_.end());
  return parent;
}

Result<Name> Name::Child(std::string_view label) const {
  std::vector<std::string> labels;
  labels.reserve(labels_.size() + 1);
  labels.emplace_back(label);
  labels.insert(labels.end(), labels_.begin(), labels_.end());
  return FromLabels(std::move(labels));
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) return false;
  size_t offset = labels_.size() - ancestor.labels_.size();
  for (size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (!LabelEquals(labels_[offset + i], ancestor.labels_[i])) return false;
  }
  return true;
}

bool Name::IsWildcard() const {
  return !labels_.empty() && labels_.front() == "*";
}

Result<Name> Name::AsWildcardSibling() const {
  if (IsRoot()) {
    return Error(ErrorCode::kInvalidArgument, "root has no wildcard sibling");
  }
  Name out;
  out.labels_.reserve(labels_.size());
  out.labels_.emplace_back("*");
  out.labels_.insert(out.labels_.end(), labels_.begin() + 1, labels_.end());
  return out;
}

bool Name::operator==(const Name& other) const {
  if (labels_.size() != other.labels_.size()) return false;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (!LabelEquals(labels_[i], other.labels_[i])) return false;
  }
  return true;
}

bool Name::operator<(const Name& other) const {
  // Canonical order: compare from the rightmost label.
  size_t n = std::min(labels_.size(), other.labels_.size());
  for (size_t i = 1; i <= n; ++i) {
    int cmp = LabelCompare(labels_[labels_.size() - i],
                           other.labels_[other.labels_.size() - i]);
    if (cmp != 0) return cmp < 0;
  }
  return labels_.size() < other.labels_.size();
}

std::string Name::CanonicalKey() const {
  std::string out = ToString();
  for (char& c : out) c = FoldCase(c);
  return out;
}

size_t Name::Hash() const {
  // FNV-1a over case-folded labels with separators.
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& label : labels_) {
    for (char c : label) mix(static_cast<unsigned char>(FoldCase(c)));
    mix(0);
  }
  return h;
}

namespace {

constexpr uint32_t kFnvBasis = 2166136261u;
constexpr uint32_t kFnvPrime = 16777619u;

// Extends a suffix hash by one label to its left: the length octet, then
// the case-folded label octets.
uint32_t HashLabel(uint32_t h, const std::string& label) {
  h = (h ^ static_cast<uint8_t>(label.size())) * kFnvPrime;
  for (char c : label) h = (h ^ kFold[static_cast<uint8_t>(c)]) * kFnvPrime;
  return h;
}

// True if the name written at `offset` (following our own compression
// pointers) equals labels[first..], case-insensitively.
bool WrittenSuffixEquals(const Bytes& written, size_t offset,
                         const std::vector<std::string>& labels,
                         size_t first) {
  size_t pos = offset;
  int hops = 0;
  for (size_t i = first;;) {
    if (pos >= written.size()) return false;
    uint8_t len = written[pos];
    if ((len & 0xc0) == 0xc0) {
      if (pos + 1 >= written.size() || ++hops > 64) return false;
      pos = (static_cast<size_t>(len & 0x3f) << 8) | written[pos + 1];
      continue;
    }
    if (i == labels.size()) return len == 0;
    const std::string& label = labels[i];
    if (len != label.size() || pos + 1 + len > written.size()) return false;
    for (size_t k = 0; k < len; ++k) {
      if (kFold[written[pos + 1 + k]] != kFold[static_cast<uint8_t>(label[k])]) {
        return false;
      }
    }
    pos += 1 + len;
    ++i;
  }
}

}  // namespace

uint16_t NameCompressor::Find(uint32_t hash, const Bytes& written,
                              const std::vector<std::string>& labels,
                              size_t first) {
  Slot* table = slots();
  for (size_t i = hash & mask_; table[i].offset != kEmpty;
       i = (i + 1) & mask_) {
    if (table[i].hash == hash &&
        WrittenSuffixEquals(written, table[i].offset, labels, first)) {
      return table[i].offset;
    }
  }
  return kEmpty;
}

void NameCompressor::Insert(uint32_t hash, uint16_t offset) {
  if ((used_ + 1) * 4 > (mask_ + 1) * 3) {
    // Past 3/4 full: rehash into a table twice the size.
    std::vector<Slot> grown((mask_ + 1) * 2);
    size_t grown_mask = grown.size() - 1;
    Slot* old = slots();
    for (size_t i = 0; i <= mask_; ++i) {
      if (old[i].offset == kEmpty) continue;
      size_t j = old[i].hash & grown_mask;
      while (grown[j].offset != kEmpty) j = (j + 1) & grown_mask;
      grown[j] = old[i];
    }
    spill_ = std::move(grown);
    mask_ = grown_mask;
  }
  Slot* table = slots();
  size_t i = hash & mask_;
  while (table[i].offset != kEmpty) i = (i + 1) & mask_;
  table[i] = Slot{hash, offset};
  ++used_;
}

void NameCompressor::Encode(const Name& name, ByteWriter& writer) {
  const auto& labels = name.labels();
  // Suffix hashes, built from the rightmost label so each extends the
  // hash of the suffix to its right.
  std::array<uint32_t, kMaxNameWireLength / 2> hashes;
  uint32_t h = kFnvBasis;
  for (size_t i = labels.size(); i-- > 0;) {
    h = HashLabel(h, labels[i]);
    hashes[i] = h;
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    uint16_t offset = Find(hashes[i], writer.data(), labels, i);
    if (offset != kEmpty) {
      writer.WriteU16(static_cast<uint16_t>(0xc000 | offset));
      return;
    }
    if (writer.size() <= 0x3fff) {
      Insert(hashes[i], static_cast<uint16_t>(writer.size()));
    }
    writer.WriteU8(static_cast<uint8_t>(labels[i].size()));
    writer.WriteString(labels[i]);
  }
  writer.WriteU8(0);
}

void NameKey::Assign(const Name& name) {
  labels_ = 0;
  const auto& labels = name.labels();
  for (size_t i = labels.size(); i-- > 0;) PushLabel(labels[i]);
}

void NameKey::PushLabel(std::string_view label) {
  size_t pos = ends_[labels_];
  for (char c : label) {
    uint8_t folded = kFold[static_cast<uint8_t>(c)];
    bytes_[pos++] = static_cast<char>(folded);
    if (folded == 0) bytes_[pos++] = static_cast<char>(0xff);
  }
  bytes_[pos++] = 0;
  bytes_[pos++] = 0;
  ends_[++labels_] = static_cast<uint16_t>(pos);
}

void EncodeNameUncompressed(const Name& name, ByteWriter& writer) {
  for (const auto& label : name.labels()) {
    writer.WriteU8(static_cast<uint8_t>(label.size()));
    writer.WriteString(label);
  }
  writer.WriteU8(0);
}

Result<Name> DecodeName(ByteReader& reader) {
  std::vector<std::string> labels;
  size_t wire_len = 1;
  // After the first pointer we stop advancing the caller's cursor; we walk
  // the rest of the name at `jump` offsets via a secondary reader.
  bool jumped = false;
  ByteReader follower(reader.buffer());
  LDP_RETURN_IF_ERROR(follower.Seek(reader.offset()));
  int pointer_hops = 0;

  while (true) {
    LDP_ASSIGN_OR_RETURN(uint8_t len, follower.ReadU8());
    if ((len & 0xc0) == 0xc0) {
      LDP_ASSIGN_OR_RETURN(uint8_t low, follower.ReadU8());
      size_t target = (static_cast<size_t>(len & 0x3f) << 8) | low;
      if (!jumped) {
        LDP_RETURN_IF_ERROR(reader.Seek(follower.offset()));
        jumped = true;
      }
      if (++pointer_hops > 64) {
        return Error(ErrorCode::kParseError, "compression pointer loop");
      }
      // Pointers must point strictly backwards from their own position
      // (the two pointer octets just consumed); this rules out loops.
      if (target + 2 > follower.offset()) {
        return Error(ErrorCode::kParseError, "forward compression pointer");
      }
      LDP_RETURN_IF_ERROR(follower.Seek(target));
      continue;
    }
    if ((len & 0xc0) != 0) {
      return Error(ErrorCode::kParseError, "reserved label type");
    }
    if (len == 0) break;
    LDP_ASSIGN_OR_RETURN(auto span, follower.ReadSpan(len));
    labels.emplace_back(span.begin(), span.end());
    wire_len += 1 + len;
    if (wire_len > kMaxNameWireLength) {
      return Error(ErrorCode::kParseError, "decoded name exceeds 255 octets");
    }
  }
  if (!jumped) {
    LDP_RETURN_IF_ERROR(reader.Seek(follower.offset()));
  }
  return Name::FromLabels(std::move(labels));
}

}  // namespace ldp::dns
