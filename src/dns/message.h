// DNS message (RFC 1035 §4) with EDNS0 (RFC 6891) support: full encode with
// name compression and size-limited truncation, and full decode.
#ifndef LDPLAYER_DNS_MESSAGE_H
#define LDPLAYER_DNS_MESSAGE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "dns/types.h"

namespace ldp::dns {

constexpr size_t kMaxUdpPayloadDefault = 512;   // pre-EDNS limit
constexpr size_t kMaxMessageSize = 65535;       // TCP / length-framed limit

struct Question {
  Name name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;

  bool operator==(const Question&) const = default;
  std::string ToText() const;  // "example.com. IN A"
};

// EDNS0 pseudo-header carried by the OPT RR in the additional section.
struct Edns {
  uint16_t udp_payload_size = 4096;
  uint8_t extended_rcode_high = 0;  // upper 8 bits of the 12-bit rcode
  uint8_t version = 0;
  bool do_bit = false;  // DNSSEC OK (RFC 3225)
  Bytes options;        // raw option TLVs, opaque to this codec

  bool operator==(const Edns&) const = default;
};

// The header fields other than the section counts.
struct Header {
  uint16_t id = 0;
  bool qr = false;
  Opcode opcode = Opcode::kQuery;
  bool aa = false;
  bool tc = false;
  bool rd = false;
  bool ra = false;
  bool ad = false;
  bool cd = false;
  Rcode rcode = Rcode::kNoError;
};

// Writes a message front to back: header, questions, then records section
// by section, then the OPT RR. This is the one record encoder: both
// Message::Encode and the engine's reference-based responses
// (zone::EncodeResponse) go through it. Past `max_size` it applies the
// truncation rule (RFC 2181 §9): the record that does not fit is rolled
// back, TC is set and every later record is dropped. Questions and the OPT
// RR always stay; room for the OPT RR is kept from the start.
class MessageWriter {
 public:
  enum class Section { kAnswer = 1, kAuthority = 2, kAdditional = 3 };

  // `edns` (nullable) must outlive the writer.
  MessageWriter(const Header& header, size_t max_size, const Edns* edns);

  void AddQuestion(const Question& question);
  // Appends one record; sections must come in wire order. Returns false
  // (writing nothing) once the message is full.
  bool AddRecord(Section section, const Name& owner, RRType type,
                 RRClass klass, uint32_t ttl, const Rdata& rdata);

  // Appends the OPT RR, patches counts and flags, and returns the message.
  Bytes Finish() &&;

 private:
  ByteWriter writer_;
  NameCompressor compressor_;
  uint16_t flags_;
  const Edns* edns_;
  size_t body_limit_;
  uint16_t counts_[4] = {0, 0, 0, 0};  // questions, then the three sections
  bool truncated_ = false;
};

struct Message {
  // Header.
  uint16_t id = 0;
  bool qr = false;  // false=query, true=response
  Opcode opcode = Opcode::kQuery;
  bool aa = false;
  bool tc = false;
  bool rd = false;
  bool ra = false;
  bool ad = false;
  bool cd = false;
  Rcode rcode = Rcode::kNoError;

  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;  // excluding the OPT RR
  std::optional<Edns> edns;

  // Builds a query with sane defaults (RD set, random-free: caller sets id).
  static Message MakeQuery(Name name, RRType type, bool recursion_desired);

  // Encodes with name compression. If the result would exceed `max_size`,
  // records are dropped section-by-section from the back and TC is set
  // (RFC 2181 §9 truncation semantics; the question is always kept).
  Bytes Encode(size_t max_size = kMaxMessageSize) const;

  static Result<Message> Decode(std::span<const uint8_t> wire);

  // True if this message looks like a response to `query` (id and first
  // question match) — how the replay engine pairs answers with queries.
  bool Matches(const Message& query) const;

  // Multi-line dig-style rendering for debugging.
  std::string ToText() const;
};

}  // namespace ldp::dns

#endif  // LDPLAYER_DNS_MESSAGE_H
