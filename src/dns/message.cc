#include "dns/message.h"

#include <algorithm>

namespace ldp::dns {
namespace {

constexpr uint16_t kFlagQr = 0x8000;
constexpr uint16_t kFlagAa = 0x0400;
constexpr uint16_t kFlagTc = 0x0200;
constexpr uint16_t kFlagRd = 0x0100;
constexpr uint16_t kFlagRa = 0x0080;
constexpr uint16_t kFlagAd = 0x0020;
constexpr uint16_t kFlagCd = 0x0010;

}  // namespace

std::string Question::ToText() const {
  return name.ToString() + " " + RRClassToString(klass) + " " +
         RRTypeToString(type);
}

Message Message::MakeQuery(Name name, RRType type, bool recursion_desired) {
  Message msg;
  msg.rd = recursion_desired;
  msg.questions.push_back(Question{std::move(name), type, RRClass::kIN});
  return msg;
}

MessageWriter::MessageWriter(const Header& header, size_t max_size,
                             const Edns* edns)
    : writer_(512), edns_(edns) {
  flags_ = static_cast<uint16_t>(
      (header.qr ? kFlagQr : 0) |
      ((static_cast<uint16_t>(header.opcode) & 0xf) << 11) |
      (header.aa ? kFlagAa : 0) | (header.tc ? kFlagTc : 0) |
      (header.rd ? kFlagRd : 0) | (header.ra ? kFlagRa : 0) |
      (header.ad ? kFlagAd : 0) | (header.cd ? kFlagCd : 0) |
      (static_cast<uint16_t>(header.rcode) & 0xf));
  // Room for the OPT RR (root owner + fixed fields + options), so
  // truncation never drops EDNS itself.
  size_t opt_reserve = edns != nullptr ? 11 + edns->options.size() : 0;
  body_limit_ = max_size > opt_reserve ? max_size - opt_reserve : 0;
  writer_.WriteU16(header.id);
  for (int i = 0; i < 5; ++i) writer_.WriteU16(0);  // flags, 4 counts
}

void MessageWriter::AddQuestion(const Question& question) {
  compressor_.Encode(question.name, writer_);
  writer_.WriteU16(static_cast<uint16_t>(question.type));
  writer_.WriteU16(static_cast<uint16_t>(question.klass));
  ++counts_[0];
}

bool MessageWriter::AddRecord(Section section, const Name& owner, RRType type,
                              RRClass klass, uint32_t ttl,
                              const Rdata& rdata) {
  if (truncated_) return false;
  size_t before = writer_.size();
  compressor_.Encode(owner, writer_);
  writer_.WriteU16(static_cast<uint16_t>(type));
  writer_.WriteU16(static_cast<uint16_t>(klass));
  writer_.WriteU32(ttl);
  size_t rdlength_offset = writer_.size();
  writer_.WriteU16(0);
  EncodeRdata(rdata, compressor_, writer_);
  writer_.PatchU16(rdlength_offset, static_cast<uint16_t>(
                                        writer_.size() - rdlength_offset - 2));
  if (writer_.size() > body_limit_) {
    // The compressor may keep offsets into the dropped bytes; they can no
    // longer match, because a hit is checked against the written bytes.
    writer_.Truncate(before);
    truncated_ = true;
    return false;
  }
  ++counts_[static_cast<int>(section)];
  return true;
}

Bytes MessageWriter::Finish() && {
  if (edns_ != nullptr) {
    writer_.WriteU8(0);  // root owner
    writer_.WriteU16(static_cast<uint16_t>(RRType::kOPT));
    writer_.WriteU16(edns_->udp_payload_size);
    writer_.WriteU32((static_cast<uint32_t>(edns_->extended_rcode_high) << 24) |
                     (static_cast<uint32_t>(edns_->version) << 16) |
                     (edns_->do_bit ? 0x8000u : 0u));
    writer_.WriteU16(static_cast<uint16_t>(edns_->options.size()));
    writer_.WriteBytes(edns_->options);
    ++counts_[3];
  }
  writer_.PatchU16(2, truncated_ ? flags_ | kFlagTc : flags_);
  for (int i = 0; i < 4; ++i) writer_.PatchU16(4 + 2 * i, counts_[i]);
  return std::move(writer_).Take();
}

Bytes Message::Encode(size_t max_size) const {
  MessageWriter writer(Header{.id = id, .qr = qr, .opcode = opcode, .aa = aa,
                              .tc = tc, .rd = rd, .ra = ra, .ad = ad,
                              .cd = cd, .rcode = rcode},
                       max_size, edns.has_value() ? &*edns : nullptr);
  for (const auto& q : questions) writer.AddQuestion(q);
  auto add = [&](MessageWriter::Section section,
                 const std::vector<ResourceRecord>& records) {
    for (const auto& rr : records) {
      if (!writer.AddRecord(section, rr.name, rr.type, rr.klass, rr.ttl,
                            rr.rdata)) {
        return;
      }
    }
  };
  add(MessageWriter::Section::kAnswer, answers);
  add(MessageWriter::Section::kAuthority, authorities);
  add(MessageWriter::Section::kAdditional, additionals);
  return std::move(writer).Finish();
}

Result<Message> Message::Decode(std::span<const uint8_t> wire) {
  ByteReader reader(wire);
  Message msg;

  LDP_ASSIGN_OR_RETURN(msg.id, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(uint16_t flags, reader.ReadU16());
  msg.qr = flags & kFlagQr;
  msg.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  msg.aa = flags & kFlagAa;
  msg.tc = flags & kFlagTc;
  msg.rd = flags & kFlagRd;
  msg.ra = flags & kFlagRa;
  msg.ad = flags & kFlagAd;
  msg.cd = flags & kFlagCd;
  uint8_t rcode_low = flags & 0xf;
  msg.rcode = static_cast<Rcode>(rcode_low);

  LDP_ASSIGN_OR_RETURN(uint16_t qdcount, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(uint16_t ancount, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(uint16_t nscount, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(uint16_t arcount, reader.ReadU16());

  // Header counts are attacker-controlled: reject up front any message whose
  // counts could not possibly fit in the remaining bytes (a question needs at
  // least 5 bytes, a record at least 11), instead of looping up to 4×65535
  // times over decoders that will fail anyway.
  size_t min_needed = static_cast<size_t>(qdcount) * 5 +
                      (static_cast<size_t>(ancount) +
                       static_cast<size_t>(nscount) +
                       static_cast<size_t>(arcount)) *
                          11;
  if (min_needed > reader.remaining()) {
    return Error(ErrorCode::kTruncated,
                 "header counts exceed message size");
  }

  for (uint16_t i = 0; i < qdcount; ++i) {
    Question q;
    LDP_ASSIGN_OR_RETURN(q.name, DecodeName(reader));
    LDP_ASSIGN_OR_RETURN(uint16_t type, reader.ReadU16());
    LDP_ASSIGN_OR_RETURN(uint16_t klass, reader.ReadU16());
    q.type = static_cast<RRType>(type);
    q.klass = static_cast<RRClass>(klass);
    msg.questions.push_back(std::move(q));
  }

  auto decode_records = [&](uint16_t count, std::vector<ResourceRecord>& out,
                            bool allow_opt) -> Status {
    for (uint16_t i = 0; i < count; ++i) {
      ResourceRecord rr;
      LDP_ASSIGN_OR_RETURN(rr.name, DecodeName(reader));
      LDP_ASSIGN_OR_RETURN(uint16_t type, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(uint16_t klass, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(rr.ttl, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(uint16_t rdlength, reader.ReadU16());
      rr.type = static_cast<RRType>(type);
      rr.klass = static_cast<RRClass>(klass);

      if (rr.type == RRType::kOPT) {
        if (!allow_opt) {
          return Error(ErrorCode::kParseError, "OPT outside additional section");
        }
        Edns edns;
        edns.udp_payload_size = klass;
        edns.extended_rcode_high = static_cast<uint8_t>(rr.ttl >> 24);
        edns.version = static_cast<uint8_t>(rr.ttl >> 16);
        edns.do_bit = (rr.ttl & 0x8000) != 0;
        LDP_ASSIGN_OR_RETURN(edns.options, reader.ReadBytes(rdlength));
        msg.edns = std::move(edns);
        continue;
      }
      LDP_ASSIGN_OR_RETURN(rr.rdata, DecodeRdata(rr.type, rdlength, reader));
      out.push_back(std::move(rr));
    }
    return Status::Ok();
  };

  LDP_RETURN_IF_ERROR(decode_records(ancount, msg.answers, false));
  LDP_RETURN_IF_ERROR(decode_records(nscount, msg.authorities, false));
  LDP_RETURN_IF_ERROR(decode_records(arcount, msg.additionals, true));

  if (msg.edns.has_value()) {
    msg.rcode = static_cast<Rcode>(
        (static_cast<uint16_t>(msg.edns->extended_rcode_high) << 4) |
        rcode_low);
  }
  return msg;
}

bool Message::Matches(const Message& query) const {
  if (!qr || id != query.id) return false;
  if (questions.empty() || query.questions.empty()) {
    // Responses may omit the question only in rare cases; accept on id.
    return true;
  }
  return questions[0] == query.questions[0];
}

std::string Message::ToText() const {
  std::string out;
  out += ";; " + std::string(qr ? "response" : "query") + " id=" +
         std::to_string(id) + " " + std::string(OpcodeToString(opcode)) + " " +
         std::string(RcodeToString(rcode));
  out += " flags=";
  if (aa) out += " aa";
  if (tc) out += " tc";
  if (rd) out += " rd";
  if (ra) out += " ra";
  if (ad) out += " ad";
  if (cd) out += " cd";
  out += "\n";
  if (edns.has_value()) {
    out += ";; EDNS v" + std::to_string(edns->version) + " udp=" +
           std::to_string(edns->udp_payload_size) +
           (edns->do_bit ? " do" : "") + "\n";
  }
  out += ";; QUESTION (" + std::to_string(questions.size()) + ")\n";
  for (const auto& q : questions) out += ";  " + q.ToText() + "\n";
  auto section = [&](const char* label,
                     const std::vector<ResourceRecord>& records) {
    out += ";; " + std::string(label) + " (" +
           std::to_string(records.size()) + ")\n";
    for (const auto& rr : records) out += rr.ToText() + "\n";
  };
  section("ANSWER", answers);
  section("AUTHORITY", authorities);
  section("ADDITIONAL", additionals);
  return out;
}

}  // namespace ldp::dns
