#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.h"
#include "common/strings.h"
#include "dns/framing.h"
#include "dns/message.h"
#include "dns/rdata.h"

namespace ldp::dns {
namespace {

Message SampleResponse() {
  Message msg;
  msg.id = 0x1234;
  msg.qr = true;
  msg.aa = true;
  msg.rd = true;
  msg.ra = true;
  msg.rcode = Rcode::kNoError;
  msg.questions.push_back(
      Question{*Name::Parse("www.example.com"), RRType::kA, RRClass::kIN});
  msg.answers.push_back(ResourceRecord{*Name::Parse("www.example.com"),
                                       RRType::kA, RRClass::kIN, 300,
                                       ARdata{IpAddress(192, 0, 2, 1)}});
  msg.authorities.push_back(ResourceRecord{
      *Name::Parse("example.com"), RRType::kNS, RRClass::kIN, 86400,
      NsRdata{*Name::Parse("ns1.example.com")}});
  msg.additionals.push_back(ResourceRecord{*Name::Parse("ns1.example.com"),
                                           RRType::kA, RRClass::kIN, 86400,
                                           ARdata{IpAddress(192, 0, 2, 53)}});
  return msg;
}

TEST(Message, EncodeDecodeRoundTrip) {
  Message msg = SampleResponse();
  Bytes wire = msg.Encode();
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, msg.id);
  EXPECT_TRUE(decoded->qr);
  EXPECT_TRUE(decoded->aa);
  EXPECT_EQ(decoded->questions, msg.questions);
  EXPECT_EQ(decoded->answers, msg.answers);
  EXPECT_EQ(decoded->authorities, msg.authorities);
  EXPECT_EQ(decoded->additionals, msg.additionals);
  EXPECT_FALSE(decoded->edns.has_value());
}

TEST(Message, QueryHelper) {
  Message q = Message::MakeQuery(*Name::Parse("example.com"), RRType::kMX,
                                 /*recursion_desired=*/true);
  EXPECT_FALSE(q.qr);
  EXPECT_TRUE(q.rd);
  ASSERT_EQ(q.questions.size(), 1u);
  EXPECT_EQ(q.questions[0].type, RRType::kMX);
}

TEST(Message, EdnsRoundTrip) {
  Message msg = SampleResponse();
  msg.edns = Edns{.udp_payload_size = 4096, .do_bit = true};
  Bytes wire = msg.Encode();
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->edns.has_value());
  EXPECT_EQ(decoded->edns->udp_payload_size, 4096);
  EXPECT_TRUE(decoded->edns->do_bit);
  EXPECT_EQ(decoded->edns->version, 0);
}

TEST(Message, ExtendedRcode) {
  Message msg;
  msg.qr = true;
  msg.rcode = static_cast<Rcode>(16);  // BADVERS needs the extended bits
  msg.edns = Edns{};
  msg.edns->extended_rcode_high = 1;
  Bytes wire = msg.Encode();
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(static_cast<uint16_t>(decoded->rcode), 16);
}

TEST(Message, CompressionReducesSize) {
  Message msg = SampleResponse();
  Bytes wire = msg.Encode();
  // Uncompressed lower bound: each of the 4 names spelled out in full.
  size_t uncompressed = 12;
  uncompressed += Name::Parse("www.example.com")->WireLength() + 4;
  uncompressed += Name::Parse("www.example.com")->WireLength() + 10 + 4;
  uncompressed += Name::Parse("example.com")->WireLength() + 10 +
                  Name::Parse("ns1.example.com")->WireLength();
  uncompressed += Name::Parse("ns1.example.com")->WireLength() + 10 + 4;
  EXPECT_LT(wire.size(), uncompressed);
}

TEST(Message, CompressionKeepsDottedLabelsApart) {
  // "a\.b.c." has labels {"a.b", "c"}; "a.b\.c." has {"a", "b.c"}. Joined
  // with dots both read "a.b.c.", but they are different names, so the
  // answer owner must not be written as a pointer to the question.
  Message msg;
  msg.qr = true;
  msg.questions.push_back(
      Question{*Name::Parse("a\\.b.c."), RRType::kA, RRClass::kIN});
  msg.answers.push_back(ResourceRecord{*Name::Parse("a.b\\.c."), RRType::kA,
                                       RRClass::kIN, 60,
                                       ARdata{IpAddress(192, 0, 2, 7)}});
  auto decoded = Message::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name.labels(),
            (std::vector<std::string>{"a.b", "c"}));
  EXPECT_EQ(decoded->answers[0].name.labels(),
            (std::vector<std::string>{"a", "b.c"}));
  EXPECT_EQ(decoded->Encode(), msg.Encode());
}

TEST(Message, CompressionPointsOnlyAtEqualSuffixes) {
  // Labels holding '.' and 0x00 next to look-alike plain labels: every
  // name must decode as written (up to case, which compression folds), and
  // equal suffixes must still compress.
  std::vector<Name> names = {
      *Name::FromLabels({"x", "a.b", "c"}),
      *Name::FromLabels({"y", "a", "b.c"}),
      *Name::FromLabels({"z", "a", "b", "c"}),
      *Name::FromLabels({"w", std::string("a\0b", 3), "c"}),
      *Name::FromLabels({"v", "A", "B", "C"}),
  };
  Message msg;
  msg.qr = true;
  for (const Name& name : names) {
    msg.answers.push_back(ResourceRecord{name, RRType::kA, RRClass::kIN, 60,
                                         ARdata{IpAddress(192, 0, 2, 8)}});
  }
  Bytes wire = msg.Encode();
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->answers.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(decoded->answers[i].name, names[i]) << i;
  }
  // "v.A.B.C." shares all of "a.b.c." with "z.a.b.c.": 2 bytes for "v",
  // then a pointer.
  size_t last_record = 10 + 4;  // fixed fields + A rdata
  EXPECT_EQ(wire[wire.size() - last_record - 2] & 0xc0, 0xc0);
}

TEST(Message, TruncationSetsTcAndKeepsQuestion) {
  Message msg = SampleResponse();
  // Many answers so that a 512-byte limit overflows.
  for (int i = 0; i < 60; ++i) {
    msg.answers.push_back(
        ResourceRecord{*Name::Parse("www.example.com"), RRType::kTXT,
                       RRClass::kIN, 60,
                       TxtRdata{{std::string(40, 'x') + std::to_string(i)}}});
  }
  Bytes wire = msg.Encode(512);
  ASSERT_LE(wire.size(), 512u);
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->tc);
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_LT(decoded->answers.size(), msg.answers.size());
}

TEST(Message, TruncationKeepsEdns) {
  Message msg = SampleResponse();
  msg.edns = Edns{.udp_payload_size = 512, .do_bit = true};
  for (int i = 0; i < 60; ++i) {
    msg.answers.push_back(
        ResourceRecord{*Name::Parse("www.example.com"), RRType::kTXT,
                       RRClass::kIN, 60, TxtRdata{{std::string(40, 'y')}}});
  }
  Bytes wire = msg.Encode(512);
  ASSERT_LE(wire.size(), 512u);
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->tc);
  EXPECT_TRUE(decoded->edns.has_value());
}

TEST(Message, Matches) {
  Message q = Message::MakeQuery(*Name::Parse("a.example"), RRType::kA, true);
  q.id = 77;
  Message r = SampleResponse();
  r.id = 77;
  r.questions = q.questions;
  EXPECT_TRUE(r.Matches(q));
  r.id = 78;
  EXPECT_FALSE(r.Matches(q));
  r.id = 77;
  r.questions[0].type = RRType::kAAAA;
  EXPECT_FALSE(r.Matches(q));
  EXPECT_FALSE(q.Matches(q));  // a query does not match itself (qr unset)
}

TEST(Message, DecodeRejectsGarbage) {
  Bytes garbage{0x01, 0x02, 0x03};
  EXPECT_FALSE(Message::Decode(garbage).ok());
}

TEST(Message, DecodeEmptyQuery) {
  Message q = Message::MakeQuery(*Name::Parse("example.com"), RRType::kSOA,
                                 false);
  q.id = 9;
  auto decoded = Message::Decode(q.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 9);
  EXPECT_FALSE(decoded->rd);
  EXPECT_TRUE(decoded->answers.empty());
}

TEST(Rdata, SoaRoundTripText) {
  SoaRdata soa{*Name::Parse("ns1.example.com"),
               *Name::Parse("admin.example.com"),
               2024010101, 7200, 3600, 1209600, 3600};
  std::string text = RdataToText(soa);
  std::vector<std::string_view> tokens;
  auto parts = ldp::SplitWhitespace(text);
  tokens.assign(parts.begin(), parts.end());
  auto parsed = RdataFromText(RRType::kSOA, tokens);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(std::get<SoaRdata>(*parsed), soa);
}

TEST(Rdata, NsecBitmapRoundTrip) {
  NsecRdata nsec{*Name::Parse("b.example.com"),
                 {RRType::kA, RRType::kNS, RRType::kRRSIG, RRType::kCAA}};
  NameCompressor compressor;
  ByteWriter w;
  EncodeRdata(nsec, compressor, w);
  ByteReader r(w.data());
  auto decoded = DecodeRdata(RRType::kNSEC, static_cast<uint16_t>(w.size()), r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<NsecRdata>(*decoded), nsec);
}

TEST(Rdata, GenericRfc3597) {
  GenericRdata generic{{0xde, 0xad, 0xbe, 0xef}};
  EXPECT_EQ(RdataToText(generic), "\\# 4 deadbeef");
  std::vector<std::string_view> tokens{"\\#", "4", "deadbeef"};
  auto parsed = RdataFromText(static_cast<RRType>(999), tokens);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(std::get<GenericRdata>(*parsed), generic);
  // Length mismatch rejected.
  std::vector<std::string_view> bad{"\\#", "3", "deadbeef"};
  EXPECT_FALSE(RdataFromText(static_cast<RRType>(999), bad).ok());
}

TEST(Rdata, WireLengths) {
  EXPECT_EQ(RdataWireLength(ARdata{IpAddress(1, 2, 3, 4)}), 4u);
  EXPECT_EQ(RdataWireLength(AaaaRdata{}), 16u);
  EXPECT_EQ(RdataWireLength(MxRdata{10, *Name::Parse("a.b")}),
            2u + Name::Parse("a.b")->WireLength());
}

TEST(Framing, FrameAndReassemble) {
  Message msg = SampleResponse();
  Bytes wire = msg.Encode();
  Bytes framed = std::move(FrameMessage(wire)).value();
  EXPECT_EQ(framed.size(), wire.size() + 2);

  StreamAssembler assembler;
  // Feed byte-by-byte to exercise partial reads.
  for (uint8_t b : framed) {
    ASSERT_TRUE(assembler.Feed(std::span<const uint8_t>(&b, 1)).ok());
  }
  auto out = assembler.NextMessage();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, wire);
  EXPECT_FALSE(assembler.NextMessage().has_value());
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(Framing, MultipleMessagesOneChunk) {
  Bytes a = SampleResponse().Encode();
  Message q = Message::MakeQuery(*Name::Parse("x.example"), RRType::kA, true);
  Bytes b = q.Encode();
  Bytes stream = std::move(FrameMessage(a)).value();
  Bytes framed_b = std::move(FrameMessage(b)).value();
  stream.insert(stream.end(), framed_b.begin(), framed_b.end());

  StreamAssembler assembler;
  ASSERT_TRUE(assembler.Feed(stream).ok());
  EXPECT_EQ(assembler.ready_messages(), 2u);
  EXPECT_EQ(*assembler.NextMessage(), a);
  EXPECT_EQ(*assembler.NextMessage(), b);
}

TEST(Framing, RejectsZeroLengthFrame) {
  Bytes zero{0x00, 0x00};
  StreamAssembler assembler;
  EXPECT_FALSE(assembler.Feed(zero).ok());
}

// Property test: random messages round-trip through encode/decode.
class MessageRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageRoundTrip, RandomMessages) {
  ldp::Rng rng(GetParam());
  auto random_name = [&]() {
    int labels = 1 + static_cast<int>(rng.NextBelow(4));
    std::string text;
    for (int i = 0; i < labels; ++i) {
      int len = 1 + static_cast<int>(rng.NextBelow(10));
      for (int j = 0; j < len; ++j) {
        text += static_cast<char>('a' + rng.NextBelow(26));
      }
      text += '.';
    }
    return *Name::Parse(text);
  };

  for (int trial = 0; trial < 20; ++trial) {
    Message msg;
    msg.id = static_cast<uint16_t>(rng.NextU64());
    msg.qr = rng.NextBool(0.5);
    msg.aa = rng.NextBool(0.5);
    msg.rd = rng.NextBool(0.5);
    msg.rcode = rng.NextBool(0.8) ? Rcode::kNoError : Rcode::kNxDomain;
    msg.questions.push_back(Question{random_name(), RRType::kA, RRClass::kIN});
    int n_answers = static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < n_answers; ++i) {
      Rdata rdata;
      switch (rng.NextBelow(5)) {
        case 0: rdata = ARdata{IpAddress(static_cast<uint32_t>(rng.NextU64()))}; break;
        case 1: rdata = NsRdata{random_name()}; break;
        case 2: rdata = CnameRdata{random_name()}; break;
        case 3: rdata = MxRdata{static_cast<uint16_t>(rng.NextU64()), random_name()}; break;
        default: rdata = TxtRdata{{"hello world"}}; break;
      }
      msg.answers.push_back(ResourceRecord{
          random_name(), RdataType(rdata), RRClass::kIN,
          static_cast<uint32_t>(rng.NextBelow(86400)), std::move(rdata)});
    }
    if (rng.NextBool(0.5)) {
      msg.edns = Edns{.udp_payload_size =
                          static_cast<uint16_t>(512 + rng.NextBelow(4096)),
                      .do_bit = rng.NextBool(0.5)};
    }

    Bytes wire = msg.Encode();
    auto decoded = Message::Decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    EXPECT_EQ(decoded->questions, msg.questions);
    EXPECT_EQ(decoded->answers, msg.answers);
    EXPECT_EQ(decoded->edns.has_value(), msg.edns.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99));

// Regression: FrameMessage used to write wire.size() into the 2-byte
// length prefix unchecked, silently truncating payloads over 65535 bytes
// into a corrupt frame that desynced the peer's stream.
TEST(Framing, FrameMessageRejectsOversizedPayload) {
  Bytes big(65536, 0xaa);
  auto framed = FrameMessage(big);
  ASSERT_FALSE(framed.ok());
  EXPECT_EQ(framed.error().code(), ErrorCode::kOutOfRange);

  Bytes max(65535, 0xaa);
  auto ok = FrameMessage(max);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0], 0xff);
  EXPECT_EQ((*ok)[1], 0xff);
  EXPECT_EQ(ok->size(), 65537u);
}

TEST(Framing, FrameMessageRejectsEmptyPayload) {
  EXPECT_FALSE(FrameMessage({}).ok());
}

TEST(Framing, AssemblerDropsWhenBacklogFull) {
  Bytes one = std::move(FrameMessage(SampleResponse().Encode())).value();
  Bytes flood;
  for (int i = 0; i < 10; ++i) {
    flood.insert(flood.end(), one.begin(), one.end());
  }

  StreamAssembler assembler;
  std::atomic<uint64_t> metric{0};
  assembler.set_limits({.max_ready_messages = 3, .max_ready_bytes = 1 << 20});
  assembler.set_drop_counter(&metric);
  ASSERT_TRUE(assembler.Feed(flood).ok());  // flooding is not a frame error

  size_t delivered = 0;
  while (assembler.NextMessage()) ++delivered;
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(assembler.dropped_messages(), 7u);
  EXPECT_EQ(metric.load(), 7u);

  // Draining freed the backlog: new frames flow again.
  ASSERT_TRUE(assembler.Feed(one).ok());
  EXPECT_TRUE(assembler.NextMessage().has_value());
}

TEST(Framing, AssemblerByteLimitCountsDrops) {
  Bytes one = std::move(FrameMessage(SampleResponse().Encode())).value();
  StreamAssembler assembler;
  assembler.set_limits(
      {.max_ready_messages = 100, .max_ready_bytes = one.size()});
  Bytes flood;
  for (int i = 0; i < 3; ++i) flood.insert(flood.end(), one.begin(), one.end());
  ASSERT_TRUE(assembler.Feed(flood).ok());
  EXPECT_EQ(assembler.ready_messages(), 1u);
  EXPECT_EQ(assembler.dropped_messages(), 2u);
}

// Regression (found by fuzz_framing): an error mid-buffer left consumed
// frames in place, so a caller that kept feeding saw every already
// delivered message again.
TEST(Framing, AssemblerPoisonedAfterError) {
  Bytes msg = std::move(FrameMessage(SampleResponse().Encode())).value();
  Bytes stream = msg;
  stream.push_back(0);  // zero-length frame
  stream.push_back(0);

  StreamAssembler assembler;
  EXPECT_FALSE(assembler.Feed(stream).ok());
  // The message completed before the error is delivered exactly once.
  EXPECT_TRUE(assembler.NextMessage().has_value());
  EXPECT_FALSE(assembler.NextMessage().has_value());
  // Poisoned: further input keeps failing and never re-delivers.
  EXPECT_FALSE(assembler.Feed(msg).ok());
  EXPECT_FALSE(assembler.NextMessage().has_value());
}

// Regression: header counts promising more records than the message has
// bytes must be rejected up front, not ground through 4x65535 decode
// attempts.
TEST(MessageDecode, RejectsCountsLargerThanMessage) {
  Bytes wire = {0x00, 0x01, 0x00, 0x00, 0xff, 0xff,
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  auto msg = Message::Decode(wire);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.error().code(), ErrorCode::kTruncated);
}

TEST(MessageDecode, AcceptsCountsThatBarelyFit) {
  // A real message close to the minimum per-record size still decodes.
  Message msg = Message::MakeQuery(*Name::Parse("a.b"), RRType::kA, true);
  EXPECT_TRUE(Message::Decode(msg.Encode()).ok());
}

}  // namespace
}  // namespace ldp::dns
