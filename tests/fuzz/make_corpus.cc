// Regenerates the checked-in seed corpora under tests/fuzz/corpus/ from the
// real encoders, so seeds stay in sync with the wire formats:
//
//   build-fuzz/tests/fuzz/make_corpus tests/fuzz/corpus
//
// Alongside the encoder-generated seeds, each corpus carries the minimized
// reproducers for the parser bugs this subsystem caught (zero-length
// frames, oversized header counts, chunk-count DoS, masterfile tokenizer
// edge cases); replaying them is the regression gate in verify.sh.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "distrib/protocol.h"
#include "dns/framing.h"
#include "dns/message.h"
#include "zone/masterfile.h"

namespace {

using namespace ldp;

void WriteFile(const std::filesystem::path& path,
               std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    std::exit(1);
  }
}

void WriteFile(const std::filesystem::path& path, std::string_view text) {
  WriteFile(path, std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(text.data()),
                      text.size()));
}

// Framing/distrib harnesses treat byte 0 as the chunk-pattern seed.
Bytes Seeded(uint8_t seed, std::initializer_list<Bytes> parts) {
  Bytes out{seed};
  for (const Bytes& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

dns::Name MustName(std::string_view text) {
  return std::move(dns::Name::Parse(text)).value();
}

dns::Message SampleResponse() {
  dns::Message msg;
  msg.id = 0x1d0;
  msg.qr = true;
  msg.aa = true;
  msg.rd = true;
  msg.ra = true;
  msg.questions.push_back(
      {MustName("www.example.com"), dns::RRType::kA, dns::RRClass::kIN});
  msg.answers.push_back({MustName("www.example.com"), dns::RRType::kCNAME,
                         dns::RRClass::kIN, 300,
                         dns::CnameRdata{MustName("host.example.com")}});
  msg.answers.push_back(
      {MustName("host.example.com"), dns::RRType::kA, dns::RRClass::kIN, 300,
       dns::ARdata{std::move(IpAddress::Parse("192.0.2.7")).value()}});
  msg.authorities.push_back({MustName("example.com"), dns::RRType::kNS,
                             dns::RRClass::kIN, 86400,
                             dns::NsRdata{MustName("ns1.example.com")}});
  msg.additionals.push_back(
      {MustName("ns1.example.com"), dns::RRType::kA, dns::RRClass::kIN,
       86400, dns::ARdata{std::move(IpAddress::Parse("192.0.2.53")).value()}});
  msg.additionals.push_back({MustName("example.com"), dns::RRType::kTXT,
                             dns::RRClass::kIN, 60,
                             dns::TxtRdata{{"v=spf1 -all", "b\"s\\l"}}});
  msg.answers.push_back({MustName("example.com"),
                         static_cast<dns::RRType>(999), dns::RRClass::kIN,
                         30, dns::GenericRdata{{0xde, 0xad, 0xbe, 0xef}}});
  msg.edns = dns::Edns{.udp_payload_size = 4096, .do_bit = true};
  return msg;
}

void WriteWireCorpus(const std::filesystem::path& dir) {
  dns::Message query =
      dns::Message::MakeQuery(MustName("www.example.com"), dns::RRType::kA,
                              /*recursion_desired=*/true);
  query.id = 0x1234;
  query.edns = dns::Edns{.udp_payload_size = 1232};
  WriteFile(dir / "query_edns.bin", query.Encode());
  WriteFile(dir / "response_mixed.bin", SampleResponse().Encode());

  dns::Message soa;
  soa.id = 7;
  soa.qr = true;
  soa.rcode = dns::Rcode::kNxDomain;
  soa.questions.push_back(
      {MustName("nope.example.com"), dns::RRType::kAAAA, dns::RRClass::kIN});
  soa.authorities.push_back(
      {MustName("example.com"), dns::RRType::kSOA, dns::RRClass::kIN, 900,
       dns::SoaRdata{MustName("ns1.example.com"),
                     MustName("hostmaster.example.com"), 2026080901, 7200,
                     3600, 1209600, 900}});
  WriteFile(dir / "nxdomain_soa.bin", soa.Encode());

  // Minimized reproducer: header counts promising far more records than
  // the 12-byte message could hold (the pre-guard decoder looped 4x65535
  // times over an empty body).
  Bytes counts = {0x00, 0x01, 0x00, 0x00, 0xff, 0xff,
                  0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  WriteFile(dir / "repro_oversized_counts.bin", counts);
}

void WriteZoneCorpus(const std::filesystem::path& dir) {
  // Hand-written master-file seeds (text format has no binary encoder).
  WriteFile(dir / "basic.zone",
            "$ORIGIN example.com.\n"
            "$TTL 300\n"
            "@ IN SOA ns1 hostmaster ( 2026080901 7200 3600\n"
            "    1209600 900 ) ; parenthesized continuation\n"
            "@ 86400 IN NS ns1\n"
            "ns1 IN A 192.0.2.53\n"
            "www IN CNAME host\n"
            "host IN A 192.0.2.7\n"
            "host IN AAAA 2001:db8::7\n"
            "@ IN MX 10 mail\n"
            "@ IN TXT \"v=spf1 -all\" \"second \\\"string\\\"\"\n"
            "_sip._tcp IN SRV 10 60 5060 host\n");
  WriteFile(dir / "generic.zone",
            "$ORIGIN example.com.\n"
            "@ IN SOA ns1 root 1 2 3 4 5\n"
            "odd IN TYPE999 \\# 4 deadbeef\n");
  // Minimized reproducers for the tokenizer/directive fixes: each must
  // parse-error (the old code silently mis-tokenized or truncated).
  WriteFile(dir / "repro_trailing_backslash.zone",
            "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
            "www IN A 192.0.2.1\\\n");
  WriteFile(dir / "repro_unterminated_quote.zone",
            "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
            "t IN TXT \"no closing quote\n");
  WriteFile(dir / "repro_quote_eol_backslash.zone",
            "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
            "t IN TXT \"dangling\\\n");
  WriteFile(dir / "repro_ttl_overflow.zone",
            "$TTL 4294967296\n$ORIGIN example.com.\n"
            "@ IN SOA ns1 root 1 2 3 4 5\n");
  WriteFile(dir / "repro_bad_directive.zone",
            "$GENERATE 1-10 host$ A 192.0.2.$\n");
  // Owner label "$" must serialize escaped; bare "$." reparsed as a
  // directive (fuzz_zone round-trip oracle violation, fixed in Name).
  WriteFile(dir / "repro_dollar_owner.zone", "$ IN CNAME mp\n");
}

void WriteFramingCorpus(const std::filesystem::path& dir) {
  Bytes query = dns::Message::MakeQuery(MustName("a.example.com"),
                                        dns::RRType::kA, true)
                    .Encode();
  Bytes response = SampleResponse().Encode();
  Bytes framed_query = std::move(dns::FrameMessage(query)).value();
  Bytes framed_response = std::move(dns::FrameMessage(response)).value();

  WriteFile(dir / "two_messages.bin",
            Seeded(0x07, {framed_query, framed_response}));
  Bytes partial(framed_response.begin(),
                framed_response.end() - static_cast<ptrdiff_t>(5));
  WriteFile(dir / "partial_tail.bin", Seeded(0x2a, {framed_query, partial}));
  // Minimized reproducer: zero-length frame after a valid message; the
  // assembler must fail, stay poisoned, and never re-deliver the first
  // message.
  WriteFile(dir / "repro_zero_length_frame.bin",
            Seeded(0x01, {framed_query, Bytes{0x00, 0x00}, framed_query}));
}

void WriteDistribCorpus(const std::filesystem::path& dir) {
  distrib::HelloFrame hello;
  hello.agent_id = 3;
  hello.config.server =
      Endpoint{std::move(IpAddress::Parse("127.0.0.1")).value(), 5353};

  distrib::ChunkFrame chunk;
  chunk.seq = 1;
  trace::QueryRecord record;
  record.timestamp = 1'000'000;
  record.src = std::move(IpAddress::Parse("198.51.100.9")).value();
  record.src_port = 40000;
  record.dst = std::move(IpAddress::Parse("192.0.2.53")).value();
  record.id = 77;
  record.qname = MustName("www.example.com");
  record.qtype = dns::RRType::kAAAA;
  record.edns = true;
  record.udp_payload_size = 1232;
  chunk.records.push_back(record);
  record.protocol = trace::Protocol::kTcp;
  record.qname = MustName("tcp.example.com");
  chunk.records.push_back(record);

  stats::MetricsSnapshot snapshot;
  snapshot.taken_at = 42;
  snapshot.counters.emplace_back("replay.sent", 100);
  snapshot.gauges.emplace_back("replay.inflight", -3);
  stats::HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 30;
  hist.max = 20;
  hist.buckets.assign(stats::LogHistogram::kNumBuckets, 0);
  hist.buckets[5] = 2;
  snapshot.histograms.emplace_back("replay.latency", hist);

  WriteFile(dir / "session.bin",
            Seeded(0x11, {distrib::EncodeHello(hello),
                          distrib::EncodeHelloAck({}),
                          distrib::EncodeClockPing({}),
                          distrib::EncodeStart({}),
                          distrib::EncodeChunk(chunk),
                          distrib::EncodeChunkAck({}),
                          distrib::EncodeInputDone({}),
                          distrib::EncodeStats(snapshot),
                          distrib::EncodeBye()}));
  WriteFile(dir / "error_frame.bin",
            Seeded(0x09, {distrib::EncodeError({.message = "agent failed"})}));
  // Minimized reproducer: an 8-byte CHUNK body claiming 2^20 records — the
  // pre-fix decoder reserved the full count before reading a single one.
  Bytes huge_count = {0x00, 0x00, 0x00, 0x09, 0x06, 0x00, 0x00, 0x00,
                      0x00, 0x00, 0x10, 0x00, 0x00};
  WriteFile(dir / "repro_chunk_count.bin", Seeded(0x03, {huge_count}));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 1;
  }
  std::filesystem::path root(argv[1]);
  for (const char* sub : {"wire", "zone", "framing", "distrib"}) {
    std::filesystem::create_directories(root / sub);
  }
  WriteWireCorpus(root / "wire");
  WriteZoneCorpus(root / "zone");
  WriteFramingCorpus(root / "framing");
  WriteDistribCorpus(root / "distrib");
  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
