// ldp-query: a dig-like DNS client over real sockets — the quickest way to
// poke at an ldp_serve instance (or any DNS server).
//
//   ldp_query --server 127.0.0.1:5353 www.example.com A
//   ldp_query --server 127.0.0.1:5353 --tcp --do example.com DNSKEY
#include <cstdio>

#include "common/flags.h"
#include "dns/framing.h"
#include "dns/message.h"
#include "net/sockets.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_query --server IP:PORT [--tcp] [--do] [--rd]
                 [--timeout-ms N] NAME [TYPE]
Sends one query and prints the response dig-style. TYPE defaults to A.)";

void PrintResponse(const dns::Message& response, NanoDuration elapsed,
                   size_t wire_size) {
  std::printf("%s", response.ToText().c_str());
  std::printf(";; %zu bytes, %.2f ms\n", wire_size, ToMillis(elapsed));
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"tcp", "do", "rd"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown(
          {"server", "tcp", "do", "rd", "timeout-ms", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("server") ||
      flags.positional().empty()) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  auto server = Endpoint::Parse(flags.GetString("server", ""));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().ToString().c_str());
    return 2;
  }
  auto qname = dns::Name::Parse(flags.positional()[0]);
  if (!qname.ok()) {
    std::fprintf(stderr, "%s\n", qname.error().ToString().c_str());
    return 2;
  }
  dns::RRType qtype = dns::RRType::kA;
  if (flags.positional().size() > 1) {
    auto parsed = dns::RRTypeFromString(flags.positional()[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.error().ToString().c_str());
      return 2;
    }
    qtype = *parsed;
  }

  dns::Message query =
      dns::Message::MakeQuery(*qname, qtype, flags.GetBool("rd", false));
  query.id = static_cast<uint16_t>(MonotonicNow() & 0xffff);
  if (flags.GetBool("do", false)) {
    query.edns = dns::Edns{.udp_payload_size = 4096, .do_bit = true};
  }
  Bytes wire = query.Encode();

  auto loop = net::EventLoop::Create();
  if (!loop.ok()) return 1;
  NanoDuration timeout =
      Millis(flags.GetInt("timeout-ms", 3000).value_or(3000));
  NanoTime start = MonotonicNow();
  bool got_response = false;
  int exit_code = 1;

  auto handle_wire = [&](std::span<const uint8_t> payload) {
    auto response = dns::Message::Decode(payload);
    if (!response.ok() || response->id != query.id) return;
    got_response = true;
    PrintResponse(*response, MonotonicNow() - start, payload.size());
    exit_code = 0;
    (*loop)->Stop();
  };

  std::unique_ptr<net::DatagramPath> udp;
  std::unique_ptr<net::TcpConnection> tcp;
  if (flags.GetBool("tcp", false)) {
    auto assembler = std::make_shared<dns::StreamAssembler>();
    auto conn = net::TcpConnection::Connect(
        **loop, *server,
        [&](Status status) {
          if (!status.ok()) {
            std::fprintf(stderr, "%s\n", status.error().ToString().c_str());
            (*loop)->Stop();
            return;
          }
          auto framed = dns::FrameMessage(wire);
          if (!framed.ok()) {
            std::fprintf(stderr, "%s\n",
                         framed.error().ToString().c_str());
            (*loop)->Stop();
            return;
          }
          auto sent = tcp->Send(*framed);
          if (!sent.ok()) (*loop)->Stop();
        },
        [&, assembler](std::span<const uint8_t> data) {
          if (!assembler->Feed(data).ok()) return;
          if (auto message = assembler->NextMessage()) handle_wire(*message);
        },
        [&](Status) {
          if (!got_response) std::fprintf(stderr, ";; connection closed\n");
          (*loop)->Stop();
        });
    if (!conn.ok()) {
      std::fprintf(stderr, "%s\n", conn.error().ToString().c_str());
      return 1;
    }
    tcp = std::move(*conn);
  } else {
    auto socket = net::DatagramPath::Open(
        **loop, Endpoint{IpAddress::Loopback(), 0},
        [&](std::span<const net::DatagramPath::RecvItem> replies) {
          for (const auto& reply : replies) handle_wire(reply.payload);
        });
    if (!socket.ok()) {
      std::fprintf(stderr, "%s\n", socket.error().ToString().c_str());
      return 1;
    }
    udp = std::move(*socket);
    if (auto s = udp->SendTo(wire, *server); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
      return 1;
    }
  }

  (*loop)->ScheduleAfter(timeout, [&]() {
    if (!got_response) std::fprintf(stderr, ";; timeout\n");
    (*loop)->Stop();
  });
  (*loop)->Run();
  return exit_code;
}
