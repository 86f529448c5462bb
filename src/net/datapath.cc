#include "net/datapath.h"

#include <utility>

#include "net/afpacket.h"
#include "net/sockets.h"

namespace ldp::net {

Result<DatapathKind> ParseDatapathKind(std::string_view text) {
  if (text == "epoll") return DatapathKind::kEpoll;
  if (text == "afpacket") return DatapathKind::kAfPacket;
  return Error(ErrorCode::kInvalidArgument,
               "unknown datapath '" + std::string(text) +
                   "' (expected epoll or afpacket)");
}

std::string_view DatapathKindName(DatapathKind kind) {
  switch (kind) {
    case DatapathKind::kEpoll:
      return "epoll";
    case DatapathKind::kAfPacket:
      return "afpacket";
  }
  return "?";
}

Result<std::unique_ptr<DatagramPath>> DatagramPath::Open(
    EventLoop& loop, Endpoint local, BatchHandler on_batch,
    const DatapathOptions& options) {
  switch (options.kind) {
    case DatapathKind::kEpoll:
      return UdpSocket::Open(loop, local, std::move(on_batch), options);
    case DatapathKind::kAfPacket:
      return AfPacketPath::Open(loop, local, std::move(on_batch), options);
  }
  return Error(ErrorCode::kInvalidArgument, "unknown datapath kind");
}

}  // namespace ldp::net
