// Non-blocking UDP and TCP sockets over the event loop. IPv4 only (the
// testbed address plan is IPv4, like the paper's).
#ifndef LDPLAYER_NET_SOCKETS_H
#define LDPLAYER_NET_SOCKETS_H

#include <deque>
#include <functional>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/ip.h"
#include "common/result.h"
#include "net/datapath.h"
#include "net/event_loop.h"

namespace ldp::net {

// --- UDP ---

// The epoll backend of DatagramPath: one kernel UDP socket, drained with
// recvmmsg and written with sendmmsg in kBatchSize chunks. Received items
// carry to == local(); SendItem::from is ignored (the binding is the
// source). DatagramPath::Open(kEpoll) is the only way to make one.
class UdpSocket final : public DatagramPath {
 public:
  ~UdpSocket() override;

  Status SendTo(std::span<const uint8_t> payload, Endpoint to) override;
  size_t SendBatch(std::span<const SendItem> batch) override;
  Endpoint local() const override { return local_; }
  DatapathKind kind() const override { return DatapathKind::kEpoll; }

 private:
  // Received payloads live in per-socket slots of kRecvSlotSize bytes (the
  // UDP maximum, so jumbo loopback datagrams are never clipped).
  static constexpr size_t kRecvSlotSize = 65536;

  friend class DatagramPath;
  static Result<std::unique_ptr<DatagramPath>> Open(
      EventLoop& loop, Endpoint local, BatchHandler on_batch,
      const DatapathOptions& options);
  UdpSocket(EventLoop& loop, Fd fd, Endpoint local, BatchHandler on_batch)
      : loop_(loop),
        fd_(std::move(fd)),
        local_(local),
        on_batch_(std::move(on_batch)) {}
  void OnReadable();

  EventLoop& loop_;
  Fd fd_;
  Endpoint local_;
  BatchHandler on_batch_;
  // Receive slots, allocated once at bind: kBatchSize * kRecvSlotSize.
  std::unique_ptr<uint8_t[]> recv_slots_;
  // datapath.rx_frames / tx_frames; null without a registry.
  stats::Counter* rx_frames_ = nullptr;
  stats::Counter* tx_frames_ = nullptr;
};

// A kernel UDP socket bound by BindUdp, with the address it got.
struct BoundUdp {
  Fd fd;
  Endpoint local;
};

// socket, SO_REUSEPORT, SO_RCVBUF, bind, getsockname: the one kernel UDP
// bind, shared by UdpSocket and the afpacket backend's shadow socket.
// Port 0 binds an ephemeral port; BoundUdp::local says which.
Result<BoundUdp> BindUdp(Endpoint local, const UdpOptions& options);

// --- TCP ---

struct TcpConnectOptions {
  // When set (address or port nonzero), bind the socket here before
  // connecting. The hierarchy proxy uses this to dial the meta server
  // *from* an emulated nameserver address so the server's split-horizon
  // view match sees the OQDA as the stream's source.
  Endpoint local;
};

// A bidirectional byte stream driven by the event loop. Plain TCP
// (TcpConnection) and TLS-over-TCP (net::TlsConnection) both implement it,
// so the DNS server and the replay querier hold either transport behind one
// pointer — the same seam the datapath abstraction gives the UDP path.
class StreamConn {
 public:
  using DataHandler = std::function<void(std::span<const uint8_t>)>;
  // Close reason: Ok() means a clean peer EOF (or hangup); an error status
  // carries the socket error (ECONNRESET, EPIPE, ...) so callers can tell
  // normal lifecycle from failure and decide whether to reconnect.
  using CloseHandler = std::function<void(Status)>;
  using ConnectHandler = std::function<void(Status)>;
  using WatermarkHandler = std::function<void(bool paused)>;

  virtual ~StreamConn() = default;

  // Buffered write: queues what the transport cannot take immediately.
  virtual Status Send(std::span<const uint8_t> data) = 0;

  // Write-queue backpressure: once queued_bytes() reaches `high` the handler
  // fires with paused=true; when the queue drains to `low` or below it fires
  // with paused=false. Advisory, like the kernel's send buffer.
  virtual void SetWriteWatermarks(size_t high, size_t low,
                                  WatermarkHandler handler) = 0;

  virtual bool connected() const = 0;
  virtual Endpoint local() const = 0;
  virtual Endpoint remote() const = 0;
  virtual size_t queued_bytes() const = 0;
};

class TcpConnection : public StreamConn {
 public:
  using DataHandler = StreamConn::DataHandler;
  using CloseHandler = StreamConn::CloseHandler;
  using ConnectHandler = StreamConn::ConnectHandler;
  using WatermarkHandler = StreamConn::WatermarkHandler;
  // Asynchronous connect; `on_connected` fires once with the outcome.
  static Result<std::unique_ptr<TcpConnection>> Connect(
      EventLoop& loop, Endpoint remote, ConnectHandler on_connected,
      DataHandler on_data, CloseHandler on_close,
      const TcpConnectOptions& options = TcpConnectOptions());

  ~TcpConnection() override;

  // Buffered write: queues what the kernel will not take immediately.
  Status Send(std::span<const uint8_t> data) override;

  // Write-queue backpressure: once queued_bytes() reaches `high` the handler
  // fires with paused=true; when the queue drains to `low` or below it fires
  // with paused=false. A paused caller should stop calling Send (nothing is
  // enforced — watermarks are advisory, like the kernel's send buffer).
  void SetWriteWatermarks(size_t high, size_t low,
                          WatermarkHandler handler) override;

  bool connected() const override { return connected_; }
  Endpoint local() const override { return local_; }
  Endpoint remote() const override { return remote_; }
  size_t queued_bytes() const override;

 private:
  friend class TcpListener;
  TcpConnection(EventLoop& loop, Fd fd) : loop_(loop), fd_(std::move(fd)) {}

  Status Register(bool connecting);
  void OnIo(IoEvents events);
  void FlushSendQueue();
  void MaybeSignalHighWatermark();
  void HandleClose(Status reason);

  EventLoop& loop_;
  Fd fd_;
  Endpoint local_;
  Endpoint remote_;
  bool connected_ = false;
  bool closed_ = false;
  bool want_write_ = false;
  ConnectHandler on_connected_;
  DataHandler on_data_;
  CloseHandler on_close_;
  std::deque<uint8_t> send_queue_;
  // Backpressure state; high == 0 disables watermarks.
  size_t high_watermark_ = 0;
  size_t low_watermark_ = 0;
  bool above_high_ = false;
  WatermarkHandler on_watermark_;
  // Any handler may destroy this connection (including from inside its own
  // callback); OnIo keeps a copy of this flag on the stack and re-checks it
  // after every handler invocation before touching members again.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

struct TcpListenOptions {
  // SO_REUSEPORT: lets every server shard bind its own listener on the same
  // address, so the kernel spreads incoming connections across shards by
  // 4-tuple hash — the TCP twin of the sharded UDP fast path.
  bool reuse_port = false;
};

class TcpListener {
 public:
  using AcceptHandler = std::function<void(std::unique_ptr<TcpConnection>)>;

  // The accepted connection is delivered unregistered for data; the callee
  // assigns handlers via AdoptHandlers and the listener registers it.
  static Result<std::unique_ptr<TcpListener>> Listen(
      EventLoop& loop, Endpoint local, AcceptHandler on_accept,
      const TcpListenOptions& options = TcpListenOptions());
  ~TcpListener();

  Endpoint local() const { return local_; }

  // Accept-pause flow control: Pause drops read interest so pending and new
  // connections wait in the kernel backlog instead of being accepted; Resume
  // re-arms it (level-triggered epoll re-fires if the backlog is non-empty).
  // The server uses this to stop an accept flood at its connection cap.
  void Pause();
  void Resume();
  bool paused() const { return paused_; }

  // Completes setup of an accepted connection: installs handlers and
  // registers it with the loop.
  static Status AdoptHandlers(TcpConnection& conn,
                              TcpConnection::DataHandler on_data,
                              TcpConnection::CloseHandler on_close);

 private:
  TcpListener(EventLoop& loop, Fd fd, Endpoint local,
              AcceptHandler on_accept)
      : loop_(loop),
        fd_(std::move(fd)),
        local_(local),
        on_accept_(std::move(on_accept)) {}
  void OnReadable();

  EventLoop& loop_;
  Fd fd_;
  Endpoint local_;
  AcceptHandler on_accept_;
  bool paused_ = false;
};

}  // namespace ldp::net

#endif  // LDPLAYER_NET_SOCKETS_H
