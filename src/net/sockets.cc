#include "net/sockets.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace ldp::net {
namespace {

sockaddr_in ToSockaddr(Endpoint endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  addr.sin_addr.s_addr = htonl(endpoint.addr.value());
  return addr;
}

Endpoint FromSockaddr(const sockaddr_in& addr) {
  return Endpoint{IpAddress(ntohl(addr.sin_addr.s_addr)),
                  ntohs(addr.sin_port)};
}

Result<Endpoint> LocalEndpoint(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return FromSockaddr(addr);
}

}  // namespace

// --- UDP ---

Result<BoundUdp> BindUdp(Endpoint local, const UdpOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket(UDP)");

  if (options.reuse_port) {
    int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return Errno("setsockopt(SO_REUSEPORT)");
    }
  }
  if (options.recv_buffer_bytes > 0) {
    // Best-effort: the kernel clamps to rmem_max without error.
    int bytes = options.recv_buffer_bytes;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }

  sockaddr_in addr = ToSockaddr(local);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + local.ToString());
  }
  LDP_ASSIGN_OR_RETURN(Endpoint bound, LocalEndpoint(fd.get()));
  return BoundUdp{std::move(fd), bound};
}

Result<std::unique_ptr<DatagramPath>> UdpSocket::Open(
    EventLoop& loop, Endpoint local, BatchHandler on_batch,
    const DatapathOptions& options) {
  LDP_ASSIGN_OR_RETURN(BoundUdp bound, BindUdp(local, options.udp));
  auto socket = std::unique_ptr<UdpSocket>(new UdpSocket(
      loop, std::move(bound.fd), bound.local, std::move(on_batch)));
  if (options.metrics != nullptr) {
    socket->rx_frames_ = options.metrics->AddCounter("datapath.rx_frames");
    socket->tx_frames_ = options.metrics->AddCounter("datapath.tx_frames");
  }
  // for_overwrite: value-initializing these 2 MB costs ~1.2 ms of zeroing
  // per socket, which stalls an event loop that creates sockets on the hot
  // path (the relay binds one per flow); recvmmsg fills slots before any
  // read, so the zeroing bought nothing.
  socket->recv_slots_ =
      std::make_unique_for_overwrite<uint8_t[]>(kBatchSize * kRecvSlotSize);
  UdpSocket* raw = socket.get();
  LDP_RETURN_IF_ERROR(loop.Add(raw->fd_.get(), /*want_read=*/true,
                               /*want_write=*/false,
                               [raw](IoEvents) { raw->OnReadable(); }));
  return std::unique_ptr<DatagramPath>(std::move(socket));
}

UdpSocket::~UdpSocket() {
  if (fd_.valid()) loop_.Remove(fd_.get());
}

Status UdpSocket::SendTo(std::span<const uint8_t> payload, Endpoint to) {
  sockaddr_in addr = ToSockaddr(to);
  ssize_t sent =
      ::sendto(fd_.get(), payload.data(), payload.size(), 0,
               reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (sent < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // UDP send buffer full: datagram lost, as it would be on the wire.
      return Error(ErrorCode::kWouldBlock, "UDP send buffer full");
    }
    return Errno("sendto");
  }
  if (tx_frames_ != nullptr) tx_frames_->Add();
  return Status::Ok();
}

size_t UdpSocket::SendBatch(std::span<const SendItem> batch) {
  size_t accepted = 0;
  while (accepted < batch.size()) {
    const size_t chunk = std::min(batch.size() - accepted, kBatchSize);
    mmsghdr msgs[kBatchSize];
    iovec iovs[kBatchSize];
    sockaddr_in addrs[kBatchSize];
    std::memset(msgs, 0, sizeof(mmsghdr) * chunk);
    for (size_t i = 0; i < chunk; ++i) {
      const SendItem& item = batch[accepted + i];
      iovs[i].iov_base = const_cast<uint8_t*>(item.payload.data());
      iovs[i].iov_len = item.payload.size();
      addrs[i] = ToSockaddr(item.to);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
    }
    // EAGAIN: send buffer full — the remaining datagrams are dropped, as
    // they would be on the wire.
    const int sent =
        ::sendmmsg(fd_.get(), msgs, static_cast<unsigned>(chunk), 0);
    if (sent < 0) break;
    accepted += static_cast<size_t>(sent);
    if (static_cast<size_t>(sent) < chunk) break;
  }
  if (tx_frames_ != nullptr) tx_frames_->Add(accepted);
  return accepted;
}

void UdpSocket::OnReadable() {
  // Drain the socket in recvmmsg batches: level-triggered epoll would
  // re-arm anyway, but draining cuts wakeups at high rates. The per-event
  // cap bounds how long one busy socket can starve its loop siblings. A
  // short batch means the queue was empty: stop there rather than pay for
  // a recvmmsg that only returns EAGAIN. Anything that arrives later keeps
  // the socket readable, so epoll reports it again.
  constexpr size_t kMaxPerEvent = 8 * kBatchSize;
  mmsghdr msgs[kBatchSize];
  iovec iovs[kBatchSize];
  sockaddr_in addrs[kBatchSize];
  RecvItem items[kBatchSize];
  std::memset(msgs, 0, sizeof(msgs));
  for (size_t i = 0; i < kBatchSize; ++i) {
    iovs[i].iov_base = recv_slots_.get() + i * kRecvSlotSize;
    iovs[i].iov_len = kRecvSlotSize;
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
  }
  size_t total = 0;
  while (total < kMaxPerEvent) {
    for (auto& msg : msgs) msg.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    // An error (EAGAIN or otherwise) reads nothing.
    const int got = ::recvmmsg(fd_.get(), msgs, kBatchSize, 0, nullptr);
    if (got <= 0) return;
    const auto n = static_cast<size_t>(got);
    for (size_t i = 0; i < n; ++i) {
      items[i] = RecvItem{std::span<const uint8_t>(
                              recv_slots_.get() + i * kRecvSlotSize,
                              msgs[i].msg_len),
                          FromSockaddr(addrs[i]), local_};
    }
    total += n;
    if (rx_frames_ != nullptr) rx_frames_->Add(n);
    on_batch_(std::span<const RecvItem>(items, n));
    if (n < kBatchSize) return;
  }
}

// --- TcpConnection ---

Result<std::unique_ptr<TcpConnection>> TcpConnection::Connect(
    EventLoop& loop, Endpoint remote, ConnectHandler on_connected,
    DataHandler on_data, CloseHandler on_close,
    const TcpConnectOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket(TCP)");

  // The paper disables Nagle at the client (§5.2.1).
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (!options.local.addr.IsUnspecified() || options.local.port != 0) {
    // SO_REUSEADDR lets back-to-back reconnects reuse a source port still
    // in TIME_WAIT from the previous stream.
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in local = ToSockaddr(options.local);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&local),
               sizeof(local)) != 0) {
      return Errno("bind " + options.local.ToString());
    }
  }

  sockaddr_in addr = ToSockaddr(remote);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Errno("connect " + remote.ToString());
  }

  auto conn =
      std::unique_ptr<TcpConnection>(new TcpConnection(loop, std::move(fd)));
  conn->remote_ = remote;
  conn->on_connected_ = std::move(on_connected);
  conn->on_data_ = std::move(on_data);
  conn->on_close_ = std::move(on_close);
  LDP_RETURN_IF_ERROR(conn->Register(/*connecting=*/true));
  return conn;
}

TcpConnection::~TcpConnection() {
  *alive_ = false;
  if (fd_.valid()) loop_.Remove(fd_.get());
}

void TcpConnection::SetWriteWatermarks(size_t high, size_t low,
                                       WatermarkHandler handler) {
  high_watermark_ = high;
  low_watermark_ = std::min(low, high);
  on_watermark_ = std::move(handler);
}

Status TcpConnection::Register(bool connecting) {
  want_write_ = connecting;
  return loop_.Add(fd_.get(), /*want_read=*/true, /*want_write=*/connecting,
                   [this](IoEvents events) { OnIo(events); });
}

Status TcpConnection::Send(std::span<const uint8_t> data) {
  if (closed_) return Error(ErrorCode::kConnectionClosed, "send after close");
  if (!send_queue_.empty() || !connected_) {
    send_queue_.insert(send_queue_.end(), data.begin(), data.end());
    MaybeSignalHighWatermark();
    return Status::Ok();
  }
  ssize_t sent = ::send(fd_.get(), data.data(), data.size(), MSG_NOSIGNAL);
  if (sent < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("send");
    sent = 0;
  }
  if (static_cast<size_t>(sent) < data.size()) {
    send_queue_.insert(send_queue_.end(), data.begin() + sent, data.end());
    if (!want_write_) {
      want_write_ = true;
      LDP_RETURN_IF_ERROR(loop_.Modify(fd_.get(), true, true));
    }
    MaybeSignalHighWatermark();
  }
  return Status::Ok();
}

void TcpConnection::MaybeSignalHighWatermark() {
  if (high_watermark_ == 0 || above_high_) return;
  if (send_queue_.size() < high_watermark_) return;
  above_high_ = true;
  // Stack copy: the handler may destroy this connection (and with it the
  // member functor) while executing.
  WatermarkHandler on_watermark = on_watermark_;
  if (on_watermark) on_watermark(true);
}

size_t TcpConnection::queued_bytes() const { return send_queue_.size(); }

void TcpConnection::OnIo(IoEvents events) {
  // Every handler below may destroy this connection from inside its own
  // callback; `alive` outlives the object and gates every member access
  // that follows a handler invocation.
  std::shared_ptr<bool> alive = alive_;

  if (!connected_) {
    // Connect completion (or failure).
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &error, &len);
    if (events.error || error != 0) {
      closed_ = true;
      loop_.Remove(fd_.get());
      fd_.Reset();
      // Moved to the stack: the handler may destroy this connection, and
      // the function object must outlive its own invocation.
      ConnectHandler on_connected = std::move(on_connected_);
      if (on_connected) {
        on_connected(Error(ErrorCode::kIoError,
                           std::string("connect: ") + std::strerror(error)));
      }
      return;
    }
    if (events.writable || events.readable) {
      connected_ = true;
      auto local = LocalEndpoint(fd_.get());
      if (local.ok()) local_ = *local;
      want_write_ = !send_queue_.empty();
      auto status = loop_.Modify(fd_.get(), true, want_write_);
      (void)status;
      if (on_connected_) {
        // Connect fires exactly once: move the handler out so destroying
        // the connection from inside it cannot free an executing functor.
        ConnectHandler on_connected = std::move(on_connected_);
        on_connected(Status::Ok());
        if (!*alive || closed_) return;
      }
      FlushSendQueue();
      if (!*alive || closed_) return;
    }
    if (!events.readable) return;
  }

  if (events.readable) {
    // Stack copy (SSO-sized captures: no allocation): the handler may
    // destroy this connection, and the member functor with it.
    DataHandler on_data = on_data_;
    uint8_t buffer[65536];
    while (true) {
      ssize_t got = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
      if (got > 0) {
        if (on_data) {
          on_data(std::span<const uint8_t>(buffer,
                                           static_cast<size_t>(got)));
        }
        if (!*alive || closed_) return;
        continue;
      }
      if (got == 0) {
        HandleClose(Status::Ok());  // clean peer EOF
        return;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        HandleClose(Errno("recv"));
        return;
      }
      break;  // EAGAIN: drained
    }
  }
  if (events.writable && connected_) {
    FlushSendQueue();
    if (!*alive || closed_) return;
  }
  if (events.hangup || events.error) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &error, &len);
    if (events.error && error != 0) {
      errno = error;
      HandleClose(Errno("socket error"));
    } else {
      HandleClose(Status::Ok());  // hangup: peer closed
    }
  }
}

void TcpConnection::FlushSendQueue() {
  while (!send_queue_.empty()) {
    // deque is not contiguous: send in bounded contiguous chunks.
    uint8_t chunk[16384];
    size_t n = std::min(send_queue_.size(), sizeof(chunk));
    std::copy(send_queue_.begin(),
              send_queue_.begin() + static_cast<ptrdiff_t>(n), chunk);
    ssize_t sent = ::send(fd_.get(), chunk, n, MSG_NOSIGNAL);
    if (sent <= 0) break;
    send_queue_.erase(send_queue_.begin(),
                      send_queue_.begin() + sent);
  }
  bool need_write = !send_queue_.empty();
  if (need_write != want_write_) {
    want_write_ = need_write;
    auto status = loop_.Modify(fd_.get(), true, want_write_);
    (void)status;
  }
  // Signal last: the resume handler may call Send (re-entering this
  // connection) or even destroy it — nothing below touches members.
  if (above_high_ && send_queue_.size() <= low_watermark_) {
    above_high_ = false;
    WatermarkHandler on_watermark = on_watermark_;
    if (on_watermark) on_watermark(false);
  }
}

void TcpConnection::HandleClose(Status reason) {
  if (closed_) return;
  closed_ = true;
  loop_.Remove(fd_.get());
  fd_.Reset();
  // Moved to the stack: the handler commonly destroys this connection (the
  // function object must outlive its own invocation).
  CloseHandler on_close = std::move(on_close_);
  if (on_close) on_close(std::move(reason));
}

// --- TcpListener ---

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(
    EventLoop& loop, Endpoint local, AcceptHandler on_accept,
    const TcpListenOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket(TCP listener)");

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuse_port) {
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return Errno("setsockopt(SO_REUSEPORT)");
    }
  }

  sockaddr_in addr = ToSockaddr(local);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + local.ToString());
  }
  // 4096: a mass-connection ramp (the fig13-15 bench opens tens of
  // thousands of connections in seconds) overflows the old 1024 backlog on
  // a single-core host; the kernel clamps to somaxconn either way.
  if (::listen(fd.get(), 4096) != 0) return Errno("listen");
  LDP_ASSIGN_OR_RETURN(Endpoint bound, LocalEndpoint(fd.get()));

  auto listener = std::unique_ptr<TcpListener>(
      new TcpListener(loop, std::move(fd), bound, std::move(on_accept)));
  TcpListener* raw = listener.get();
  LDP_RETURN_IF_ERROR(loop.Add(raw->fd_.get(), true, false,
                               [raw](IoEvents) { raw->OnReadable(); }));
  return listener;
}

TcpListener::~TcpListener() {
  if (fd_.valid()) loop_.Remove(fd_.get());
}

void TcpListener::Pause() {
  if (paused_ || !fd_.valid()) return;
  paused_ = true;
  auto status = loop_.Modify(fd_.get(), /*want_read=*/false,
                             /*want_write=*/false);
  (void)status;
}

void TcpListener::Resume() {
  if (!paused_ || !fd_.valid()) return;
  paused_ = false;
  auto status = loop_.Modify(fd_.get(), /*want_read=*/true,
                             /*want_write=*/false);
  (void)status;
}

void TcpListener::OnReadable() {
  // on_accept_ may Pause() this listener (connection cap reached): stop the
  // accept burst immediately and leave the rest in the kernel backlog.
  while (!paused_) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int client = ::accept4(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                           &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) return;  // EAGAIN or transient error

    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::unique_ptr<TcpConnection>(
        new TcpConnection(loop_, Fd(client)));
    conn->connected_ = true;
    conn->remote_ = FromSockaddr(addr);
    auto local = LocalEndpoint(client);
    if (local.ok()) conn->local_ = *local;
    if (on_accept_) on_accept_(std::move(conn));
  }
}

Status TcpListener::AdoptHandlers(TcpConnection& conn,
                                  TcpConnection::DataHandler on_data,
                                  TcpConnection::CloseHandler on_close) {
  conn.on_data_ = std::move(on_data);
  conn.on_close_ = std::move(on_close);
  return conn.Register(/*connecting=*/false);
}

}  // namespace ldp::net
