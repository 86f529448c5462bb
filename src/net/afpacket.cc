// AF_PACKET (TPACKET_V3 rx / TPACKET_V2 tx) backend. The packet walk:
//
//   rx: the kernel runs our classic-BPF filter ("IPv4, UDP, not a
//   fragment, dst port == ours [, dst addr == ours]") against every frame
//   on the interface — after PACKET_FANOUT has hashed the flow to one
//   shard's ring — and appends matches to the current rx block. A block
//   reaches userspace (TP_STATUS_USER, one epoll wakeup) when full or
//   when the retire timer fires. We walk its frames in place: parse
//   headers with the userspace codec, hand payload *spans into the block*
//   to the batch handler, then release the block back to the kernel.
//   PACKET_IGNORE_OUTGOING (plus a per-frame sll_pkttype check for older
//   kernels) keeps our own transmissions out of the ring.
//
//   tx: replies are assembled directly in a free TPACKET_V2 slot —
//   Ethernet/IPv4/UDP headers, checksums, payload copy; the only copy on
//   the tx path — marked TP_STATUS_SEND_REQUEST, and handed to the kernel
//   with one zero-length send() per batch. The kernel walks the ring,
//   transmits (PACKET_QDISC_BYPASS skips the qdisc), and flips slots back
//   to TP_STATUS_AVAILABLE for reuse: frames never leave the mmap.
//
//   The shadow kernel UDP socket bound to the same endpoint does no I/O
//   (a drop-all BPF filter empties its queue): it reserves the port from
//   other processes, resolves port-0 binds, and keeps the kernel from
//   answering our traffic with ICMP port-unreachable.
#include "net/afpacket.h"

#include <linux/filter.h>
#include <linux/if_ether.h>
#include <linux/if_packet.h>
#include <net/if.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "net/sockets.h"

namespace ldp::net {

namespace {

// Not in older uapi headers.
#ifndef PACKET_IGNORE_OUTGOING
#define PACKET_IGNORE_OUTGOING 23
#endif
#ifndef PACKET_QDISC_BYPASS
#define PACKET_QDISC_BYPASS 20
#endif

Status AttachFilter(int fd, std::span<sock_filter> insns,
                    const char* what) {
  sock_fprog prog{};
  prog.len = static_cast<unsigned short>(insns.size());
  prog.filter = insns.data();
  if (::setsockopt(fd, SOL_SOCKET, SO_ATTACH_FILTER, &prog, sizeof(prog)) !=
      0) {
    return Errno(std::string("attach ") + what);
  }
  return Status::Ok();
}

// Accept nothing: keeps a socket's receive queue permanently empty.
Status AttachDropAllFilter(int fd, const char* what) {
  sock_filter drop[] = {BPF_STMT(BPF_RET | BPF_K, 0)};
  return AttachFilter(fd, drop, what);
}

// "IPv4, UDP, not a fragment, dst port == `port` [, dst addr == `addr`]".
// Offsets are from the Ethernet header; the dst address sits at a fixed
// offset while the UDP header position honors the IHL (X register).
std::vector<sock_filter> BuildSteeringFilter(uint16_t port, IpAddress addr) {
  const bool match_addr = !addr.IsUnspecified();
  std::vector<sock_filter> prog;
  constexpr uint8_t kToDrop = 0xff;  // patched below
  auto stmt = [&](uint16_t code, uint32_t k) {
    prog.push_back(BPF_STMT(code, k));
  };
  auto jump = [&](uint16_t code, uint32_t k, uint8_t jt, uint8_t jf) {
    prog.push_back(BPF_JUMP(code, k, jt, jf));
  };
  stmt(BPF_LD | BPF_H | BPF_ABS, 12);  // EtherType
  jump(BPF_JMP | BPF_JEQ | BPF_K, ETH_P_IP, 0, kToDrop);
  stmt(BPF_LD | BPF_B | BPF_ABS, 23);  // IP protocol
  jump(BPF_JMP | BPF_JEQ | BPF_K, 17, 0, kToDrop);
  stmt(BPF_LD | BPF_H | BPF_ABS, 20);  // flags + fragment offset
  jump(BPF_JMP | BPF_JSET | BPF_K, 0x1fff, kToDrop, 0);
  if (match_addr) {
    stmt(BPF_LD | BPF_W | BPF_ABS, 30);  // IPv4 dst (fixed offset)
    jump(BPF_JMP | BPF_JEQ | BPF_K, addr.value(), 0, kToDrop);
  }
  stmt(BPF_LDX | BPF_B | BPF_MSH, 14);  // X = IHL * 4
  stmt(BPF_LD | BPF_H | BPF_IND, 16);   // UDP dst port at 14 + X + 2
  jump(BPF_JMP | BPF_JEQ | BPF_K, port, 0, kToDrop);
  stmt(BPF_RET | BPF_K, 0x40000);  // accept, generous snaplen
  const uint8_t drop_idx = static_cast<uint8_t>(prog.size());
  stmt(BPF_RET | BPF_K, 0);
  for (uint8_t i = 0; i < drop_idx; ++i) {
    if (BPF_CLASS(prog[i].code) != BPF_JMP) continue;
    if (prog[i].jt == kToDrop) prog[i].jt = drop_idx - i - 1;
    if (prog[i].jf == kToDrop) prog[i].jf = drop_idx - i - 1;
  }
  return prog;
}

// Bounded blocks consumed per wakeup, so a flooded ring cannot starve
// timers and the tx path (mirrors UdpSocket::OnReadable's 8-batch cap).
constexpr size_t kMaxBlocksPerWakeup = 8;

}  // namespace

Result<std::unique_ptr<DatagramPath>> AfPacketPath::Open(
    EventLoop& loop, Endpoint local, BatchHandler on_batch,
    const DatapathOptions& options) {
  auto path = std::unique_ptr<AfPacketPath>(
      new AfPacketPath(loop, std::move(on_batch)));
  if (options.metrics != nullptr) path->RegisterMetrics(*options.metrics);
  LDP_RETURN_IF_ERROR(path->Init(local, options));
  return std::unique_ptr<DatagramPath>(std::move(path));
}

void AfPacketPath::RegisterMetrics(stats::MetricsRegistry& registry) {
  metrics_.rx_frames = registry.AddCounter("datapath.rx_frames");
  metrics_.rx_bytes = registry.AddCounter("datapath.rx_bytes");
  metrics_.rx_parse_errors = registry.AddCounter("datapath.rx_parse_errors");
  metrics_.rx_kernel_drops = registry.AddCounter("datapath.rx_kernel_drops");
  metrics_.tx_frames = registry.AddCounter("datapath.tx_frames");
  metrics_.tx_bytes = registry.AddCounter("datapath.tx_bytes");
  metrics_.tx_ring_full = registry.AddCounter("datapath.tx_ring_full");
  metrics_.tx_wrong_format = registry.AddCounter("datapath.tx_wrong_format");
  metrics_.tx_oversize = registry.AddCounter("datapath.tx_oversize");
  metrics_.tx_kicks = registry.AddCounter("datapath.tx_kicks");
  metrics_.tx_kick_errors = registry.AddCounter("datapath.tx_kick_errors");
  metrics_.mac_fallbacks = registry.AddCounter("datapath.mac_fallbacks");
  metrics_.rx_blocks_per_wakeup =
      registry.AddHistogram("datapath.rx_blocks_per_wakeup");
  metrics_.rx_frames_per_wakeup =
      registry.AddHistogram("datapath.rx_frames_per_wakeup");
}

Status AfPacketPath::Init(Endpoint local, const DatapathOptions& options) {
  const AfPacketOptions& ap = options.afpacket;

  // --- interface facts ---
  ifindex_ = if_nametoindex(ap.interface.c_str());
  if (ifindex_ == 0) {
    return Error(ErrorCode::kNotFound,
                 "afpacket: interface '" + ap.interface +
                     "' not found (set --afpacket-if)");
  }
  {
    Fd probe(::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0));
    if (!probe.valid()) return Errno("socket(probe)");
    ifreq ifr{};
    std::strncpy(ifr.ifr_name, ap.interface.c_str(), IFNAMSIZ - 1);
    if (::ioctl(probe.get(), SIOCGIFFLAGS, &ifr) != 0) {
      return Errno("ioctl(SIOCGIFFLAGS " + ap.interface + ")");
    }
    is_loopback_ = (ifr.ifr_flags & IFF_LOOPBACK) != 0;
    if (::ioctl(probe.get(), SIOCGIFHWADDR, &ifr) != 0) {
      return Errno("ioctl(SIOCGIFHWADDR " + ap.interface + ")");
    }
    std::memcpy(if_mac_.bytes.data(), ifr.ifr_hwaddr.sa_data, 6);
  }
  if (!ap.peer_mac.empty()) {
    LDP_ASSIGN_OR_RETURN(peer_mac_, MacAddr::Parse(ap.peer_mac));
    have_peer_mac_ = true;
  }

  // --- shadow kernel UDP socket: reserve the port, resolve port 0,
  //     silence ICMP port-unreachable ---
  LDP_ASSIGN_OR_RETURN(BoundUdp shadow, BindUdp(local, options.udp));
  shadow_fd_ = std::move(shadow.fd);
  local_ = shadow.local;
  LDP_RETURN_IF_ERROR(AttachDropAllFilter(shadow_fd_.get(), "shadow filter"));

  // --- rx: TPACKET_V3 ring ---
  // Protocol 0 at creation: nothing is delivered until the post-filter
  // bind() sets ETH_P_IP, so no unfiltered frames ever enter the ring.
  rx_fd_ = Fd(::socket(AF_PACKET, SOCK_RAW | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!rx_fd_.valid()) {
    if (errno == EPERM || errno == EACCES) {
      return Error(ErrorCode::kUnsupported,
                   "afpacket: socket(AF_PACKET) denied — needs CAP_NET_RAW "
                   "(run as root or `setcap cap_net_raw+ep`), or use "
                   "--datapath=epoll");
    }
    return Errno("socket(AF_PACKET rx)");
  }
  int version = TPACKET_V3;
  if (::setsockopt(rx_fd_.get(), SOL_PACKET, PACKET_VERSION, &version,
                   sizeof(version)) != 0) {
    return Errno("afpacket: TPACKET_V3 unavailable", ErrorCode::kUnsupported);
  }
  if (ap.rx_block_bytes == 0 || ap.rx_block_count == 0 ||
      ap.rx_block_bytes % static_cast<size_t>(::getpagesize()) != 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "afpacket: rx_block_bytes must be a positive multiple of "
                 "the page size");
  }
  rx_block_bytes_ = ap.rx_block_bytes;
  rx_block_count_ = ap.rx_block_count;
  tpacket_req3 req3{};
  req3.tp_block_size = static_cast<unsigned>(rx_block_bytes_);
  req3.tp_block_nr = static_cast<unsigned>(rx_block_count_);
  req3.tp_frame_size = static_cast<unsigned>(ap.rx_frame_bytes);
  req3.tp_frame_nr = static_cast<unsigned>(
      rx_block_bytes_ / ap.rx_frame_bytes * rx_block_count_);
  req3.tp_retire_blk_tov = ap.rx_retire_timeout_ms;
  if (::setsockopt(rx_fd_.get(), SOL_PACKET, PACKET_RX_RING, &req3,
                   sizeof(req3)) != 0) {
    return Errno("afpacket: PACKET_RX_RING(V3)", ErrorCode::kUnsupported);
  }
  rx_map_len_ = rx_block_bytes_ * rx_block_count_;
  void* map = ::mmap(nullptr, rx_map_len_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     rx_fd_.get(), 0);
  if (map == MAP_FAILED) {
    rx_map_len_ = 0;
    return Errno("mmap(rx ring)");
  }
  rx_map_ = static_cast<uint8_t*>(map);
  auto steer = BuildSteeringFilter(local_.port, local_.addr);
  LDP_RETURN_IF_ERROR(AttachFilter(rx_fd_.get(), steer, "steering filter"));
  {
    // Best-effort (4.20+): never ring-buffer our own transmissions. Older
    // kernels fall back to the per-frame sll_pkttype check in ConsumeBlock.
    int one = 1;
    ::setsockopt(rx_fd_.get(), SOL_PACKET, PACKET_IGNORE_OUTGOING, &one,
                 sizeof(one));
  }
  sockaddr_ll sll{};
  sll.sll_family = AF_PACKET;
  sll.sll_protocol = htons(ETH_P_IP);
  sll.sll_ifindex = static_cast<int>(ifindex_);
  if (::bind(rx_fd_.get(), reinterpret_cast<sockaddr*>(&sll), sizeof(sll)) !=
      0) {
    return Errno("bind(AF_PACKET rx " + ap.interface + ")");
  }
  if (ap.fanout) {
    // Hash fanout splits flows across the sibling shards' rings; the group
    // id is derived from the (shared) service port so unrelated paths in
    // the same process never collide. Must be set after bind.
    const int fanout_arg =
        (local_.port & 0xffff) | (PACKET_FANOUT_HASH << 16);
    if (::setsockopt(rx_fd_.get(), SOL_PACKET, PACKET_FANOUT, &fanout_arg,
                     sizeof(fanout_arg)) != 0) {
      return Errno("afpacket: PACKET_FANOUT", ErrorCode::kUnsupported);
    }
  }

  // --- tx: TPACKET_V2 ring (V3 tx is not supported everywhere) ---
  if (ap.tx_frame_bytes < 256 || (ap.tx_frame_bytes & (ap.tx_frame_bytes - 1)) != 0 ||
      ap.tx_frame_count == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "afpacket: tx_frame_bytes must be a power of two >= 256");
  }
  tx_fd_ = Fd(::socket(AF_PACKET, SOCK_RAW | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!tx_fd_.valid()) return Errno("socket(AF_PACKET tx)");
  version = TPACKET_V2;
  if (::setsockopt(tx_fd_.get(), SOL_PACKET, PACKET_VERSION, &version,
                   sizeof(version)) != 0) {
    return Errno("afpacket: TPACKET_V2 unavailable", ErrorCode::kUnsupported);
  }
  tx_frame_bytes_ = ap.tx_frame_bytes;
  tx_frame_count_ = ap.tx_frame_count;
  const size_t page = static_cast<size_t>(::getpagesize());
  size_t tx_block_bytes = std::max(tx_frame_bytes_, page);
  const size_t frames_per_block = tx_block_bytes / tx_frame_bytes_;
  const size_t tx_blocks =
      (tx_frame_count_ + frames_per_block - 1) / frames_per_block;
  tx_frame_count_ = tx_blocks * frames_per_block;
  tpacket_req req{};
  req.tp_block_size = static_cast<unsigned>(tx_block_bytes);
  req.tp_block_nr = static_cast<unsigned>(tx_blocks);
  req.tp_frame_size = static_cast<unsigned>(tx_frame_bytes_);
  req.tp_frame_nr = static_cast<unsigned>(tx_frame_count_);
  if (::setsockopt(tx_fd_.get(), SOL_PACKET, PACKET_TX_RING, &req,
                   sizeof(req)) != 0) {
    return Errno("afpacket: PACKET_TX_RING(V2)", ErrorCode::kUnsupported);
  }
  tx_map_len_ = tx_block_bytes * tx_blocks;
  map = ::mmap(nullptr, tx_map_len_, PROT_READ | PROT_WRITE, MAP_SHARED,
               tx_fd_.get(), 0);
  if (map == MAP_FAILED) {
    tx_map_len_ = 0;
    return Errno("mmap(tx ring)");
  }
  tx_map_ = static_cast<uint8_t*>(map);
  tx_data_offset_ = TPACKET_ALIGN(sizeof(tpacket2_hdr));
  tx_slot_capacity_ = tx_frame_bytes_ - tx_data_offset_ - kUdpFrameOverhead;
  {
    // Best-effort: skip the qdisc on tx (we accept the drops).
    int one = 1;
    ::setsockopt(tx_fd_.get(), SOL_PACKET, PACKET_QDISC_BYPASS, &one,
                 sizeof(one));
  }
  // A drop-all filter plus a protocol-0 bind: the tx socket can transmit
  // (the device comes from the bind) but never receives a frame.
  LDP_RETURN_IF_ERROR(AttachDropAllFilter(tx_fd_.get(), "tx filter"));
  sockaddr_ll tx_sll{};
  tx_sll.sll_family = AF_PACKET;
  tx_sll.sll_protocol = 0;
  tx_sll.sll_ifindex = static_cast<int>(ifindex_);
  if (::bind(tx_fd_.get(), reinterpret_cast<sockaddr*>(&tx_sll),
             sizeof(tx_sll)) != 0) {
    return Errno("bind(AF_PACKET tx)");
  }

  // --- oversize fallback: plain packet socket, frame staged in a buffer ---
  oversize_fd_ =
      Fd(::socket(AF_PACKET, SOCK_RAW | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!oversize_fd_.valid()) {
    return Errno("socket(AF_PACKET oversize)");
  }
  LDP_RETURN_IF_ERROR(AttachDropAllFilter(oversize_fd_.get(), "oversize filter"));

  AfPacketPath* raw = this;
  LDP_RETURN_IF_ERROR(loop_.Add(rx_fd_.get(), /*want_read=*/true,
                                /*want_write=*/false,
                                [raw](IoEvents) { raw->OnRxReadable(); }));
  return Status::Ok();
}

AfPacketPath::~AfPacketPath() {
  if (rx_fd_.valid()) loop_.Remove(rx_fd_.get());
  if (rx_map_ != nullptr) ::munmap(rx_map_, rx_map_len_);
  if (tx_map_ != nullptr) ::munmap(tx_map_, tx_map_len_);
}

void AfPacketPath::OnRxReadable() {
  size_t blocks = 0;
  size_t frames = 0;
  while (blocks < kMaxBlocksPerWakeup) {
    uint8_t* block = rx_map_ + rx_block_idx_ * rx_block_bytes_;
    auto* desc = reinterpret_cast<tpacket_block_desc*>(block);
    const uint32_t status =
        __atomic_load_n(&desc->hdr.bh1.block_status, __ATOMIC_ACQUIRE);
    if ((status & TP_STATUS_USER) == 0) break;
    ++blocks;
    frames += ConsumeBlock(block);
    // The batch handler saw every span pointing into this block; only now
    // may the kernel overwrite it.
    __atomic_store_n(&desc->hdr.bh1.block_status, TP_STATUS_KERNEL,
                     __ATOMIC_RELEASE);
    rx_block_idx_ = (rx_block_idx_ + 1) % rx_block_count_;
  }
  if (blocks > 0) {
    if (metrics_.rx_blocks_per_wakeup != nullptr) {
      metrics_.rx_blocks_per_wakeup->Record(blocks);
    }
    if (metrics_.rx_frames_per_wakeup != nullptr) {
      metrics_.rx_frames_per_wakeup->Record(frames);
    }
    PollKernelDrops();
  }
}

size_t AfPacketPath::ConsumeBlock(uint8_t* block) {
  auto* desc = reinterpret_cast<tpacket_block_desc*>(block);
  const uint32_t num_frames = desc->hdr.bh1.num_pkts;
  uint8_t* at = block + desc->hdr.bh1.offset_to_first_pkt;
  for (uint32_t i = 0; i < num_frames; ++i) {
    auto* hdr = reinterpret_cast<tpacket3_hdr*>(at);
    // Old-kernel fallback for PACKET_IGNORE_OUTGOING: the sockaddr_ll
    // stored after the header types our own transmissions as
    // PACKET_OUTGOING; serving them back would double every reply.
    const auto* sll = reinterpret_cast<const sockaddr_ll*>(
        at + TPACKET_ALIGN(sizeof(tpacket3_hdr)));
    if (sll->sll_pkttype != PACKET_OUTGOING) {
      ParseOptions parse_options;
      // Loopback-originated frames carry CHECKSUM_PARTIAL: the UDP field
      // holds only the pseudo-header sum the NIC would have finished.
      parse_options.verify_udp_checksum =
          (hdr->tp_status & TP_STATUS_CSUMNOTREADY) == 0;
      auto parsed = ParseUdpFrame({at + hdr->tp_mac, hdr->tp_snaplen},
                                  parse_options);
      if (parsed.ok()) {
        LearnMac(parsed->src.addr, parsed->src_mac);
        if (metrics_.rx_frames != nullptr) metrics_.rx_frames->Add();
        if (metrics_.rx_bytes != nullptr) {
          metrics_.rx_bytes->Add(parsed->payload.size());
        }
        rx_items_[n_rx_items_++] =
            RecvItem{parsed->payload, parsed->src, parsed->dst};
        if (n_rx_items_ == kBatchSize) FlushRxBatch();
      } else if (metrics_.rx_parse_errors != nullptr) {
        metrics_.rx_parse_errors->Add();
      }
    }
    at += hdr->tp_next_offset;
  }
  FlushRxBatch();
  return num_frames;
}

void AfPacketPath::FlushRxBatch() {
  if (n_rx_items_ == 0) return;
  const size_t n = n_rx_items_;
  n_rx_items_ = 0;
  on_batch_({rx_items_.data(), n});
}

void AfPacketPath::PollKernelDrops() {
  if (metrics_.rx_kernel_drops == nullptr) return;
  tpacket_stats_v3 kstats{};
  socklen_t len = sizeof(kstats);
  // Reading resets the kernel's counters, so accumulate into ours.
  if (::getsockopt(rx_fd_.get(), SOL_PACKET, PACKET_STATISTICS, &kstats,
                   &len) == 0 &&
      kstats.tp_drops > 0) {
    metrics_.rx_kernel_drops->Add(kstats.tp_drops);
  }
}

void AfPacketPath::LearnMac(IpAddress ip, const MacAddr& mac) {
  MacEntry& entry = mac_table_[(ip.value() * 2654435761u) >> 24];
  entry.ip = ip.value();
  entry.mac = mac;
  entry.valid = true;
}

MacAddr AfPacketPath::ResolveMac(IpAddress ip) {
  const MacEntry& entry = mac_table_[(ip.value() * 2654435761u) >> 24];
  if (entry.valid && entry.ip == ip.value()) return entry.mac;
  if (metrics_.mac_fallbacks != nullptr) metrics_.mac_fallbacks->Add();
  if (have_peer_mac_) return peer_mac_;
  // Loopback compares the (all-zero) device address, so zeros are the
  // "unicast to this host" form there; elsewhere broadcast at least gets
  // the frame onto the segment.
  return is_loopback_ ? MacAddr{} : MacAddr::Broadcast();
}

bool AfPacketPath::EmitFrame(std::span<const uint8_t> payload, Endpoint to,
                             Endpoint from) {
  // A default `from` sends from the bound endpoint; a wildcard-bound ring
  // (proxy) must name a concrete source per datagram.
  if (from == Endpoint{}) from = local_;
  const MacAddr dst_mac = ResolveMac(to.addr);
  if (payload.size() > tx_slot_capacity_) {
    return EmitOversize(payload, to, from, dst_mac);
  }
  auto* slot =
      reinterpret_cast<tpacket2_hdr*>(tx_map_ + tx_idx_ * tx_frame_bytes_);
  uint32_t status = __atomic_load_n(&slot->tp_status, __ATOMIC_ACQUIRE);
  if (status & TP_STATUS_WRONG_FORMAT) {
    // The kernel refused this slot's previous frame; reclaim it.
    if (metrics_.tx_wrong_format != nullptr) metrics_.tx_wrong_format->Add();
    status = TP_STATUS_AVAILABLE;
  }
  if (status != TP_STATUS_AVAILABLE) {
    // Ring full: hand pending frames over and retry this slot once — on a
    // fast interface the kernel may already have drained it.
    Kick();
    status = __atomic_load_n(&slot->tp_status, __ATOMIC_ACQUIRE);
    if (status != TP_STATUS_AVAILABLE) {
      if (metrics_.tx_ring_full != nullptr) metrics_.tx_ring_full->Add();
      return false;
    }
  }
  UdpFrameSpec spec;
  spec.src_mac = if_mac_;
  spec.dst_mac = dst_mac;
  spec.src = from;
  spec.dst = to;
  spec.ip_id = ip_id_++;
  uint8_t* data = reinterpret_cast<uint8_t*>(slot) + tx_data_offset_;
  auto frame_len = BuildUdpFrame(
      {data, tx_frame_bytes_ - tx_data_offset_}, spec, payload);
  if (!frame_len.ok()) return false;  // cannot happen: capacity checked above
  slot->tp_len = static_cast<uint32_t>(*frame_len);
  __atomic_store_n(&slot->tp_status, TP_STATUS_SEND_REQUEST, __ATOMIC_RELEASE);
  tx_idx_ = (tx_idx_ + 1) % tx_frame_count_;
  tx_dirty_ = true;
  if (metrics_.tx_frames != nullptr) metrics_.tx_frames->Add();
  if (metrics_.tx_bytes != nullptr) metrics_.tx_bytes->Add(payload.size());
  return true;
}

bool AfPacketPath::EmitOversize(std::span<const uint8_t> payload, Endpoint to,
                                Endpoint from, const MacAddr& dst_mac) {
  if (metrics_.tx_oversize != nullptr) metrics_.tx_oversize->Add();
  oversize_buf_.resize(kUdpFrameOverhead + payload.size());
  UdpFrameSpec spec;
  spec.src_mac = if_mac_;
  spec.dst_mac = dst_mac;
  spec.src = from;
  spec.dst = to;
  spec.ip_id = ip_id_++;
  auto frame_len = BuildUdpFrame(oversize_buf_, spec, payload);
  if (!frame_len.ok()) return false;  // payload beyond IPv4 total length
  sockaddr_ll sll{};
  sll.sll_family = AF_PACKET;
  sll.sll_ifindex = static_cast<int>(ifindex_);
  sll.sll_halen = 6;
  std::memcpy(sll.sll_addr, dst_mac.bytes.data(), 6);
  const ssize_t sent =
      ::sendto(oversize_fd_.get(), oversize_buf_.data(), *frame_len,
               MSG_DONTWAIT, reinterpret_cast<sockaddr*>(&sll), sizeof(sll));
  if (sent < 0) return false;
  if (metrics_.tx_frames != nullptr) metrics_.tx_frames->Add();
  if (metrics_.tx_bytes != nullptr) metrics_.tx_bytes->Add(payload.size());
  return true;
}

void AfPacketPath::Kick() {
  if (!tx_dirty_) return;
  tx_dirty_ = false;
  if (metrics_.tx_kicks != nullptr) metrics_.tx_kicks->Add();
  if (::send(tx_fd_.get(), nullptr, 0, MSG_DONTWAIT) < 0) {
    // EAGAIN/ENOBUFS leave frames queued as SEND_REQUEST; the next kick
    // retries them. Anything else is a real transmit-path error.
    if (errno == EAGAIN || errno == ENOBUFS || errno == EWOULDBLOCK) {
      tx_dirty_ = true;
    } else if (metrics_.tx_kick_errors != nullptr) {
      metrics_.tx_kick_errors->Add();
    }
  }
}

Status AfPacketPath::SendTo(std::span<const uint8_t> payload, Endpoint to) {
  const bool emitted = EmitFrame(payload, to, Endpoint{});
  Kick();
  if (!emitted) {
    return Error(ErrorCode::kWouldBlock, "afpacket: tx ring full");
  }
  return Status::Ok();
}

size_t AfPacketPath::SendBatch(std::span<const SendItem> batch) {
  size_t accepted = 0;
  for (const SendItem& item : batch) {
    if (!EmitFrame(item.payload, item.to, item.from)) break;
    ++accepted;
  }
  Kick();
  return accepted;
}

Status ProbeAfPacket(const AfPacketOptions& options) {
  if (if_nametoindex(options.interface.c_str()) == 0) {
    return Error(ErrorCode::kNotFound,
                 "afpacket: interface '" + options.interface +
                     "' not found (set --afpacket-if)");
  }
  if (!options.peer_mac.empty()) {
    auto mac = MacAddr::Parse(options.peer_mac);
    if (!mac.ok()) return mac.error();
  }
  Fd rx(::socket(AF_PACKET, SOCK_RAW | SOCK_CLOEXEC, 0));
  if (!rx.valid()) {
    if (errno == EPERM || errno == EACCES) {
      return Error(ErrorCode::kUnsupported,
                   "afpacket: socket(AF_PACKET) denied — needs CAP_NET_RAW "
                   "(run as root or `setcap cap_net_raw+ep`), or use "
                   "--datapath=epoll");
    }
    return Errno("socket(AF_PACKET)");
  }
  int version = TPACKET_V3;
  if (::setsockopt(rx.get(), SOL_PACKET, PACKET_VERSION, &version,
                   sizeof(version)) != 0) {
    return Errno("afpacket: kernel lacks TPACKET_V3", ErrorCode::kUnsupported);
  }
  tpacket_req3 req3{};
  req3.tp_block_size = static_cast<unsigned>(::getpagesize());
  req3.tp_block_nr = 2;
  req3.tp_frame_size = 2048;
  req3.tp_frame_nr = req3.tp_block_size / 2048 * 2;
  req3.tp_retire_blk_tov = 10;
  if (::setsockopt(rx.get(), SOL_PACKET, PACKET_RX_RING, &req3,
                   sizeof(req3)) != 0) {
    return Errno("afpacket: TPACKET_V3 rx ring rejected",
                 ErrorCode::kUnsupported);
  }
  Fd tx(::socket(AF_PACKET, SOCK_RAW | SOCK_CLOEXEC, 0));
  if (!tx.valid()) return Errno("socket(AF_PACKET tx)");
  version = TPACKET_V2;
  if (::setsockopt(tx.get(), SOL_PACKET, PACKET_VERSION, &version,
                   sizeof(version)) != 0) {
    return Errno("afpacket: kernel lacks TPACKET_V2", ErrorCode::kUnsupported);
  }
  tpacket_req req{};
  req.tp_block_size = static_cast<unsigned>(::getpagesize());
  req.tp_block_nr = 2;
  req.tp_frame_size = 2048;
  req.tp_frame_nr = req.tp_block_size / 2048 * 2;
  if (::setsockopt(tx.get(), SOL_PACKET, PACKET_TX_RING, &req, sizeof(req)) !=
      0) {
    return Errno("afpacket: TPACKET_V2 tx ring rejected",
                 ErrorCode::kUnsupported);
  }
  return Status::Ok();
}

}  // namespace ldp::net
