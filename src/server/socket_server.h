// Stream-lane counters of the authoritative server (server/sharded_server.h):
// the plain-value snapshot each shard reports for its TCP and DoT
// connections.
#ifndef LDPLAYER_SERVER_SOCKET_SERVER_H
#define LDPLAYER_SERVER_SOCKET_SERVER_H

#include <cstdint>

namespace ldp::server {

// Per-shard connection-lane counters, summable across shards.
struct TcpStats {
  uint64_t accepted = 0;     // admitted connections (TCP + TLS)
  uint64_t rejected = 0;     // closed at max_tcp_connections
  uint64_t idle_closed = 0;
  uint64_t open = 0;         // current connections (gauge)
  uint64_t tls_open = 0;     // current TLS connections (gauge)
  uint64_t tls_handshakes = 0;   // completed handshakes
  uint64_t tls_resumptions = 0;  // of which session-resumed
  uint64_t tls_aborts = 0;       // failed/aborted handshakes

  TcpStats& operator+=(const TcpStats& other) {
    accepted += other.accepted;
    rejected += other.rejected;
    idle_closed += other.idle_closed;
    open += other.open;
    tls_open += other.tls_open;
    tls_handshakes += other.tls_handshakes;
    tls_resumptions += other.tls_resumptions;
    tls_aborts += other.tls_aborts;
    return *this;
  }
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_SOCKET_SERVER_H
