// Big-endian byte readers/writers used by every wire-format codec in the
// project (DNS messages, pcap records, internal binary trace streams).
#ifndef LDPLAYER_COMMON_BYTES_H
#define LDPLAYER_COMMON_BYTES_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ldp {

using Bytes = std::vector<uint8_t>;

// Sequential big-endian (network order) reader over a non-owning span.
// All accessors return kTruncated when the input runs out rather than
// reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data, size) {}

  size_t offset() const { return offset_; }
  size_t size() const { return data_.size(); }
  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

  // Random access to the underlying buffer (needed for DNS name
  // decompression, which follows pointers to earlier offsets).
  std::span<const uint8_t> buffer() const { return data_; }

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  // Copies `n` bytes out of the stream.
  Result<Bytes> ReadBytes(size_t n);
  // Zero-copy view of the next `n` bytes; invalidated with the buffer.
  Result<std::span<const uint8_t>> ReadSpan(size_t n);

  Status Skip(size_t n);
  // Repositions the cursor (used after following a compression pointer).
  Status Seek(size_t offset);

 private:
  std::span<const uint8_t> data_;
  size_t offset_ = 0;
};

// Append-only big-endian writer over an owned, growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

  size_t size() const { return buf_.size(); }
  const Bytes& data() const { return buf_; }
  Bytes Take() && { return std::move(buf_); }

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteBytes(std::span<const uint8_t> bytes);
  void WriteString(std::string_view s);

  // Overwrites 2 bytes at `offset` (used to back-patch length prefixes and
  // DNS RDLENGTH fields once the payload size is known).
  void PatchU16(size_t offset, uint16_t v);

  // Drops everything from `size` on (rolls back a partial write).
  void Truncate(size_t size) { buf_.resize(std::min(size, buf_.size())); }

 private:
  Bytes buf_;
};

// Hex rendering for logs and test failure messages: "0a 00 01 ...".
std::string HexDump(std::span<const uint8_t> data);

}  // namespace ldp

#endif  // LDPLAYER_COMMON_BYTES_H
