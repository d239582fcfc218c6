// Byte-buffer reader/writer used by tuple serialization and the packet
// codec. Little-endian fixed-width encoding; bounds-checked reads return
// false instead of throwing so the depacketizer can reject corrupt frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace typhoon::common {

using Bytes = std::vector<std::uint8_t>;

class BufWriter {
 public:
  explicit BufWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }

  // Length-prefixed byte string (u32 length).
  void bytes(std::span<const std::uint8_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    append(v.data(), v.size());
  }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    append(v.data(), v.size());
  }
  // Raw append without a length prefix.
  void raw(std::span<const std::uint8_t> v) { append(v.data(), v.size()); }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  Bytes& out_;
};

class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> in) : in_(in) {}

  bool u8(std::uint8_t& v) { return take(&v, sizeof v); }
  bool u16(std::uint16_t& v) { return take(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return take(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return take(&v, sizeof v); }
  bool i64(std::int64_t& v) { return take(&v, sizeof v); }
  bool f64(double& v) { return take(&v, sizeof v); }

  bool bytes(Bytes& v) {
    std::uint32_t n = 0;
    if (!u32(n) || remaining() < n) return false;
    v.assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
             in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  bool str(std::string& v) {
    std::uint32_t n = 0;
    if (!u32(n) || remaining() < n) return false;
    v.assign(reinterpret_cast<const char*>(in_.data()) + pos_, n);
    pos_ += n;
    return true;
  }
  // Borrowed (zero-copy) variant of the length-prefixed read: the result
  // aliases the reader's backing buffer and is only valid while the caller
  // keeps that buffer alive (e.g. via a PacketPin).
  bool bytes_view(std::span<const std::uint8_t>& v) {
    std::uint32_t n = 0;
    if (!u32(n) || remaining() < n) return false;
    v = in_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  // View over the next n bytes without copying.
  bool view(std::size_t n, std::span<const std::uint8_t>& out) {
    if (remaining() < n) return false;
    out = in_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  // The unread bytes, and a bounds-checked advance over them.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return in_.subspan(pos_);
  }
  bool skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  bool take(void* p, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

// Hex dump of a byte span, for logs and the live debugger display.
std::string HexDump(std::span<const std::uint8_t> data, std::size_t max_bytes = 64);

}  // namespace typhoon::common
