// Tuple — the unit of data flowing through a topology, and its wire codec.
//
// A tuple is a list of dynamically typed values. Serialization is self-
// describing (tag byte per value). Two envelope formats exist, mirroring the
// paper's key performance distinction (Sec 2 "Data tuple transfer"):
//
//  * Storm envelope: full metadata (src, dst, stream, anchors) *inside* the
//    serialized blob — so a broadcast to N destinations requires N distinct
//    serializations, "each copy carries distinct metadata".
//  * Typhoon envelope: src/dst/stream live in the packet and chunk headers;
//    the payload is destination-independent, so one serialization serves any
//    number of network-layer replicas.
//
// Value is a hand-rolled tagged union rather than std::variant so the hot
// receive path can decode without heap traffic: short strings/byte blobs
// (≤ kInlineCap) live inline in the Value, longer ones either own a heap
// block or — in borrowed mode — alias the packet payload they were decoded
// from (the caller pins the packet via a PacketPin keepalive). Copying a
// Value always materializes borrowed data into owned storage, so any tuple
// a bolt stores past the execute() call is self-contained. Tuple keeps its
// first 4 values inline (SmallVector), so a typical word-count tuple is
// decoded with zero allocations.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <variant>  // std::bad_variant_access for wrong-kind access
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/small_vector.h"

namespace typhoon::stream {

class Value {
 public:
  enum class Kind : std::uint8_t { kI64, kF64, kBool, kStr, kBytes };

  // Strings/bytes at most this long are stored inside the Value itself.
  static constexpr std::size_t kInlineCap = 24;

  Value() { rep_.i = 0; }
  Value(std::int64_t v) : kind_(Kind::kI64) { rep_.i = v; }
  Value(int v) : Value(static_cast<std::int64_t>(v)) {}
  Value(unsigned v) : Value(static_cast<std::int64_t>(v)) {}
  Value(long long v) : Value(static_cast<std::int64_t>(v)) {}
  Value(double v) : kind_(Kind::kF64) { rep_.f = v; }
  Value(bool v) : kind_(Kind::kBool) { rep_.b = v; }
  Value(const char* s) : Value(std::string_view(s)) {}
  Value(std::string_view s) { set_owned(Kind::kStr, AsBytes(s)); }
  Value(const std::string& s) : Value(std::string_view(s)) {}
  Value(const common::Bytes& b)
      : Value(std::span<const std::uint8_t>(b)) {}
  Value(std::span<const std::uint8_t> b) { set_owned(Kind::kBytes, b); }

  // A string or bytes value of kind `k`, built in place by the decoder.
  Value(Kind k, std::span<const std::uint8_t> s) { set_owned(k, s); }
  // Zero-copy variant: the Value aliases `s` and is valid only while the
  // backing buffer outlives it. Copying materializes to owned storage.
  struct Borrow {};
  Value(Borrow, Kind k, std::span<const std::uint8_t> s) { set_view(k, s); }

  Value(const Value& o) { copy_from(o); }
  Value(Value&& o) noexcept { steal_from(o); }
  Value& operator=(const Value& o) {
    if (this != &o) {
      destroy();
      copy_from(o);
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      destroy();
      steal_from(o);
    }
    return *this;
  }
  ~Value() { destroy(); }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_i64() const { return kind_ == Kind::kI64; }
  [[nodiscard]] bool is_f64() const { return kind_ == Kind::kF64; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_str() const { return kind_ == Kind::kStr; }
  [[nodiscard]] bool is_bytes() const { return kind_ == Kind::kBytes; }
  // True when this Value aliases an external buffer (borrowed decode).
  [[nodiscard]] bool is_view() const { return mode_ == Mode::kView; }

  // Wrong-kind access throws std::bad_variant_access, matching the error
  // contract of the std::variant implementation this class replaced.
  [[nodiscard]] std::int64_t as_i64() const {
    require(Kind::kI64);
    return rep_.i;
  }
  [[nodiscard]] double as_f64() const {
    require(Kind::kF64);
    return rep_.f;
  }
  [[nodiscard]] bool as_bool() const {
    require(Kind::kBool);
    return rep_.b;
  }
  [[nodiscard]] std::string_view as_str() const {
    require(Kind::kStr);
    const auto s = data_span();
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> as_bytes() const {
    require(Kind::kBytes);
    return data_span();
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kI64:
        return a.rep_.i == b.rep_.i;
      case Kind::kF64:
        return a.rep_.f == b.rep_.f;
      case Kind::kBool:
        return a.rep_.b == b.rep_.b;
      case Kind::kStr:
      case Kind::kBytes: {
        const auto sa = a.data_span();
        const auto sb = b.data_span();
        return sa.size() == sb.size() &&
               (sa.empty() ||
                std::memcmp(sa.data(), sb.data(), sa.size()) == 0);
      }
    }
    return false;
  }

 private:
  enum class Mode : std::uint8_t { kScalar, kInline, kHeap, kView };

  static std::span<const std::uint8_t> AsBytes(std::string_view s) {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
  }

  void require(Kind k) const {
    if (kind_ != k) throw std::bad_variant_access();
  }

  [[nodiscard]] std::span<const std::uint8_t> data_span() const {
    switch (mode_) {
      case Mode::kInline:
        return {rep_.inl, inline_len_};
      case Mode::kHeap:
        return {rep_.heap.ptr, rep_.heap.len};
      case Mode::kView:
        return {rep_.view.ptr, rep_.view.len};
      case Mode::kScalar:
        break;
    }
    return {};
  }

  void set_owned(Kind k, std::span<const std::uint8_t> data) {
    kind_ = k;
    if (data.size() <= kInlineCap) {
      mode_ = Mode::kInline;
      inline_len_ = static_cast<std::uint8_t>(data.size());
      if (!data.empty()) std::memcpy(rep_.inl, data.data(), data.size());
    } else {
      mode_ = Mode::kHeap;
      auto* p = new std::uint8_t[data.size()];
      std::memcpy(p, data.data(), data.size());
      rep_.heap = {p, static_cast<std::uint32_t>(data.size())};
    }
  }

  void set_view(Kind k, std::span<const std::uint8_t> data) {
    kind_ = k;
    mode_ = Mode::kView;
    rep_.view = {data.data(), static_cast<std::uint32_t>(data.size())};
  }

  void copy_from(const Value& o) {
    kind_ = o.kind_;
    if (o.mode_ == Mode::kScalar) {
      mode_ = Mode::kScalar;
      rep_ = o.rep_;
    } else {
      // Copies own their data — a borrowed source materializes here, so
      // stored copies never dangle past the backing packet.
      set_owned(o.kind_, o.data_span());
    }
  }

  void steal_from(Value& o) noexcept {
    kind_ = o.kind_;
    mode_ = o.mode_;
    inline_len_ = o.inline_len_;
    rep_ = o.rep_;
    // Source keeps its kind but loses heap ownership.
    o.mode_ = Mode::kScalar;
    o.rep_.i = 0;
  }

  void destroy() {
    if (mode_ == Mode::kHeap) delete[] rep_.heap.ptr;
    mode_ = Mode::kScalar;
  }

  struct HeapRep {
    std::uint8_t* ptr;
    std::uint32_t len;
  };
  struct ViewRep {
    const std::uint8_t* ptr;
    std::uint32_t len;
  };
  union Rep {
    std::int64_t i;
    double f;
    bool b;
    HeapRep heap;
    ViewRep view;
    std::uint8_t inl[kInlineCap];
  };

  Kind kind_ = Kind::kI64;
  Mode mode_ = Mode::kScalar;
  std::uint8_t inline_len_ = 0;
  Rep rep_;
};

class Tuple {
 public:
  // Typical tuples have ≤4 fields; those live inline in the Tuple.
  using Values = common::SmallVector<Value, 4>;

  Tuple() = default;
  Tuple(std::initializer_list<Value> vals) : vals_(vals) {}
  explicit Tuple(std::vector<Value> vals) {
    vals_.reserve(vals.size());
    for (Value& v : vals) vals_.push_back(std::move(v));
  }

  [[nodiscard]] std::size_t size() const { return vals_.size(); }
  [[nodiscard]] bool empty() const { return vals_.empty(); }

  void push(Value v) { vals_.push_back(std::move(v)); }
  void reserve(std::size_t n) { vals_.reserve(n); }
  void clear() { vals_.clear(); }

  [[nodiscard]] const Value& at(std::size_t i) const { return vals_.at(i); }
  [[nodiscard]] std::int64_t i64(std::size_t i) const {
    return vals_.at(i).as_i64();
  }
  [[nodiscard]] double f64(std::size_t i) const { return vals_.at(i).as_f64(); }
  [[nodiscard]] std::string_view str(std::size_t i) const {
    return vals_.at(i).as_str();
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t i) const {
    return vals_.at(i).as_bytes();
  }
  [[nodiscard]] bool boolean(std::size_t i) const {
    return vals_.at(i).as_bool();
  }

  [[nodiscard]] const Values& values() const { return vals_; }
  [[nodiscard]] Values& values() { return vals_; }

  // True if any value aliases an external buffer (borrowed decode); such a
  // tuple must not outlive its backing packet.
  [[nodiscard]] bool borrows() const {
    for (const Value& v : vals_) {
      if (v.is_view()) return true;
    }
    return false;
  }

  // Stable hash over the given field indices — the key-based routing hash
  // (Listing 1: hash(fieldA, fieldB) % numNextHops).
  [[nodiscard]] std::uint64_t hash_fields(
      const std::vector<std::uint32_t>& indices) const;

  [[nodiscard]] std::string str_repr() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.vals_ == b.vals_;
  }

 private:
  Values vals_;
};

// Per-tuple metadata accompanying a received tuple.
struct TupleMeta {
  WorkerId src_worker = 0;
  StreamId stream = 0;
  // Guaranteed-processing anchors (0 when unanchored).
  std::uint64_t root_id = 0;
  std::uint64_t edge_id = 0;
  // Trace context of a sampled tuple (trace_id != 0); trace_hop counts
  // topology edges traversed so far.
  std::uint64_t trace_id = 0;
  std::uint8_t trace_hop = 0;
};

// The well-known stream carrying control tuples (Table 2). Data streams use
// ids below this.
inline constexpr StreamId kControlStream = 0xfffe;
// Stream carrying acker traffic for guaranteed processing.
inline constexpr StreamId kAckStream = 0xfffd;
inline constexpr StreamId kDefaultStream = 1;

// ---- value / tuple body codec (shared by both envelopes) ----
void EncodeTupleBody(const Tuple& t, common::BufWriter& w);

// ---- Typhoon envelope: [root u64][edge u64][body] ----
common::Bytes SerializeTyphoon(const Tuple& t, std::uint64_t root_id,
                               std::uint64_t edge_id);
// Allocation-free variant: clears `out` and serializes into it, reusing its
// capacity. The transport send path calls this with a per-worker scratch
// buffer so steady-state emission performs no heap allocation per tuple.
void SerializeTyphoonInto(const Tuple& t, std::uint64_t root_id,
                          std::uint64_t edge_id, common::Bytes& out);
bool DeserializeTyphoon(std::span<const std::uint8_t> data, Tuple& t,
                        std::uint64_t& root_id, std::uint64_t& edge_id);
// Zero-copy variant of DeserializeTyphoon: string/bytes values longer than
// Value::kInlineCap alias `data` instead of copying. The caller must keep
// that buffer alive for the tuple's lifetime (a PacketPin keepalive).
bool DeserializeTyphoonBorrowed(std::span<const std::uint8_t> data, Tuple& t,
                                std::uint64_t& root_id,
                                std::uint64_t& edge_id);

// ---- Storm envelope:
//      [src u64][dst u64][stream u16][root u64][edge u64][body] ----
struct StormEnvelope {
  WorkerId src = 0;
  WorkerId dst = 0;
  StreamId stream = 0;
  std::uint64_t root_id = 0;
  std::uint64_t edge_id = 0;
  Tuple tuple;
};
common::Bytes SerializeStorm(const Tuple& t, const StormEnvelope& env);
bool DeserializeStorm(std::span<const std::uint8_t> data, StormEnvelope& env);

}  // namespace typhoon::stream
