#include "stream/tuple.h"

#include <sstream>

#include "common/hash.h"

namespace typhoon::stream {

namespace {
enum class ValueTag : std::uint8_t {
  kI64 = 1,
  kF64 = 2,
  kStr = 3,
  kBytes = 4,
  kBool = 5,
};

// Shared decode loop over a byte span; `Borrow` selects owned vs view
// storage for long string/bytes values. Each Value is constructed in its
// tuple slot, and each field pays one bounds check for its fixed part (plus
// one for a string/bytes body).
template <typename T>
T Load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <bool Borrow>
bool DecodeBody(std::span<const std::uint8_t> in, Tuple& t) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  if (end - p < 2) return false;
  const auto n = Load<std::uint16_t>(p);
  p += 2;
  t.clear();
  t.reserve(n);
  Tuple::Values& vals = t.values();
  for (std::uint16_t i = 0; i < n; ++i) {
    if (p == end) return false;
    const auto tag = static_cast<ValueTag>(*p++);
    const std::ptrdiff_t left = end - p;
    switch (tag) {
      case ValueTag::kI64:
        if (left < 8) return false;
        vals.emplace_back(Load<std::int64_t>(p));
        p += 8;
        break;
      case ValueTag::kF64:
        if (left < 8) return false;
        vals.emplace_back(Load<double>(p));
        p += 8;
        break;
      case ValueTag::kBool:
        if (left < 1) return false;
        vals.emplace_back(*p != 0);
        p += 1;
        break;
      case ValueTag::kStr:
      case ValueTag::kBytes: {
        if (left < 4) return false;
        const auto len = Load<std::uint32_t>(p);
        p += 4;
        if (static_cast<std::size_t>(end - p) < len) return false;
        const std::span<const std::uint8_t> body(p, len);
        p += len;
        const Value::Kind kind = tag == ValueTag::kStr ? Value::Kind::kStr
                                                       : Value::Kind::kBytes;
        // Short values fit inline anyway; only long ones truly borrow.
        if (Borrow && len > Value::kInlineCap) {
          vals.emplace_back(Value::Borrow{}, kind, body);
        } else {
          vals.emplace_back(kind, body);
        }
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

template <bool Borrow>
bool DeserializeTyphoonImpl(std::span<const std::uint8_t> data, Tuple& t,
                            std::uint64_t& root_id, std::uint64_t& edge_id) {
  if (data.size() < 16) return false;
  root_id = Load<std::uint64_t>(data.data());
  edge_id = Load<std::uint64_t>(data.data() + 8);
  return DecodeBody<Borrow>(data.subspan(16), t);
}
}  // namespace

std::uint64_t Tuple::hash_fields(
    const std::vector<std::uint32_t>& indices) const {
  std::uint64_t h = common::kFnvOffset;
  for (std::uint32_t i : indices) {
    if (i >= vals_.size()) continue;
    const Value& v = vals_[i];
    switch (v.kind()) {
      case Value::Kind::kI64:
        h = common::HashCombine(h, static_cast<std::uint64_t>(v.as_i64()));
        break;
      case Value::Kind::kF64: {
        const double x = v.as_f64();
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof x);
        std::memcpy(&bits, &x, sizeof bits);
        h = common::HashCombine(h, bits);
        break;
      }
      case Value::Kind::kStr:
        h = common::HashCombine(h, common::Fnv1a(v.as_str()));
        break;
      case Value::Kind::kBytes:
        h = common::HashCombine(h, common::Fnv1a(v.as_bytes()));
        break;
      case Value::Kind::kBool:
        h = common::HashCombine(h, v.as_bool() ? 1u : 0u);
        break;
    }
  }
  return h;
}

std::string Tuple::str_repr() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < vals_.size(); ++i) {
    if (i) os << ", ";
    const Value& v = vals_[i];
    switch (v.kind()) {
      case Value::Kind::kI64:
        os << v.as_i64();
        break;
      case Value::Kind::kF64:
        os << v.as_f64();
        break;
      case Value::Kind::kStr:
        os << '"' << v.as_str() << '"';
        break;
      case Value::Kind::kBytes:
        os << "<" << v.as_bytes().size() << "B>";
        break;
      case Value::Kind::kBool:
        os << (v.as_bool() ? "true" : "false");
        break;
    }
  }
  os << ")";
  return os.str();
}

void EncodeTupleBody(const Tuple& t, common::BufWriter& w) {
  w.u16(static_cast<std::uint16_t>(t.size()));
  for (const Value& v : t.values()) {
    switch (v.kind()) {
      case Value::Kind::kI64:
        w.u8(static_cast<std::uint8_t>(ValueTag::kI64));
        w.i64(v.as_i64());
        break;
      case Value::Kind::kF64:
        w.u8(static_cast<std::uint8_t>(ValueTag::kF64));
        w.f64(v.as_f64());
        break;
      case Value::Kind::kStr:
        w.u8(static_cast<std::uint8_t>(ValueTag::kStr));
        w.str(v.as_str());
        break;
      case Value::Kind::kBytes:
        w.u8(static_cast<std::uint8_t>(ValueTag::kBytes));
        w.bytes(v.as_bytes());
        break;
      case Value::Kind::kBool:
        w.u8(static_cast<std::uint8_t>(ValueTag::kBool));
        w.u8(v.as_bool() ? 1 : 0);
        break;
    }
  }
}

common::Bytes SerializeTyphoon(const Tuple& t, std::uint64_t root_id,
                               std::uint64_t edge_id) {
  common::Bytes out;
  SerializeTyphoonInto(t, root_id, edge_id, out);
  return out;
}

void SerializeTyphoonInto(const Tuple& t, std::uint64_t root_id,
                          std::uint64_t edge_id, common::Bytes& out) {
  out.clear();
  common::BufWriter w(out);
  w.u64(root_id);
  w.u64(edge_id);
  EncodeTupleBody(t, w);
}

bool DeserializeTyphoon(std::span<const std::uint8_t> data, Tuple& t,
                        std::uint64_t& root_id, std::uint64_t& edge_id) {
  return DeserializeTyphoonImpl<false>(data, t, root_id, edge_id);
}

bool DeserializeTyphoonBorrowed(std::span<const std::uint8_t> data, Tuple& t,
                                std::uint64_t& root_id,
                                std::uint64_t& edge_id) {
  return DeserializeTyphoonImpl<true>(data, t, root_id, edge_id);
}

common::Bytes SerializeStorm(const Tuple& t, const StormEnvelope& env) {
  common::Bytes out;
  common::BufWriter w(out);
  w.u64(env.src);
  w.u64(env.dst);
  w.u16(env.stream);
  w.u64(env.root_id);
  w.u64(env.edge_id);
  EncodeTupleBody(t, w);
  return out;
}

bool DeserializeStorm(std::span<const std::uint8_t> data, StormEnvelope& env) {
  common::BufReader r(data);
  std::span<const std::uint8_t> body;
  return r.u64(env.src) && r.u64(env.dst) && r.u16(env.stream) &&
         r.u64(env.root_id) && r.u64(env.edge_id) &&
         r.view(r.remaining(), body) && DecodeBody<false>(body, env.tuple);
}

}  // namespace typhoon::stream
