#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void SleepMs(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0)));
}

// ---- histogram ---------------------------------------------------------

int Histogram::Bucket(std::int64_t v) {
  if (v < 2 * kSub) return v < 0 ? 0 : static_cast<int>(v);
  const int msb = 63 - __builtin_clzll(static_cast<std::uint64_t>(v));
  const int shift = msb - kSubBits;
  const int b = shift * kSub + static_cast<int>(v >> shift);
  return std::min(b, kBuckets - 1);
}

double Histogram::Midpoint(int bucket) {
  if (bucket < 2 * kSub) return bucket;
  const int shift = bucket / kSub - 1;
  const double low =
      static_cast<double>(static_cast<std::uint64_t>(bucket - shift * kSub)
                          << shift);
  return low + std::ldexp(1.0, shift) / 2.0;
}

HistSnap Histogram::snapshot() const {
  HistSnap s;
  s.counts.resize(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::uint64_t HistSnap::total() const {
  std::uint64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

double HistSnap::quantile(double q) const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return Histogram::Midpoint(static_cast<int>(i));
    }
  }
  return Histogram::Midpoint(static_cast<int>(counts.size()) - 1);
}

HistSnap& HistSnap::operator+=(const HistSnap& o) {
  if (counts.size() < o.counts.size()) counts.resize(o.counts.size());
  for (std::size_t i = 0; i < o.counts.size(); ++i) counts[i] += o.counts[i];
  return *this;
}

HistSnap& HistSnap::operator-=(const HistSnap& o) {
  if (counts.size() < o.counts.size()) counts.resize(o.counts.size());
  for (std::size_t i = 0; i < o.counts.size(); ++i) counts[i] -= o.counts[i];
  return *this;
}

Histogram* HistGroup::add() {
  std::lock_guard lk(mu_);
  hists_.push_back(std::make_unique<Histogram>());
  return hists_.back().get();
}

HistSnap HistGroup::snapshot() const {
  std::lock_guard lk(mu_);
  HistSnap s;
  s.counts.resize(Histogram::kBuckets);
  for (const auto& h : hists_) s += h->snapshot();
  return s;
}

// ---- spans ---------------------------------------------------------------

Tracer::Buffer* Tracer::buffer(const std::string& thread) {
  std::lock_guard lk(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->thread_ = thread;
  buffers_.back()->spans_.reserve(on() ? 4096 : 0);
  return buffers_.back().get();
}

std::size_t Tracer::write(const std::string& path) const {
  std::lock_guard lk(mu_);
  std::ofstream out(path);
  if (!out) return 0;
  std::size_t n = 0;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      out << "{\"name\":\"" << s.name << "\",\"parent\":\""
          << (s.parent != nullptr ? s.parent : "") << "\",\"id\":" << s.id
          << ",\"thread\":\"" << b->thread_ << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
      ++n;
    }
    if (b->dropped_ > 0) {
      out << "{\"name\":\"dropped\",\"thread\":\"" << b->thread_
          << "\",\"count\":" << b->dropped_ << "}\n";
    }
  }
  return n;
}

Tracer& GlobalTracer() {
  static Tracer t;
  return t;
}

// ---- process probes -------------------------------------------------------

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PidCpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto rp = line.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream is(line.substr(rp + 2));
  std::string f;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && (is >> f); ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (utime + stime) * 1000.0 / hz;
}

namespace {

std::int64_t StatusField(int pid, const std::string& key) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream is(line.substr(key.size() + 1));
      std::int64_t v = 0;
      is >> v;
      return v;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(StatusField(0, "VmHWM")) / 1024.0;
}

std::int64_t ContextSwitches(int pid) {
  // Per-thread counters: /proc/<pid>/status covers the main thread only.
  const std::string tasks = (pid == 0 ? std::string("/proc/self")
                                      : "/proc/" + std::to_string(pid)) +
                            "/task";
  std::int64_t total = 0;
  std::error_code ec;
  for (const auto& t : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(t.path() / "status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("ctxt_switches:") != std::string::npos) {
        total += std::stoll(line.substr(line.find(':') + 1));
      }
    }
  }
  return total;
}

std::pair<std::uint64_t, std::uint64_t> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

unsigned HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- output ---------------------------------------------------------------

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

JsonObj& JsonObj::num(const std::string& k, double v) {
  kv_.emplace_back(k, Num(v));
  return *this;
}
JsonObj& JsonObj::integer(const std::string& k, std::int64_t v) {
  kv_.emplace_back(k, std::to_string(v));
  return *this;
}
JsonObj& JsonObj::boolean(const std::string& k, bool v) {
  kv_.emplace_back(k, v ? "true" : "false");
  return *this;
}
JsonObj& JsonObj::str(const std::string& k, const std::string& v) {
  kv_.emplace_back(k, Quote(v));
  return *this;
}
JsonObj& JsonObj::raw(const std::string& k, const std::string& json) {
  kv_.emplace_back(k, json);
  return *this;
}

std::string JsonObj::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(kv_[i].first) + ": " + kv_[i].second;
  }
  return out + "}";
}

std::string JsonNumArray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(v[i]);
  }
  return out + "]";
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
