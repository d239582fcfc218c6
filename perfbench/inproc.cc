// In-process workloads: wordcount_reliable and broadcast_fanout.
//
// Both run a two-host typhoon::Cluster in Typhoon mode, driven by one paced
// spout of the benchmark's own whose tuples carry their generator-assigned
// due time. A run sets the cluster up several times (setup_s is the median),
// then keeps the last one for an open-loop rate ladder and a closed-loop
// phase, drains it and checks every output against the seed.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "stream/acker.h"
#include "stream/topology.h"
#include "typhoon/cluster.h"
#include "workloads.h"

namespace perfbench {

namespace {

using typhoon::stream::Emitter;
using typhoon::stream::Tuple;
using typhoon::stream::TupleMeta;
using typhoon::stream::Value;

constexpr int kHosts = 2;
constexpr int kSetups = 21;
constexpr int kSpoutBurst = 64;    // tuples per Spout::next at most
constexpr double kSettleS = 0.4;   // after every rate change
constexpr double kWindowS = 0.4;   // latency / rate sub-window
constexpr double kFirstResultTimeoutS = 20.0;
constexpr double kDrainTimeoutS = 15.0;

enum class Mode { kPaused, kOpen, kClosed };

// Deduplicating set of dense non-negative ids.
class SeenBits {
 public:
  bool insert(std::uint64_t i) {
    const std::size_t k = i >> 6;
    if (k >= w_.size()) w_.resize(std::max(k + 1, w_.size() * 2));
    const std::uint64_t m = 1ull << (i & 63);
    const bool fresh = (w_[k] & m) == 0;
    w_[k] |= m;
    return fresh;
  }

 private:
  std::vector<std::uint64_t> w_;
};

// What one sink worker saw; read by the checker after the drain.
struct SinkState {
  std::vector<std::atomic<std::int64_t>> counts =
      std::vector<std::atomic<std::int64_t>>(kVocab);
  std::atomic<std::int64_t> unique{0};
  std::atomic<std::int64_t> dups{0};
  std::atomic<std::int64_t> unknown{0};
};

// State shared by the benchmark's spout and bolts and the measuring thread.
struct Shared {
  std::uint32_t seed = 1;
  int replicas = 1;         // sink deliveries per tuple (broadcast fan-out)
  std::int64_t window = 0;  // closed-loop outstanding cap; 0 = max_pending

  // Generator schedule; every change bumps the generation.
  std::mutex sched_mu;
  Mode mode = Mode::kPaused;
  double period_ns = 0.0;
  std::atomic<std::uint64_t> sched_gen{0};

  std::atomic<std::int64_t> emitted{0};      // distinct tuples generated
  std::atomic<std::int64_t> acked{0};        // Spout::ack calls
  std::atomic<std::int64_t> fails{0};        // Spout::fail calls
  std::atomic<std::int64_t> outstanding{0};  // anchored or queued for replay
  std::atomic<std::int64_t> delivered{0};    // replica deliveries, all sinks
  std::atomic<bool> first_result{false};

  HistGroup latency;  // due time -> sink delivery, ns
  // Per-layer figures; recorded only while the tracer is on.
  HistGroup emit_ns, spout_gap_ns, gen_lag_ns, ack_ns, bolt_gap_ns,
      execute_ns;

  std::mutex sinks_mu;
  std::vector<std::shared_ptr<SinkState>> sinks;

  void set_schedule(Mode m, double rate) {
    {
      std::lock_guard lk(sched_mu);
      mode = m;
      period_ns = rate > 0 ? 1e9 / rate : 0.0;
    }
    sched_gen.fetch_add(1, std::memory_order_release);
  }

  std::shared_ptr<SinkState> add_sink() {
    std::lock_guard lk(sinks_mu);
    sinks.push_back(std::make_shared<SinkState>());
    return sinks.back();
  }

  // Tuples completed: acked roots (reliable) or full fan-out deliveries.
  [[nodiscard]] double completed(bool reliable) const {
    return reliable ? static_cast<double>(acked.load())
                    : static_cast<double>(delivered.load()) / replicas;
  }
};

using Shape = std::function<Tuple(std::uint64_t seq, std::int64_t due)>;

// Times a bolt's execute calls and the gaps between them (tracer on only).
class BoltTimer {
 public:
  void attach(Shared& sh) {
    gap_ = sh.bolt_gap_ns.add();
    exec_ = sh.execute_ns.add();
  }
  std::int64_t enter() {
    return GlobalTracer().on() && gap_ != nullptr ? NowNs() : 0;
  }
  void exit(std::int64_t t0) {
    if (t0 == 0) {
      last_exit_ = 0;
      return;
    }
    const std::int64_t t1 = NowNs();
    if (last_exit_ != 0) gap_->record(t0 - last_exit_);
    exec_->record(t1 - t0);
    last_exit_ = t1;
  }

 private:
  Histogram* gap_ = nullptr;
  Histogram* exec_ = nullptr;
  std::int64_t last_exit_ = 0;
};

// Paced generator: in open loop it emits every tuple whose due time has
// passed; in closed loop it emits whenever the framework (max_pending) or
// the benchmark's window lets it. Failed roots replay with their original
// due time, so a stall shows in latency.
class PacedSpout : public typhoon::stream::Spout {
 public:
  PacedSpout(std::shared_ptr<Shared> sh, Shape shape)
      : sh_(std::move(sh)), shape_(std::move(shape)) {}

  void open(const typhoon::stream::WorkerContext&) override {
    spans_ = GlobalTracer().buffer("spout");
    emit_h_ = sh_->emit_ns.add();
    gap_h_ = sh_->spout_gap_ns.add();
    lag_h_ = sh_->gen_lag_ns.add();
    ack_h_ = sh_->ack_ns.add();
  }

  bool next(Emitter& out) override {
    const std::int64_t now = NowNs();
    const bool traced = GlobalTracer().on();
    if (traced && last_next_ != 0) gap_h_->record(now - last_next_);
    last_next_ = now;
    refresh(now);

    int n = 0;
    while (!replay_.empty() && n < kSpoutBurst) {
      const auto [seq, due] = replay_.front();
      replay_.pop_front();
      emit_one(out, seq, due, traced);
      ++n;
    }
    if (mode_ == Mode::kOpen) {
      while (n < kSpoutBurst) {
        const auto due =
            start_ + static_cast<std::int64_t>(static_cast<double>(k_) *
                                               period_);
        if (due > now) break;
        ++k_;
        emit_one(out, next_seq_++, due, traced);
        ++n;
      }
    } else if (mode_ == Mode::kClosed) {
      while (n < kSpoutBurst && window_open()) {
        emit_one(out, next_seq_++, NowNs(), traced);
        ++n;
      }
    }
    sh_->emitted.store(static_cast<std::int64_t>(next_seq_),
                       std::memory_order_release);
    return n > 0;
  }

  void anchored(std::uint64_t root) override {
    pending_[root] = {cur_seq_, cur_due_, NowNs()};
    sh_->outstanding.fetch_add(1, std::memory_order_relaxed);
  }

  void ack(std::uint64_t root, std::int64_t) override {
    const auto it = pending_.find(root);
    if (it == pending_.end()) return;
    if (GlobalTracer().on()) ack_h_->record(NowNs() - it->second.emitted_ns);
    pending_.erase(it);
    sh_->acked.fetch_add(1, std::memory_order_relaxed);
    sh_->outstanding.fetch_sub(1, std::memory_order_relaxed);
  }

  void fail(std::uint64_t root) override {
    const auto it = pending_.find(root);
    if (it == pending_.end()) return;
    replay_.emplace_back(it->second.seq, it->second.due);
    pending_.erase(it);
    // Still outstanding: it moves from pending to the replay queue.
    sh_->fails.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Pending {
    std::uint64_t seq;
    std::int64_t due;
    std::int64_t emitted_ns;
  };

  void refresh(std::int64_t now) {
    const auto g = sh_->sched_gen.load(std::memory_order_acquire);
    if (g == gen_) return;
    gen_ = g;
    std::lock_guard lk(sh_->sched_mu);
    mode_ = sh_->mode;
    period_ = sh_->period_ns;
    start_ = now;
    k_ = 0;
  }

  [[nodiscard]] bool window_open() const {
    if (sh_->window == 0) return true;
    const auto done = sh_->delivered.load(std::memory_order_relaxed) /
                      sh_->replicas;
    return static_cast<std::int64_t>(next_seq_) - done < sh_->window;
  }

  void emit_one(Emitter& out, std::uint64_t seq, std::int64_t due,
                bool traced) {
    cur_seq_ = seq;
    cur_due_ = due;
    Tuple t = shape_(seq, due);
    if (!traced) {
      out.emit(std::move(t));
      return;
    }
    ScopedSpan span(spans_, "spout.emit", nullptr, seq);
    const std::int64_t t0 = NowNs();
    lag_h_->record(t0 - due);
    out.emit(std::move(t));
    emit_h_->record(NowNs() - t0);
  }

  std::shared_ptr<Shared> sh_;
  Shape shape_;
  Tracer::Buffer* spans_ = nullptr;
  Histogram* emit_h_ = nullptr;
  Histogram* gap_h_ = nullptr;
  Histogram* lag_h_ = nullptr;
  Histogram* ack_h_ = nullptr;

  std::uint64_t gen_ = 0;
  Mode mode_ = Mode::kPaused;
  double period_ = 0.0;
  std::int64_t start_ = 0;
  std::uint64_t k_ = 0;
  std::uint64_t next_seq_ = 0;
  std::int64_t last_next_ = 0;
  std::uint64_t cur_seq_ = 0;
  std::int64_t cur_due_ = 0;
  std::deque<std::pair<std::uint64_t, std::int64_t>> replay_;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

// ---- word count -----------------------------------------------------------

// (sentence, seq, due) -> (word, occurrence id, due) per word.
class SplitBolt : public typhoon::stream::Bolt {
 public:
  explicit SplitBolt(std::shared_ptr<Shared> sh) : sh_(std::move(sh)) {}

  void prepare(const typhoon::stream::WorkerContext&) override {
    spans_ = GlobalTracer().buffer("split");
    timer_.attach(*sh_);
  }

  void execute(const Tuple& in, const TupleMeta&, Emitter& out) override {
    const std::int64_t t0 = timer_.enter();
    const std::int64_t seq = in.i64(1);
    const std::int64_t due = in.i64(2);
    {
      ScopedSpan span(spans_, "split.execute", "spout.emit",
                      static_cast<std::uint64_t>(seq));
      const std::string_view s = in.str(0);
      std::int64_t i = 0;
      std::size_t pos = 0;
      while (pos < s.size()) {
        std::size_t sp = s.find(' ', pos);
        if (sp == std::string_view::npos) sp = s.size();
        out.emit(Tuple{Value(s.substr(pos, sp - pos)),
                       Value(seq * kMaxWords + i), Value(due)});
        ++i;
        pos = sp + 1;
      }
    }
    timer_.exit(t0);
  }

 private:
  std::shared_ptr<Shared> sh_;
  Tracer::Buffer* spans_ = nullptr;
  BoltTimer timer_;
};

// Deduplicating word-count sink: counts each occurrence id once, so
// at-least-once replays still give exact counts.
class CountSink : public typhoon::stream::Bolt {
 public:
  explicit CountSink(std::shared_ptr<Shared> sh) : sh_(std::move(sh)) {}

  void prepare(const typhoon::stream::WorkerContext&) override {
    state_ = sh_->add_sink();
    lat_ = sh_->latency.add();
    spans_ = GlobalTracer().buffer("count");
  }

  void execute(const Tuple& in, const TupleMeta&, Emitter&) override {
    const std::int64_t now = NowNs();
    const std::int64_t occ = in.i64(1);
    lat_->record(now - in.i64(2));
    ScopedSpan span(spans_, "count.execute", "split.execute",
                    static_cast<std::uint64_t>(occ / kMaxWords));
    sh_->first_result.store(true, std::memory_order_relaxed);
    if (!seen_.insert(static_cast<std::uint64_t>(occ))) {
      Bump(state_->dups);
      return;
    }
    const int id = VocabId(in.str(0));
    if (id < 0) {
      Bump(state_->unknown);
      return;
    }
    Bump(state_->counts[id]);
    Bump(state_->unique);
  }

 private:
  static void Bump(std::atomic<std::int64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  std::shared_ptr<Shared> sh_;
  std::shared_ptr<SinkState> state_;
  Histogram* lat_ = nullptr;
  Tracer::Buffer* spans_ = nullptr;
  SeenBits seen_;
};

// ---- broadcast ------------------------------------------------------------

// One all-grouping replica: checks each seq arrives exactly once here.
class ReplicaSink : public typhoon::stream::Bolt {
 public:
  explicit ReplicaSink(std::shared_ptr<Shared> sh) : sh_(std::move(sh)) {}

  void prepare(const typhoon::stream::WorkerContext&) override {
    state_ = sh_->add_sink();
    lat_ = sh_->latency.add();
    spans_ = GlobalTracer().buffer("sink");
    timer_.attach(*sh_);
  }

  void execute(const Tuple& in, const TupleMeta&, Emitter&) override {
    const std::int64_t now = NowNs();
    const std::int64_t t0 = timer_.enter();
    const auto seq = static_cast<std::uint64_t>(in.i64(0));
    lat_->record(now - in.i64(1));
    {
      ScopedSpan span(spans_, "sink.execute", "spout.emit", seq);
      sh_->first_result.store(true, std::memory_order_relaxed);
      if (seen_.insert(seq)) {
        state_->unique.fetch_add(1, std::memory_order_relaxed);
      } else {
        state_->dups.fetch_add(1, std::memory_order_relaxed);
      }
      sh_->delivered.fetch_add(1, std::memory_order_release);
    }
    timer_.exit(t0);
  }

 private:
  std::shared_ptr<Shared> sh_;
  std::shared_ptr<SinkState> state_;
  Histogram* lat_ = nullptr;
  Tracer::Buffer* spans_ = nullptr;
  BoltTimer timer_;
  SeenBits seen_;
};

// ---- workload definitions -------------------------------------------------

struct Spec {
  std::string name;
  std::string topology;
  bool reliable = false;
  std::vector<double> ladder;  // offered tuples/s, ascending
  double ref_rate = 0.0;       // latency / CPU reference rate (a rung)
  double p99_limit_ms = 0.0;   // sustainable-rate latency limit
  int replicas = 1;
  std::int64_t window = 0;
  // (node, parallelism) of every worker, acker included.
  std::vector<std::pair<std::string, int>> nodes;
  Shape shape;
  std::function<typhoon::stream::LogicalTopology(std::shared_ptr<Shared>)>
      build;
};

Shape SentenceShape(std::uint32_t seed) {
  return [seed](std::uint64_t seq, std::int64_t due) {
    return Tuple{Value(SentenceText(seed, seq)),
                 Value(static_cast<std::int64_t>(seq)), Value(due)};
  };
}

Shape ReplicaShape(std::uint32_t seed) {
  // 48-byte payload drawn from the seed: longer than the inline value
  // buffer, like a real record.
  std::string payload;
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (int i = 0; i < 48; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    payload += static_cast<char>('a' + (x >> 59) % 26);
  }
  return [payload](std::uint64_t seq, std::int64_t due) {
    return Tuple{Value(static_cast<std::int64_t>(seq)), Value(due),
                 Value(payload)};
  };
}

Spec WordcountSpec(std::uint32_t seed) {
  Spec s;
  s.name = "wordcount_reliable";
  s.topology = "wc";
  s.reliable = true;
  s.ladder = {10000, 20000, 40000};
  s.ref_rate = 10000;
  s.p99_limit_ms = 25.0;
  s.nodes = {{"sentences", 1},
             {"split", 1},
             {"count", 1},
             {typhoon::stream::kAckerNodeName, 1}};
  s.shape = SentenceShape(seed);
  s.build = [shape = s.shape](std::shared_ptr<Shared> sh) {
    typhoon::stream::TopologyBuilder b("wc");
    const auto spout = b.add_spout(
        "sentences",
        [sh, shape] { return std::make_unique<PacedSpout>(sh, shape); }, 1);
    const auto split = b.add_bolt(
        "split", [sh] { return std::make_unique<SplitBolt>(sh); }, 1);
    const auto count = b.add_bolt(
        "count", [sh] { return std::make_unique<CountSink>(sh); }, 1);
    b.shuffle(spout, split);
    b.fields(split, count, {0});
    return b.build().value();
  };
  return s;
}

Spec BroadcastSpec(std::uint32_t seed) {
  Spec s;
  s.name = "broadcast_fanout";
  s.topology = "bcast";
  s.reliable = false;
  s.ladder = {10000, 20000, 40000};
  s.ref_rate = 20000;
  s.p99_limit_ms = 10.0;
  s.replicas = 4;
  s.window = 1024;
  s.nodes = {{"src", 1}, {"sink", 4}};
  s.shape = ReplicaShape(seed);
  s.build = [shape = s.shape, replicas = s.replicas](
                std::shared_ptr<Shared> sh) {
    typhoon::stream::TopologyBuilder b("bcast");
    const auto spout = b.add_spout(
        "src", [sh, shape] { return std::make_unique<PacedSpout>(sh, shape); },
        1);
    const auto sink = b.add_bolt(
        "sink", [sh] { return std::make_unique<ReplicaSink>(sh); }, replicas);
    b.all(spout, sink);
    return b.build().value();
  };
  return s;
}

// ---- measurement ----------------------------------------------------------

// Cluster-wide counters read between phases through the public probes.
struct Counters {
  double t_s = 0.0;
  double cpu_ms = 0.0;
  double completed = 0.0;
  std::int64_t fails = 0;
  std::int64_t ctx_switches = 0;
  std::int64_t coord_writes = 0;
  std::uint64_t sw_rx = 0, sw_tx = 0, sw_drop = 0;
  std::uint64_t mc_hits = 0, mc_misses = 0;
  std::uint64_t tun_frames = 0, tun_bytes = 0, tun_peer_drops = 0;
  std::int64_t acker_rx = 0;
  std::int64_t flowmods = 0;
};

class Run {
 public:
  Run(const Spec& spec, const Options& opts) : spec_(spec), opts_(opts) {}

  Result go();

 private:
  struct Rung {
    double rate = 0.0;
    double achieved = 0.0;
    double p50_ms = 0.0;      // lower quartile of sub-window p50s
    double p99_ms = 0.0;      // median of sub-window p99s
    double p99_all_ms = 0.0;  // p99 over the whole rung
    std::vector<double> window_p50_ms, window_p99_ms, window_cpu;
    std::uint64_t samples = 0;
    double backlog_growth = 0.0;
    std::int64_t fails = 0;
    std::uint64_t drops = 0;
    double cpu_ms_per_ktuple = 0.0;
    bool pass = false;
    // Per-layer (tracer on): ack latency, spout gap, generator lag.
    double ack_ms = 0.0, spout_gap_us = 0.0, gen_lag_ms = 0.0;
  };

  bool setup_cluster();
  Counters sample();
  Rung open_rung(double rate, double secs);
  struct Closed {
    std::vector<double> rates;  // completions/s per sub-window
    std::vector<double> cpus;   // process CPU ms per 1000 completions
    Counters c0, c1;
    HistSnap emit, gap, exec;
  };

  Closed closed_phase(double secs);
  void drain_and_check(Result& res);
  void fill_ledger(Result& res, const Closed& closed, const Rung& off,
                   const Rung& on, std::int64_t flowmods_setup);
  std::string rung_json(const Rung& r) const;

  const Spec& spec_;
  const Options& opts_;
  std::unique_ptr<typhoon::Cluster> cluster_;
  std::shared_ptr<Shared> sh_;
  std::vector<double> setup_s_, start_ms_, submit_ms_;
  std::int64_t failed_ops_ = 0;
  std::atomic<std::int64_t> coord_writes_{0};
  std::atomic<std::int64_t> queue_depth_max_{0};
};

bool Run::setup_cluster() {
  for (int attempt = 0;
       static_cast<int>(setup_s_.size()) < kSetups && attempt < kSetups + 2;
       ++attempt) {
    auto sh = std::make_shared<Shared>();
    sh->seed = opts_.seed;
    sh->replicas = spec_.replicas;
    sh->window = spec_.window;
    sh->set_schedule(Mode::kOpen, spec_.ref_rate);

    const std::int64_t t0 = NowNs();
    typhoon::ClusterConfig cfg;
    cfg.num_hosts = kHosts;
    auto c = std::make_unique<typhoon::Cluster>(cfg);
    const std::int64_t t1 = NowNs();
    c->start();
    const std::int64_t t2 = NowNs();
    typhoon::stream::SubmitOptions so;
    so.reliable = spec_.reliable;
    const auto id = c->submit(spec_.build(sh), so);
    const std::int64_t t3 = NowNs();
    if (!id.ok()) {
      std::fprintf(stderr, "perfbench: submit failed: %s\n",
                   id.status().message().c_str());
      ++failed_ops_;
      c->stop();
      continue;
    }
    while (!sh->first_result.load() &&
           NowNs() - t0 < kFirstResultTimeoutS * 1e9) {
      SleepMs(0.2);
    }
    if (!sh->first_result.load()) {
      std::fprintf(stderr, "perfbench: no result within %.0f s of setup\n",
                   kFirstResultTimeoutS);
      ++failed_ops_;
      c->stop();
      continue;
    }
    const std::int64_t t4 = NowNs();
    setup_s_.push_back(static_cast<double>(t4 - t0) / 1e9);
    start_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
    submit_ms_.push_back(static_cast<double>(t3 - t2) / 1e6);
    if (static_cast<int>(setup_s_.size()) < kSetups) {
      c->stop();
    } else {
      cluster_ = std::move(c);
      sh_ = std::move(sh);
    }
  }
  return cluster_ != nullptr;
}

Counters Run::sample() {
  Counters c;
  c.t_s = static_cast<double>(NowNs()) / 1e9;
  c.cpu_ms = ProcessCpuMs();
  c.completed = sh_->completed(spec_.reliable);
  c.fails = sh_->fails.load();
  // Switch drops decide whether a ladder rung lost tuples, so they are
  // read on every run; the rest only feeds the traced ledger.
  const auto hosts = cluster_->hosts();
  for (const auto h : hosts) {
    auto* sw = cluster_->switch_at(h);
    if (sw == nullptr) continue;
    for (const auto& p : sw->port_stats()) {
      c.sw_rx += p.rx_packets;
      c.sw_tx += p.tx_packets;
      c.sw_drop += p.tx_dropped;
    }
    c.mc_hits += sw->cache_hits();
    c.mc_misses += sw->cache_misses();
  }
  if (!GlobalTracer().on()) return c;
  c.ctx_switches = ContextSwitches();
  c.coord_writes = coord_writes_.load();
  const auto [a, b] = cluster_->tunnel_between(hosts[0], hosts[1]);
  for (const auto* e : {a, b}) {
    if (e == nullptr) continue;
    c.tun_frames += e->frames_sent();
    c.tun_bytes += e->bytes_sent();
    c.tun_peer_drops += e->peer_drops();
  }
  cluster_->probe_worker(spec_.topology, typhoon::stream::kAckerNodeName, 0,
                         [&](typhoon::stream::Worker& w) {
                           c.acker_rx = w.received();
                         });
  if (auto* ctl = cluster_->controller(); ctl != nullptr) {
    c.flowmods = ctl->flowmods_delta() + ctl->flowmods_full();
  }
  return c;
}

Run::Rung Run::open_rung(double rate, double secs) {
  Rung r;
  r.rate = rate;
  sh_->set_schedule(Mode::kOpen, rate);
  SleepMs(kSettleS * 1000);

  const Counters c0 = sample();
  const HistSnap ack0 = sh_->ack_ns.snapshot();
  const HistSnap gap0 = sh_->spout_gap_ns.snapshot();
  const HistSnap lag0 = sh_->gen_lag_ns.snapshot();
  const HistSnap lat0 = sh_->latency.snapshot();
  HistSnap prev = lat0;
  std::vector<double> p50s, p99s, cpus;
  double cpu_prev = c0.cpu_ms;
  double done_prev = c0.completed;
  const int windows = std::max(1, static_cast<int>(secs / kWindowS + 0.5));
  for (int w = 0; w < windows; ++w) {
    SleepMs(kWindowS * 1000);
    HistSnap cur = sh_->latency.snapshot();
    const double cpu_now = ProcessCpuMs();
    const double done_now = sh_->completed(spec_.reliable);
    if (done_now > done_prev) {
      cpus.push_back((cpu_now - cpu_prev) / ((done_now - done_prev) / 1e3));
    }
    cpu_prev = cpu_now;
    done_prev = done_now;
    HistSnap win = cur;
    win -= prev;
    prev = std::move(cur);
    if (win.total() == 0) continue;
    p50s.push_back(win.quantile(0.50) / 1e6);
    p99s.push_back(win.quantile(0.99) / 1e6);
  }
  const Counters c1 = sample();
  HistSnap all = prev;
  all -= lat0;

  const double dt = c1.t_s - c0.t_s;
  const double done = c1.completed - c0.completed;
  r.achieved = done / dt;
  // Host interference only ever slows a sub-window down; the lower
  // quartile of the per-window medians is the least disturbed typical
  // latency.
  r.p50_ms = Quantile(p50s, 0.25);
  r.p99_ms = Median(p99s);
  r.window_p50_ms = p50s;
  r.window_p99_ms = p99s;
  r.window_cpu = cpus;
  r.p99_all_ms = all.quantile(0.99) / 1e6;
  r.samples = all.total();
  r.backlog_growth = rate * dt - done;
  r.fails = c1.fails - c0.fails;
  r.drops = c1.sw_drop - c0.sw_drop;
  r.cpu_ms_per_ktuple = done > 0 ? (c1.cpu_ms - c0.cpu_ms) / (done / 1e3) : 0;
  // Sustainable: the backlog does not grow beyond jitter, p99 stays within
  // the limit and nothing is lost.
  r.pass = r.backlog_growth <= 0.02 * rate * dt + 256 &&
           r.p99_all_ms <= spec_.p99_limit_ms && r.fails == 0 &&
           r.drops == 0 && r.samples > 0;
  if (GlobalTracer().on()) {
    HistSnap ack = sh_->ack_ns.snapshot();
    ack -= ack0;
    HistSnap gap = sh_->spout_gap_ns.snapshot();
    gap -= gap0;
    HistSnap lag = sh_->gen_lag_ns.snapshot();
    lag -= lag0;
    r.ack_ms = ack.quantile(0.5) / 1e6;
    r.spout_gap_us = gap.quantile(0.5) / 1e3;
    r.gen_lag_ms = lag.quantile(0.99) / 1e6;
  }
  return r;
}

Run::Closed Run::closed_phase(double secs) {
  Closed out;
  sh_->set_schedule(Mode::kClosed, 0);
  SleepMs(kSettleS * 1000);
  out.c0 = sample();
  const HistSnap e0 = sh_->emit_ns.snapshot();
  const HistSnap g0 = sh_->bolt_gap_ns.snapshot();
  const HistSnap x0 = sh_->execute_ns.snapshot();
  double t_prev = out.c0.t_s;
  double done_prev = out.c0.completed;
  double cpu_prev = out.c0.cpu_ms;
  const int windows = std::max(1, static_cast<int>(secs / kWindowS + 0.5));
  for (int w = 0; w < windows; ++w) {
    SleepMs(kWindowS * 1000);
    const double t = static_cast<double>(NowNs()) / 1e9;
    const double done = sh_->completed(spec_.reliable);
    const double cpu = ProcessCpuMs();
    out.rates.push_back((done - done_prev) / (t - t_prev));
    if (done > done_prev) {
      out.cpus.push_back((cpu - cpu_prev) / ((done - done_prev) / 1e3));
    }
    t_prev = t;
    done_prev = done;
    cpu_prev = cpu;
  }
  out.c1 = sample();
  out.emit = sh_->emit_ns.snapshot();
  out.emit -= e0;
  out.gap = sh_->bolt_gap_ns.snapshot();
  out.gap -= g0;
  out.exec = sh_->execute_ns.snapshot();
  out.exec -= x0;
  return out;
}

void Run::drain_and_check(Result& res) {
  sh_->set_schedule(Mode::kPaused, 0);
  const std::int64_t t0 = NowNs();
  const auto drained = [&] {
    const std::int64_t n = sh_->emitted.load(std::memory_order_acquire);
    if (spec_.reliable) return sh_->outstanding.load() == 0;
    return sh_->delivered.load() >= n * spec_.replicas;
  };
  while (!drained() && NowNs() - t0 < kDrainTimeoutS * 1e9) SleepMs(1);
  SleepMs(50);  // late duplicates, if any, land before the check

  const std::int64_t n = sh_->emitted.load(std::memory_order_acquire);
  std::vector<std::shared_ptr<SinkState>> sinks;
  {
    std::lock_guard lk(sh_->sinks_mu);
    sinks = sh_->sinks;
  }
  std::int64_t missing = 0, dups = 0, unknown = 0;
  if (spec_.reliable) {
    // Exact word counts over seqs [0, n) against the seed's expectation.
    std::vector<std::int64_t> want(kVocab, 0), got(kVocab, 0);
    int ids[kMaxWords];
    for (std::int64_t seq = 0; seq < n; ++seq) {
      const int k = SentenceWords(opts_.seed, static_cast<std::uint64_t>(seq),
                                  ids);
      for (int i = 0; i < k; ++i) ++want[ids[i]];
    }
    for (const auto& s : sinks) {
      for (int w = 0; w < kVocab; ++w) got[w] += s->counts[w].load();
      dups += s->dups.load();
      unknown += s->unknown.load();
    }
    for (int w = 0; w < kVocab; ++w) missing += std::abs(want[w] - got[w]);
    res.attempted = n;
    const std::int64_t unacked = sh_->outstanding.load();
    res.failed = sh_->fails.load() + unacked + missing + unknown;
    res.correct = missing == 0 && unknown == 0 && unacked == 0;
    res.detail.integer("unacked_at_end", unacked);
  } else {
    // Every replica delivered exactly once.
    for (const auto& s : sinks) {
      missing += n - s->unique.load();
      dups += s->dups.load();
    }
    res.attempted = n * spec_.replicas;
    res.failed = missing + dups;
    res.correct = missing == 0 && dups == 0 &&
                  static_cast<int>(sinks.size()) == spec_.replicas;
  }
  res.attempted += failed_ops_;
  res.failed += failed_ops_;
  res.detail.integer("emitted", n)
      .integer("missing", missing)
      .integer("duplicates", dups)
      .integer("spout_fails", sh_->fails.load())
      .integer("failed_ops", failed_ops_);
}

std::string Run::rung_json(const Rung& r) const {
  JsonObj o;
  o.num("rate", r.rate)
      .num("achieved_tps", r.achieved)
      .num("p50_ms", r.p50_ms)
      .num("p99_ms", r.p99_ms)
      .num("p99_whole_ms", r.p99_all_ms)
      .raw("window_p50_ms", JsonNumArray(r.window_p50_ms))
      .raw("window_p99_ms", JsonNumArray(r.window_p99_ms))
      .raw("window_cpu", JsonNumArray(r.window_cpu))
      .integer("samples", static_cast<std::int64_t>(r.samples))
      .num("backlog_growth", r.backlog_growth)
      .integer("fails", r.fails)
      .integer("drops", static_cast<std::int64_t>(r.drops))
      .num("cpu_ms_per_ktuple", r.cpu_ms_per_ktuple)
      .boolean("pass", r.pass);
  return o.dump();
}

// Per-layer ledger of a traced run, from the closed-loop counters, the
// reference rungs without and with tracing, and the public probes.
void Run::fill_ledger(Result& res, const Closed& closed, const Rung& off,
                      const Rung& on, std::int64_t flowmods_setup) {
  const Counters& c0 = closed.c0;
  const Counters& c1 = closed.c1;
  const double done = c1.completed - c0.completed;
  const double per = done > 0 ? 1.0 / done : 0.0;
  const double dt = c1.t_s - c0.t_s;
  auto& L = res.per_layer;
  L["stream.emit_ns"] = {closed.emit.quantile(0.5), "ns"};
  L["stream.spout_gap_us"] = {on.spout_gap_us, "us"};
  L["stream.gen_lag_ms"] = {on.gen_lag_ms, "ms"};
  L["stream.bolt_gap_ns"] = {closed.gap.quantile(0.5), "ns"};
  L["stream.execute_ns"] = {closed.exec.quantile(0.5), "ns"};
  L["stream.ack_ms"] = {on.ack_ms, "ms"};
  L["stream.acker_msgs_per_tuple"] = {
      static_cast<double>(c1.acker_rx - c0.acker_rx) * per, "count"};
  L["stream.queue_depth_max"] = {
      static_cast<double>(queue_depth_max_.load()), "count"};
  L["switchd.pkts_per_tuple"] = {
      static_cast<double>(c1.sw_rx - c0.sw_rx) * per, "count"};
  const double tx = static_cast<double>((c1.sw_tx - c0.sw_tx) +
                                        (c1.sw_drop - c0.sw_drop));
  L["switchd.rx_drop_ratio"] = {
      tx > 0 ? static_cast<double>(c1.sw_drop - c0.sw_drop) / tx : 0.0,
      "ratio"};
  const double probes = static_cast<double>((c1.mc_hits - c0.mc_hits) +
                                            (c1.mc_misses - c0.mc_misses));
  L["switchd.mcache_hit_ratio"] = {
      probes > 0 ? static_cast<double>(c1.mc_hits - c0.mc_hits) / probes
                 : 0.0,
      "ratio"};
  L["net.frames_per_tuple"] = {
      static_cast<double>(c1.tun_frames - c0.tun_frames) * per, "count"};
  L["net.bytes_per_tuple"] = {
      static_cast<double>(c1.tun_bytes - c0.tun_bytes) * per, "B"};
  L["net.peer_drops"] = {
      static_cast<double>(c1.tun_peer_drops - c0.tun_peer_drops), "count"};
  L["net.ctx_switches_per_ktuple"] = {
      static_cast<double>(c1.ctx_switches - c0.ctx_switches) * per * 1e3,
      "count"};
  L["coordinator.writes_per_s"] = {
      dt > 0 ? static_cast<double>(c1.coord_writes - c0.coord_writes) / dt
             : 0.0,
      "1/s"};
  L["controller.flowmods_setup"] = {static_cast<double>(flowmods_setup),
                                    "count"};
  L["controller.flowmods_steady"] = {
      static_cast<double>(c1.flowmods - c0.flowmods), "count"};
  L["typhoon.start_ms"] = {Median(start_ms_), "ms"};
  L["typhoon.submit_ms"] = {Median(submit_ms_), "ms"};

  auto& collector = cluster_->observability().collector();
  collector.collect();
  for (const char* stage :
       {"emit", "switch_in", "switch_out", "tunnel_rx", "deserialize",
        "execute", "end_to_end"}) {
    const auto* rec = collector.stage_latency(stage);
    L[std::string("trace.") + stage + "_p50_us"] = {
        rec != nullptr ? rec->percentile_ms(0.5) * 1e3 : 0.0, "us"};
  }
  // Traced minus untraced, as a share of untraced, at the reference rate.
  L["trace.overhead_p50_pct"] = {
      off.p50_ms > 0 ? (on.p50_ms / off.p50_ms - 1.0) * 100.0 : 0.0, "%"};
  L["trace.overhead_cpu_pct"] = {
      off.cpu_ms_per_ktuple > 0
          ? (on.cpu_ms_per_ktuple / off.cpu_ms_per_ktuple - 1.0) * 100.0
          : 0.0,
      "%"};
  res.detail.raw("overhead_rungs",
                 "[" + rung_json(off) + ", " + rung_json(on) + "]");
}

Result Run::go() {
  Result res;
  Tracer& tracer = GlobalTracer();
  tracer.set_on(opts_.trace);
  const double secs = opts_.seconds;
  const double warm_s = std::max(0.5, secs * 0.05);
  const double ref_s = std::max(kWindowS, secs * 0.30);
  const double rung_s = std::max(kWindowS, secs * 0.07);
  const double closed_s = std::max(kWindowS, secs * 0.40);

  int workers = 0;
  for (const auto& [node, par] : spec_.nodes) workers += par;
  const unsigned nproc = HardwareThreads();
  res.detail.str("workload", spec_.name)
      .integer("seed", opts_.seed)
      .num("seconds", secs)
      .boolean("trace", opts_.trace)
      .integer("nproc", nproc)
      .integer("hosts", kHosts)
      .integer("worker_threads", workers)
      .integer("switch_threads", kHosts)
      .boolean("oversubscribed", workers + kHosts > static_cast<int>(nproc))
      .raw("ladder", JsonNumArray(spec_.ladder))
      .num("ref_rate", spec_.ref_rate)
      .num("p99_limit_ms", spec_.p99_limit_ms)
      .str("closed_loop", spec_.reliable ? "max_pending=2048 (default)"
                                         : "window=" +
                                               std::to_string(spec_.window));

  const auto steal0 = StealTicks();
  const std::int64_t setup_t0 = NowNs();
  const bool up = setup_cluster();
  res.detail.num("setup_phase_s",
                 static_cast<double>(NowNs() - setup_t0) / 1e9);
  if (!up) {
    res.correct = false;
    res.attempted = failed_ops_;
    res.failed = failed_ops_;
    return res;
  }
  // Ledger-only probes, installed on traced runs: a count of coordinator
  // writes and a sampler of the workers' queue-depth gauges.
  std::int64_t flowmods_setup = 0;
  typhoon::coordinator::Coordinator::WatchId watch = 0;
  std::atomic<bool> sampling{true};
  std::thread sampler;
  if (opts_.trace) {
    flowmods_setup = sample().flowmods;
    watch = cluster_->coord().watch(
        "/",
        [this](const std::string&, typhoon::coordinator::WatchEvent ev,
               const typhoon::common::Bytes&) {
          if (ev == typhoon::coordinator::WatchEvent::kCreated ||
              ev == typhoon::coordinator::WatchEvent::kDataChanged) {
            coord_writes_.fetch_add(1, std::memory_order_relaxed);
          }
        },
        /*prefix=*/true);
    sampler = std::thread([&] {
      while (sampling.load()) {
        for (const auto& [node, par] : spec_.nodes) {
          for (int i = 0; i < par; ++i) {
            cluster_->probe_worker(
                spec_.topology, node, i, [&](typhoon::stream::Worker& w) {
                  const std::int64_t d = w.metrics().value("queue_depth");
                  std::int64_t m = queue_depth_max_.load();
                  while (d > m &&
                         !queue_depth_max_.compare_exchange_weak(m, d)) {
                  }
                });
          }
        }
        SleepMs(20);
      }
    });
  }

  sh_->set_schedule(Mode::kOpen, spec_.ref_rate);
  SleepMs(warm_s * 1000);

  // Tracing overhead: the reference rung with the benchmark's own
  // instrumentation off, then on.
  Rung off, on;
  if (opts_.trace) {
    tracer.set_on(false);
    off = open_rung(spec_.ref_rate, rung_s);
    tracer.set_on(true);
    on = open_rung(spec_.ref_rate, rung_s);
  }

  std::vector<Rung> rungs;
  for (const double rate : spec_.ladder) {
    rungs.push_back(open_rung(rate, rate == spec_.ref_rate ? ref_s : rung_s));
  }
  const Closed closed = closed_phase(closed_s);

  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  drain_and_check(res);
  if (opts_.trace) cluster_->coord().unwatch(watch);

  const auto steal1 = StealTicks();
  res.detail.num("steal_pct",
                 steal1.second > steal0.second
                     ? 100.0 * static_cast<double>(steal1.first - steal0.first) /
                           static_cast<double>(steal1.second - steal0.second)
                     : 0.0);

  // ---- end-to-end -----------------------------------------------------
  const Rung* ref = nullptr;
  const Rung* best = nullptr;
  for (const Rung& r : rungs) {
    if (r.rate == spec_.ref_rate) ref = &r;
    if (r.pass) best = &r;
  }
  std::string rungs_json = "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) rungs_json += ", ";
    rungs_json += rung_json(rungs[i]);
  }
  rungs_json += "]";
  // Guarded end-to-end metrics: the ones that repeat on a shared host.
  // Host interference (vCPU steal) only ever slows a set-up or a
  // sub-window down, so both come from the least disturbed tenth: the
  // lower decile of the set-ups, and of the closed-loop CPU cost per
  // completion. At saturation the latter is the inverse of throughput per
  // core.
  res.end_to_end["setup_s"] = {Quantile(setup_s_, 0.1), "s"};
  res.end_to_end["cpu_ms_per_ktuple"] = {Quantile(closed.cpus, 0.1), "ms"};
  // Wall-clock throughput and latency, and the peak resident set, swing
  // with host steal far beyond a tenth between runs of the same code; they
  // are reported, not guarded.
  res.detail.num("peak_rss_mb", PeakRssMb())
      .num("peak_tps", Quantile(closed.rates, 0.75))
      .num("median_window_tps", Median(closed.rates))
      .num("sustainable_tps", best ? best->achieved : 0.0)
      .num("latency_p50_ms", ref ? ref->p50_ms : 0.0)
      .num("latency_p99_ms", ref ? ref->p99_ms : 0.0)
      .integer("latency_samples",
               ref ? static_cast<std::int64_t>(ref->samples) : 0)
      .num("failed_ratio", res.attempted > 0
                               ? static_cast<double>(res.failed) /
                                     static_cast<double>(res.attempted)
                               : 1.0)
      .raw("setup_s_samples", JsonNumArray(setup_s_))
      .raw("rungs", rungs_json)
      .raw("closed_window_tps", JsonNumArray(closed.rates))
      .raw("closed_window_cpu", JsonNumArray(closed.cpus));

  if (opts_.trace) fill_ledger(res, closed, off, on, flowmods_setup);
  cluster_->stop();
  cluster_.reset();

  if (opts_.trace) {
    const PumpCosts pump = RunLayerPump(
        [this](std::uint64_t seq) { return spec_.shape(seq, NowNs()); },
        std::max(0.5, secs * 0.05));
    auto& L = res.per_layer;
    L["stream.serialize_ns"] = {pump.serialize_ns, "ns"};
    L["stream.decode_ns"] = {pump.decode_ns, "ns"};
    L["switchd.forward_ns"] = {pump.forward_ns, "ns"};
    L["net.burst_ns"] = {pump.burst_ns, "ns"};
  }
  return res;
}

}  // namespace

Result RunWordcountReliable(const Options& opts) {
  const Spec spec = WordcountSpec(opts.seed);
  return Run(spec, opts).go();
}

Result RunBroadcastFanout(const Options& opts) {
  const Spec spec = BroadcastSpec(opts.seed);
  return Run(spec, opts).go();
}

}  // namespace perfbench
