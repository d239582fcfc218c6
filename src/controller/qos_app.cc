#include "controller/qos_app.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/bytes.h"
#include "common/hash.h"

namespace typhoon::controller {

namespace {

// Water-fill convergence epsilon: below one byte/sec there is nothing left
// worth dividing, and float drift must not keep the loop alive.
constexpr double kEpsBps = 1.0;

constexpr std::uint32_t kCheckpointVersion = 1;

// Epochs a programmed port survives without a demand signal before its
// shaper is cleared. A freshly promoted leader's first epoch has no rate
// history (one sample in a fresh series, backpressure keeping the backlog
// under the probe threshold), and unprogramming the dataplane on zero
// information would cause a clear/re-program churn cycle across every
// failover. Ports that stay silent — a killed topology — still clear a few
// epochs later.
constexpr int kStaleGraceEpochs = 3;

// No programmed port ever goes below this (starvation guard).
constexpr double kMinRateBps = 16384.0;
// Latent-demand probe: a shaped port with at least kBacklogThreshold frames
// queued wants kProbeGain times its programmed rate, so demand re-expands
// instead of collapsing to the shaped rate.
constexpr double kProbeGain = 1.3;
constexpr std::uint64_t kBacklogThreshold = 64;
// EWMA weight of the per-port demand series.
constexpr double kEwmaAlpha = 0.4;
// Class of a topology the policy does not list.
constexpr QosClass kDefaultClass{};

}  // namespace

// ---------------------------------------------------------------------------
// QosAllocator
// ---------------------------------------------------------------------------

std::map<TopologyId, double> QosAllocator::Allocate(
    double capacity_bps, std::vector<QosDemand> demands) {
  std::map<TopologyId, double> alloc;
  if (demands.empty()) return alloc;
  for (const QosDemand& d : demands) alloc[d.id] = 0.0;
  if (capacity_bps <= 0.0) return alloc;

  // Deterministic processing order: priority descending, topology id
  // ascending inside a class — the same inputs always water-fill in the
  // same sequence, so reconverged allocations are bit-comparable.
  std::sort(demands.begin(), demands.end(),
            [](const QosDemand& a, const QosDemand& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.id < b.id;
            });

  double remaining = capacity_bps;

  // Phase 1: effective floors (clamped to demand), descending priority.
  // Floors are guarantees, so even a class that loses the water-fill keeps
  // its floor — but a floor never grants beyond what the topology wants.
  for (const QosDemand& d : demands) {
    const double floor = std::min(std::max(d.floor_bps, 0.0),
                                  std::max(d.demand_bps, 0.0));
    const double grant = std::min(floor, remaining);
    alloc[d.id] += grant;
    remaining -= grant;
    if (remaining <= kEpsBps) return alloc;
  }

  // Phase 2: strict-priority weighted water-filling. Each class drains its
  // residual demand completely before the next (lower) class sees anything
  // beyond its floor.
  std::size_t i = 0;
  while (i < demands.size() && remaining > kEpsBps) {
    std::size_t j = i;
    while (j < demands.size() && demands[j].priority == demands[i].priority) {
      ++j;
    }
    // Active set: members of this class still wanting more than their floor
    // grant. need/weight pairs water-fill iteratively: grant everyone the
    // fair level, retire the saturated, repeat.
    struct Active {
      TopologyId id;
      double need;
      double weight;
    };
    std::vector<Active> active;
    for (std::size_t k = i; k < j; ++k) {
      const QosDemand& d = demands[k];
      const double need = std::max(d.demand_bps, 0.0) - alloc[d.id];
      if (need > kEpsBps) {
        active.push_back({d.id, need, d.weight > 0.0 ? d.weight : 1.0});
      }
    }
    while (!active.empty() && remaining > kEpsBps) {
      double total_w = 0.0;
      for (const Active& a : active) total_w += a.weight;
      const double level = remaining / total_w;
      bool any_saturated = false;
      std::vector<Active> next;
      for (Active& a : active) {
        if (a.need <= level * a.weight + kEpsBps) {
          alloc[a.id] += a.need;
          remaining -= a.need;
          any_saturated = true;
        } else {
          next.push_back(a);
        }
      }
      if (!any_saturated) {
        // Nobody saturates at the fair level: grant proportional shares and
        // the class (and the capacity) is exhausted.
        for (const Active& a : active) {
          alloc[a.id] += level * a.weight;
        }
        remaining = 0.0;
        break;
      }
      active = std::move(next);
    }
    i = j;
  }
  return alloc;
}

// ---------------------------------------------------------------------------
// QosApp
// ---------------------------------------------------------------------------

QosApp::QosApp(QosPolicy policy) : policy_(std::move(policy)) {}

std::map<QosApp::PortKey, double> QosApp::DiffRates(
    const std::map<PortKey, double>& prev,
    const std::map<PortKey, double>& next) {
  std::map<PortKey, double> delta;
  for (const auto& [key, rate] : next) {
    auto it = prev.find(key);
    if (it == prev.end() || it->second != rate) delta[key] = rate;
  }
  for (const auto& [key, rate] : prev) {
    (void)rate;
    if (!next.contains(key)) delta[key] = 0.0;  // clear a stale shaper
  }
  return delta;
}

const QosClass& QosApp::class_of(const std::string& name) const {
  auto it = policy_.classes.find(name);
  return it == policy_.classes.end() ? kDefaultClass : it->second;
}

double QosApp::quantize(double bps) const {
  const double q = policy_.rate_quantum_bps > 0.0 ? policy_.rate_quantum_bps
                                                  : 1.0;
  // Round UP: quantization must never shave an allocation below what the
  // allocator granted, or the SLO floor silently leaks.
  double r = std::ceil(bps / q) * q;
  return std::max(r, kMinRateBps);
}

std::uint64_t QosApp::Fingerprint(const std::map<TopologyId, double>& alloc) {
  // Order-independent only because std::map iterates sorted; fold the
  // quantum-rounded integer rate so float noise below a quantum vanishes.
  std::uint64_t fp = common::kFnvOffset;
  for (const auto& [id, rate] : alloc) {
    fp = common::HashCombine(fp, id);
    fp = common::HashCombine(fp, static_cast<std::uint64_t>(rate));
  }
  return fp;
}

void QosApp::on_start(TyphoonController& controller) {
  ControlPlaneApp::on_start(controller);
  restore_checkpoint();
}

void QosApp::restore_checkpoint() {
  auto blob = ctl_->read_blob("qos");
  if (!blob) return;
  common::BufReader r(*blob);
  std::uint32_t version = 0;
  std::uint64_t epoch = 0;
  std::uint32_t n_ports = 0;
  if (!r.u32(version) || version != kCheckpointVersion) return;
  if (!r.u64(epoch) || !r.u32(n_ports)) return;
  std::map<PortKey, double> programmed;
  for (std::uint32_t i = 0; i < n_ports; ++i) {
    std::uint32_t host = 0;
    std::uint32_t port = 0;
    double rate = 0.0;
    if (!r.u32(host) || !r.u32(port) || !r.f64(rate)) return;
    programmed[{host, port}] = rate;
  }
  std::uint32_t n_topos = 0;
  if (!r.u32(n_topos)) return;
  std::map<TopologyId, double> alloc;
  for (std::uint32_t i = 0; i < n_topos; ++i) {
    std::uint16_t id = 0;
    double rate = 0.0;
    if (!r.u16(id) || !r.f64(rate)) return;
    alloc[id] = rate;
  }

  std::lock_guard lk(mu_);
  epoch_ = epoch;
  alloc_ = std::move(alloc);
  programmed_ = programmed;
  // Restore hold-down: enforce the restored ledger but freeze actuation
  // until the demand window is fully warm. The takeover's topology redeploy
  // perturbs the dataplane (backlog flushes as a burst on some ports, a dip
  // on others), and reallocating from those polluted measurements would
  // reshape the fabric twice — once on the transient, once back.
  const std::int64_t epoch_us =
      std::max<std::int64_t>(1, std::chrono::duration_cast<std::chrono::microseconds>(
                                    policy_.epoch)
                                    .count());
  holddown_left_ = static_cast<int>((policy_.window_us + epoch_us - 1) /
                                    epoch_us) +
                   1;
  // Re-assert the checkpointed rates on the dataplane. The switches kept
  // the old leader's shapers, so in the common case this is a pure
  // idempotent re-program; after a switch restart it is the repair path.
  // Either way the DELTA ledger starts from the restored map, so the next
  // epoch emits nothing unless the allocation actually moves.
  for (const auto& [key, rate] : programmed) {
    (void)ctl_->program_port_rate(key.first, key.second, rate);
  }
}

void QosApp::write_checkpoint() {
  // Caller holds mu_; the blob is built from the freshly committed state.
  common::Bytes blob;
  common::BufWriter w(blob);
  w.u32(kCheckpointVersion);
  w.u64(epoch_);
  w.u32(static_cast<std::uint32_t>(programmed_.size()));
  for (const auto& [key, rate] : programmed_) {
    w.u32(key.first);
    w.u32(key.second);
    w.f64(rate);
  }
  w.u32(static_cast<std::uint32_t>(alloc_.size()));
  for (const auto& [id, rate] : alloc_) {
    w.u16(id);
    w.f64(rate);
  }
  ctl_->checkpoint_blob("qos", std::move(blob));
}

void QosApp::tick() {
  if (ctl_ == nullptr || policy_.capacity_bps <= 0.0) return;
  {
    std::lock_guard lk(mu_);
    const common::TimePoint now = common::Now();
    if (last_epoch_ != common::TimePoint{} &&
        now - last_epoch_ < policy_.epoch) {
      return;
    }
    last_epoch_ = now;
  }

  // ---- 1. SENSE (no app lock held: port_stats and worker_by_port take the
  // controller's own locks, and the latency probe may call into
  // observability) ----
  const std::int64_t now_us = common::NowMicros();
  struct Obs {
    PortKey key;
    TopologyId topology;
    std::uint64_t rx_bytes;
    std::uint64_t rx_backlog;
  };
  std::vector<Obs> observed;
  for (HostId host : ctl_->hosts()) {
    for (const openflow::PortStats& s : ctl_->port_stats(host)) {
      auto ref = ctl_->worker_by_port(host, s.port);
      if (!ref) continue;  // tunnel / controller ports carry no app demand
      observed.push_back(
          {{host, s.port}, ref->topology, s.rx_bytes, s.rx_backlog});
    }
  }

  std::map<TopologyId, double> topo_demand;
  {
    std::lock_guard lk(mu_);
    for (auto& [key, sense] : ports_) sense.live = false;
    for (const Obs& o : observed) {
      auto [it, inserted] = ports_.try_emplace(
          o.key, PortSense{trace::TimeSeries(trace::TimeSeriesConfig{
                               .window_us = policy_.window_us,
                               .alpha = kEwmaAlpha}),
                           0.0, o.topology, true});
      PortSense& sense = it->second;
      sense.live = true;
      sense.topology = o.topology;
      sense.rx_series.observe(now_us, static_cast<double>(o.rx_bytes));
      double demand = sense.rx_series.rate_per_sec();
      // Latent-demand probe: a shaped port with standing backlog is being
      // held at its programmed rate — the measured rate says nothing about
      // what the worker WANTS. Expand multiplicatively so the allocation
      // can climb back when capacity frees up.
      auto prog = programmed_.find(o.key);
      if (prog != programmed_.end() && prog->second > 0.0 &&
          o.rx_backlog >= kBacklogThreshold) {
        demand = std::max(demand, prog->second * kProbeGain);
      }
      sense.demand_bps = demand;
      topo_demand[o.topology] += demand;
    }
    std::erase_if(ports_, [](const auto& kv) { return !kv.second.live; });
    if (holddown_left_ > 0) {
      // Keep sensing (the series must warm up) but do not reallocate or
      // touch the dataplane: the restored ledger stays authoritative.
      --holddown_left_;
      ++epoch_;
      demand_ = std::move(topo_demand);
      return;
    }
  }

  // ---- 2. DECIDE ----
  std::vector<QosDemand> demands;
  std::map<TopologyId, bool> slo_now;
  for (const auto& [id, demand] : topo_demand) {
    auto spec = ctl_->spec(id);
    const std::string name = spec ? spec->name : std::string{};
    const QosClass& cls = class_of(name);
    double floor = std::max(cls.floor_bps, 0.0);
    bool engaged = false;
    if (cls.slo_p99_ms > 0.0 && cls.slo_floor_bps > 0.0 &&
        policy_.latency_p99_ms) {
      const double p99 = policy_.latency_p99_ms(name);
      bool was = false;
      {
        std::lock_guard lk(mu_);
        auto it = slo_engaged_.find(id);
        was = it != slo_engaged_.end() && it->second;
      }
      // Hysteresis: engage above the SLO, release only once p99 drops well
      // clear of it, so the floor does not flap at the threshold.
      engaged = p99 > cls.slo_p99_ms || (was && p99 > 0.7 * cls.slo_p99_ms);
      if (engaged) floor = std::max(floor, cls.slo_floor_bps);
    }
    slo_now[id] = engaged;
    demands.push_back({id, cls.priority, cls.weight,
                       // An engaged floor IS demand: the topology needs that
                       // rate to hold its SLO even if shaping collapsed the
                       // measured signal below it.
                       std::max(demand, floor), floor});
  }
  std::map<TopologyId, double> alloc =
      QosAllocator::Allocate(policy_.capacity_bps, demands);

  // ---- 3. ACTUATE (delta only) ----
  // A topology is constrained when the allocator granted less than it
  // wants; only constrained topologies get shapers. Everyone else runs
  // unshaped — in an uncongested fabric the rate map is empty and the diff
  // emits nothing, epoch after epoch.
  std::map<PortKey, double> next;
  {
    std::lock_guard lk(mu_);
    for (const QosDemand& d : demands) {
      const double granted = alloc[d.id];
      if (granted >= d.demand_bps - 0.5 * policy_.rate_quantum_bps) continue;
      // Split the topology grant across its MATERIAL ports — those whose
      // own demand is at least kMinRateBps — proportional to per-port
      // demand. Noise-level ports (a sink emitting only acks) are left
      // unshaped: throttling them frees no real capacity and would only
      // starve the ack path.
      double port_demand_sum = 0.0;
      for (const auto& [key, sense] : ports_) {
        if (sense.topology != d.id) continue;
        if (sense.demand_bps < kMinRateBps) continue;
        port_demand_sum += sense.demand_bps;
      }
      if (port_demand_sum <= kEpsBps) continue;
      for (const auto& [key, sense] : ports_) {
        if (sense.topology != d.id) continue;
        if (sense.demand_bps < kMinRateBps) continue;
        next[key] =
            quantize(granted * (sense.demand_bps / port_demand_sum));
      }
    }

    // Stale grace: a port whose demand signal came back is fresh again; one
    // whose signal is absent keeps its programmed rate until the grace runs
    // out, after which the diff below emits its 0-rate clear.
    std::erase_if(stale_,
                  [&](const auto& kv) { return next.contains(kv.first); });
    for (const auto& [key, rate] : programmed_) {
      if (next.contains(key)) continue;
      auto [it, unused] = stale_.try_emplace(key, 0);
      if (++it->second <= kStaleGraceEpochs) {
        next[key] = rate;
      } else {
        stale_.erase(it);
      }
    }

    const std::map<PortKey, double> delta = DiffRates(programmed_, next);
    for (const auto& [key, rate] : delta) {
      if (ctl_->program_port_rate(key.first, key.second, rate)) ++updates_;
    }
    ++epoch_;
    demand_ = std::move(topo_demand);
    alloc_ = std::move(alloc);
    programmed_ = std::move(next);
    slo_engaged_ = std::move(slo_now);
    if (!delta.empty() || epoch_ == 1) write_checkpoint();
  }
}

std::uint64_t QosApp::epochs() const {
  std::lock_guard lk(mu_);
  return epoch_;
}

std::int64_t QosApp::rate_updates() const {
  std::lock_guard lk(mu_);
  return updates_;
}

std::map<TopologyId, double> QosApp::last_allocation() const {
  std::lock_guard lk(mu_);
  return alloc_;
}

std::map<QosApp::PortKey, double> QosApp::programmed_rates() const {
  std::lock_guard lk(mu_);
  return programmed_;
}

double QosApp::demand_bps(TopologyId id) const {
  std::lock_guard lk(mu_);
  auto it = demand_.find(id);
  return it == demand_.end() ? 0.0 : it->second;
}

std::uint64_t QosApp::alloc_fingerprint() const {
  std::lock_guard lk(mu_);
  // Fold only the ENFORCED allocation — the per-topology sums of quantized
  // programmed rates. Satisfied topologies run unshaped and their (noisy,
  // measured) demand must not enter the failover bit-identity check.
  std::map<TopologyId, double> enforced;
  for (const auto& [key, rate] : programmed_) {
    auto it = ports_.find(key);
    if (it != ports_.end()) enforced[it->second.topology] += rate;
  }
  return Fingerprint(enforced);
}

std::string QosApp::dump_json_fragment() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  os << "{\"epoch\":" << epoch_ << ",\"rate_updates\":" << updates_
     << ",\"capacity_bps\":" << policy_.capacity_bps << ",\"topologies\":{";
  bool first = true;
  for (const auto& [id, demand] : demand_) {
    if (!first) os << ",";
    first = false;
    auto a = alloc_.find(id);
    auto s = slo_engaged_.find(id);
    os << "\"" << id << "\":{\"demand_bps\":" << demand << ",\"alloc_bps\":"
       << (a == alloc_.end() ? 0.0 : a->second) << ",\"slo_engaged\":"
       << ((s != slo_engaged_.end() && s->second) ? "true" : "false") << "}";
  }
  os << "},\"shaped_ports\":" << programmed_.size() << "}";
  return os.str();
}

}  // namespace typhoon::controller
