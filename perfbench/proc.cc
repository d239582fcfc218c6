// proc_wordcount: three typhoon_hostd children over TCP socket tunnels run
// the built-in seeded word count (ProcessCluster::submit_wordcount). The
// app cannot be paced or timestamped from outside, so the run is closed
// loop: it reports unique occurrences counted per second over the steady
// middle of one fixed-size job, polled through results().
#include <cstdio>
#include <thread>

#include "typhoon/proc_apps.h"
#include "typhoon/process_cluster.h"
#include "workloads.h"

namespace perfbench {

namespace {

using typhoon::proc::ProcessCluster;
using typhoon::proc::WordCountParams;

constexpr int kHosts = 3;
constexpr int kSetups = 3;
// Part of the workload definition: the job size sets the steady window
// (~2.4M occurrences) and the O(sentences) expectation precompute that
// setup_s includes.
constexpr std::int64_t kSentences = 300000;
constexpr double kConvergeTimeoutS = 120.0;

WordCountParams Params(std::uint32_t seed, int attempt) {
  WordCountParams p;
  p.topology = "perfbench_wc" + std::to_string(attempt);
  p.sentences = kSentences;
  p.seed = seed;
  return p;
}

typhoon::stream::SubmitOptions Reliable() {
  typhoon::stream::SubmitOptions so;
  so.reliable = true;
  return so;
}

struct HostCounters {
  double cpu_ms = 0.0;
  std::int64_t ctx_switches = 0;
};

HostCounters SampleHosts(const ProcessCluster& pc) {
  HostCounters c;
  for (const auto h : pc.hosts()) {
    const pid_t pid = pc.host_pid(h);
    if (pid <= 0) continue;
    c.cpu_ms += PidCpuMs(pid);
    c.ctx_switches += ContextSwitches(pid);
  }
  return c;
}

}  // namespace

Result RunProcWordcount(const Options& opts) {
  Result res;
  GlobalTracer().set_on(opts.trace);
  std::int64_t failed_ops = 0;
  std::vector<double> setup_s, start_ms, submit_ms;
  std::unique_ptr<ProcessCluster> pc;
  WordCountParams params;

  res.detail.str("workload", "proc_wordcount")
      .integer("seed", opts.seed)
      .num("seconds", opts.seconds)
      .boolean("trace", opts.trace)
      .integer("nproc", HardwareThreads())
      .integer("hosts", kHosts)
      .str("transport", "socket")
      .integer("sentences", kSentences)
      .str("closed_loop", "max_pending=2048 (default)");

  // Each setup: construct -> start -> submit the measured job -> first
  // published result. The last successful one is kept and measured.
  for (int attempt = 0;
       static_cast<int>(setup_s.size()) < kSetups && attempt < kSetups + 2;
       ++attempt) {
    typhoon::proc::ProcessClusterConfig cfg;
    cfg.num_hosts = kHosts;
    cfg.transport = typhoon::proc::ProcTransport::kSocket;
    cfg.hostd_path = opts.hostd;
    const std::int64_t t0 = NowNs();
    auto c = std::make_unique<ProcessCluster>(cfg);
    const std::int64_t t1 = NowNs();
    if (const auto st = c->start(); !st.ok()) {
      std::fprintf(stderr, "perfbench: ProcessCluster::start failed: %s\n",
                   st.message().c_str());
      ++failed_ops;
      continue;
    }
    const std::int64_t t2 = NowNs();
    const WordCountParams p = Params(opts.seed, attempt);
    const auto id = c->submit_wordcount(p, Reliable());
    const std::int64_t t3 = NowNs();
    if (!id.ok()) {
      std::fprintf(stderr, "perfbench: submit_wordcount failed: %s\n",
                   id.status().message().c_str());
      ++failed_ops;
      c->stop();
      continue;
    }
    while (!c->results(p.topology).ok() && NowNs() - t0 < 30e9) SleepMs(1);
    if (!c->results(p.topology).ok()) {
      std::fprintf(stderr, "perfbench: no published result within 30 s\n");
      ++failed_ops;
      c->stop();
      continue;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    start_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    submit_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    if (static_cast<int>(setup_s.size()) < kSetups) {
      c->stop();
    } else {
      pc = std::move(c);
      params = p;
    }
  }
  if (pc == nullptr) {
    res.correct = false;
    res.attempted = failed_ops;
    res.failed = failed_ops;
    return res;
  }

  std::atomic<std::int64_t> coord_writes{0};
  const auto watch = pc->coordinator().watch(
      "/",
      [&](const std::string&, typhoon::coordinator::WatchEvent ev,
          const typhoon::common::Bytes&) {
        if (ev == typhoon::coordinator::WatchEvent::kCreated ||
            ev == typhoon::coordinator::WatchEvent::kDataChanged) {
          coord_writes.fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*prefix=*/true);

  // Steady window: from 10% to 90% of the expected unique occurrences.
  const std::int64_t want = typhoon::proc::ExpectedUnique(params);
  const auto want_counts = typhoon::proc::ExpectedCounts(params);
  double t_lo = 0, t_hi = 0, u_lo = 0, u_hi = 0;
  HostCounters h_lo, h_hi;
  double cpu_lo = 0, cpu_hi = 0;
  std::int64_t cw_lo = 0, cw_hi = 0, ctx_lo = 0, ctx_hi = 0;
  bool exact = false;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(kConvergeTimeoutS * 1e9);
  while (NowNs() < deadline) {
    const auto r = pc->results(params.topology);
    if (r.ok()) {
      const auto u = static_cast<double>(r.value().first);
      const double t = static_cast<double>(NowNs()) / 1e9;
      if (t_lo == 0 && u >= 0.1 * static_cast<double>(want)) {
        t_lo = t;
        u_lo = u;
        h_lo = SampleHosts(*pc);
        cpu_lo = ProcessCpuMs();
        cw_lo = coord_writes.load();
        ctx_lo = h_lo.ctx_switches;
      }
      if (t_lo != 0 && t_hi == 0 && u >= 0.9 * static_cast<double>(want)) {
        t_hi = t;
        u_hi = u;
        h_hi = SampleHosts(*pc);
        cpu_hi = ProcessCpuMs();
        cw_hi = coord_writes.load();
        ctx_hi = h_hi.ctx_switches;
      }
      if (r.value().first == want && r.value().second == want_counts) {
        exact = true;
        break;
      }
    }
    SleepMs(1);
  }
  pc->coordinator().unwatch(watch);
  (void)pc->kill(params.topology);
  pc->stop();

  const double done = u_hi - u_lo;
  const double dt = t_hi - t_lo;
  const double peak = dt > 0 ? done / dt : 0.0;
  const double cpu = (cpu_hi - cpu_lo) + (h_hi.cpu_ms - h_lo.cpu_ms);
  if (!exact) {
    std::fprintf(stderr, "perfbench: counts did not converge exactly\n");
    ++failed_ops;
  }
  res.correct = exact;
  res.attempted = want + failed_ops;
  res.failed = (exact ? 0 : want) + failed_ops;

  res.end_to_end["setup_s"] = {Median(setup_s), "s"};
  res.end_to_end["peak_tps"] = {peak, "1/s"};
  res.end_to_end["cpu_ms_per_ktuple"] = {done > 0 ? cpu / (done / 1e3) : 0.0,
                                         "ms"};
  res.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  res.detail.raw("setup_s_samples", JsonNumArray(setup_s))
      .num("steady_window_s", dt)
      .integer("expected_unique", want)
      .integer("failed_ops", failed_ops)
      .num("failed_ratio", static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted));
  if (opts.trace) {
    auto& L = res.per_layer;
    L["net.ctx_switches_per_ktuple"] = {
        done > 0 ? static_cast<double>(ctx_hi - ctx_lo) / (done / 1e3) : 0.0,
        "count"};
    L["coordinator.writes_per_s"] = {
        dt > 0 ? static_cast<double>(cw_hi - cw_lo) / dt : 0.0, "1/s"};
    L["typhoon.start_ms"] = {Median(start_ms), "ms"};
    L["typhoon.submit_ms"] = {Median(submit_ms), "ms"};
  }
  return res;
}

}  // namespace perfbench
