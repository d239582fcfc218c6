// perfbench — the repo benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--hostd <typhoon_hostd>] [--out-dir <dir>]
//
// Prints one JSON line with the run's configuration and every figure it
// measured, then, as the last line, the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the benchmark's spans go to <out-dir>.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

std::string MetricsJson(const perfbench::MetricMap& m) {
  perfbench::JsonObj o;
  for (const auto& [name, metric] : m) {
    o.raw(name, perfbench::JsonObj()
                    .num("value", metric.value)
                    .str("unit", metric.unit)
                    .dump());
  }
  return o.dump();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "wordcount_reliable|broadcast_fanout|proc_wordcount "
               "--seed N --seconds S --trace 0|1 [--hostd PATH] "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opts.workload = v;
    } else if (k == "--seed") {
      opts.seed = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--hostd") {
      opts.hostd = v;
    } else if (k == "--out-dir") {
      opts.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (opts.seconds <= 0) return Usage();

  perfbench::Result res;
  if (opts.workload == "wordcount_reliable") {
    res = perfbench::RunWordcountReliable(opts);
  } else if (opts.workload == "broadcast_fanout") {
    res = perfbench::RunBroadcastFanout(opts);
  } else if (opts.workload == "proc_wordcount") {
    res = perfbench::RunProcWordcount(opts);
  } else {
    return Usage();
  }

  if (opts.trace && !opts.out_dir.empty()) {
    const std::string path = opts.out_dir + "/spans-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".jsonl";
    const std::size_t n = perfbench::GlobalTracer().write(path);
    res.detail.str("spans_file", path).integer("spans", n);
  }
  res.detail.raw("end_to_end", MetricsJson(res.end_to_end))
      .raw("per_layer", MetricsJson(res.per_layer));
  std::printf("%s\n", res.detail.dump().c_str());
  perfbench::JsonObj last;
  last.boolean("correct", res.correct)
      .integer("attempted", res.attempted)
      .integer("failed", res.failed)
      .raw("metrics",
           MetricsJson(opts.trace ? res.per_layer : res.end_to_end));
  std::printf("%s\n", last.dump().c_str());
  std::fflush(stdout);
  return 0;
}
