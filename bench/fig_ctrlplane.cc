// Control-plane reconfiguration cost vs topology size (DESIGN.md Sec 15):
// full recompile-and-reinstall against incremental (delta) compilation for
// a one-worker rebalance, swept over 32..512 workers. The paper's SDN
// controller reprograms switches on every rebalance; the delta path makes
// that cost O(worker-degree), so its curve stays flat while the full
// path's grows linearly with the topology.
//
// Writes BENCH_ctrlplane.json (per-size rules/latency arrays plus the
// scalars CI guards: flatness_ratio — delta FlowMods at 512 workers over
// delta FlowMods at 32, ~1.0 when the tentpole holds — and
// delta_reconfig_us_512).
#include <cstdio>
#include <vector>

#include "controller/rule_compiler.h"
#include "openflow/flow_table.h"
#include "util/harness.h"

namespace typhoon::bench {
namespace {

using controller::RuleCompiler;
using controller::RuleDelta;
using controller::RulesByHost;
using stream::PhysicalTopology;
using stream::TopologySpec;

constexpr int kSrcPar = 4;
constexpr int kHosts = 8;

// src (kSrcPar spouts) -> dst (`dst_par` bolts), shuffle, round-robin over
// kHosts hosts. Deterministic ids/ports so growing dst_par by one is a
// strict superset (the rebalance under test).
void BuildTopology(int dst_par, TopologySpec& spec, PhysicalTopology& phys) {
  spec = {};
  phys = {};
  spec.id = 9;
  spec.name = "sweep";
  spec.nodes = {{1, "src", kSrcPar, true, false},
                {2, "dst", dst_par, false, false}};
  spec.edges = {{1, 2, stream::GroupingType::kShuffle, {},
                 stream::kDefaultStream}};
  phys.id = 9;
  phys.name = "sweep";
  for (int i = 0; i < kSrcPar; ++i) {
    phys.workers.push_back({static_cast<WorkerId>(100 + i), 1, i,
                            static_cast<HostId>(1 + i % kHosts),
                            static_cast<PortId>(1100 + i)});
  }
  for (int i = 0; i < dst_par; ++i) {
    phys.workers.push_back({static_cast<WorkerId>(1000 + i), 2, i,
                            static_cast<HostId>(1 + i % kHosts),
                            static_cast<PortId>(2000 + i)});
  }
}

// One host's rules as one bundle of `cmd` FlowMods: what the controller
// sends that host's switch in one phase.
openflow::Bundle AsBundle(const std::vector<openflow::FlowRule>& rules,
                          openflow::FlowModCommand cmd) {
  openflow::Bundle b;
  b.flows.reserve(rules.size());
  for (const openflow::FlowRule& r : rules) b.flows.push_back({cmd, r});
  return b;
}

std::size_t CountRules(const RulesByHost& rules) {
  std::size_t n = 0;
  for (const auto& [h, rs] : rules) n += rs.size();
  return n;
}

struct Row {
  int workers = 0;
  std::size_t full_rules = 0;   // FlowMods a full reinstall emits
  std::size_t delta_rules = 0;  // FlowMods the delta path emits
  double full_us = 0;           // recompile + reinstall into live tables
  double delta_us = 0;          // recompile delta + apply to live tables
};

// One sweep point: deploy at `workers`, then rebalance to workers+1.
Row MeasurePoint(int workers, int iters) {
  Row row;
  row.workers = workers;

  TopologySpec spec_n;
  PhysicalTopology phys_n;
  BuildTopology(workers, spec_n, phys_n);
  TopologySpec spec_n1;
  PhysicalTopology phys_n1;
  BuildTopology(workers + 1, spec_n1, phys_n1);

  constexpr auto kAdd = openflow::FlowModCommand::kAdd;
  constexpr auto kDelete = openflow::FlowModCommand::kDelete;

  // ---- full path: recompile everything, reinstall every rule ----
  // Each host's table takes one bundle per install, as a switch does.
  {
    RuleCompiler c;
    const RulesByHost deployed = c.compile(spec_n, phys_n);
    row.full_rules = CountRules(c.compile(spec_n1, phys_n1));
    const common::TimePoint t0 = common::Now();
    for (int i = 0; i < iters; ++i) {
      // Tables already hold the N-worker set (idempotent adds replace).
      std::map<HostId, openflow::FlowTable> tables;
      for (const auto& [h, rs] : deployed) tables[h].apply(AsBundle(rs, kAdd));
      const RulesByHost fresh = c.compile(spec_n1, phys_n1);
      for (const auto& [h, rs] : fresh) tables[h].apply(AsBundle(rs, kAdd));
    }
    row.full_us = common::SecondsSince(t0) * 1e6 / iters;
  }

  // ---- delta path: diff against cached state, apply only the changes ----
  {
    RuleCompiler c;
    const RulesByHost deployed = c.compile_delta(spec_n, phys_n).adds;
    row.delta_rules = c.compile_delta(spec_n1, phys_n1).total();
    std::map<HostId, openflow::FlowTable> tables;
    for (const auto& [h, rs] : deployed) tables[h].apply(AsBundle(rs, kAdd));
    const common::TimePoint t0 = common::Now();
    for (int i = 0; i < iters; ++i) {
      RuleCompiler fresh;
      fresh.compile_delta(spec_n, phys_n);
      const RuleDelta d = fresh.compile_delta(spec_n1, phys_n1);
      // One bundle per host per phase, phases in the controller's order.
      for (const auto& [h, rs] : d.adds) tables[h].apply(AsBundle(rs, kAdd));
      for (const auto& [h, rs] : d.mods) tables[h].apply(AsBundle(rs, kAdd));
      for (const auto& [h, rs] : d.dels) {
        tables[h].apply(AsBundle(rs, kDelete));
      }
    }
    // Delta timing includes the cache seed (a first compile_delta) so the
    // full and delta columns both pay one fresh compile; the difference
    // isolates diff+apply vs reinstall-the-world. Report it net of the seed
    // by measuring the seed alone and subtracting.
    const double with_seed_us = common::SecondsSince(t0) * 1e6 / iters;
    const common::TimePoint s0 = common::Now();
    for (int i = 0; i < iters; ++i) {
      RuleCompiler seed_only;
      seed_only.compile_delta(spec_n, phys_n);
    }
    const double seed_us = common::SecondsSince(s0) * 1e6 / iters;
    row.delta_us = with_seed_us - seed_us;
    if (row.delta_us < 0) row.delta_us = 0;
  }
  return row;
}

}  // namespace
}  // namespace typhoon::bench

int main() {
  using namespace typhoon::bench;
  PrintBanner(
      "Rebalance cost vs topology size: full reinstall vs delta compile",
      "Typhoon (CoNEXT'17) Sec 3.4/3.5 + DESIGN.md Sec 15");

  const std::vector<int> sizes = {32, 64, 128, 256, 512};
  constexpr int kIters = 50;
  std::vector<Row> rows;
  std::printf("\n%8s  %12s  %12s  %12s  %12s\n", "workers", "full rules",
              "delta rules", "full us", "delta us");
  for (int n : sizes) {
    rows.push_back(MeasurePoint(n, kIters));
    const Row& r = rows.back();
    std::printf("%8d  %12zu  %12zu  %12.1f  %12.1f\n", r.workers,
                r.full_rules, r.delta_rules, r.full_us, r.delta_us);
  }

  const Row& first = rows.front();
  const Row& last = rows.back();
  const double flatness = static_cast<double>(last.delta_rules) /
                          static_cast<double>(first.delta_rules);
  std::printf("\n  delta flatness ratio (512w/32w FlowMods): %.2f "
              "(1.0 = perfectly flat)\n", flatness);
  std::printf("  512-worker rebalance: full %.1f us / delta %.1f us "
              "(%.0fx)\n", last.full_us, last.delta_us,
              last.delta_us > 0 ? last.full_us / last.delta_us : 0.0);

  std::FILE* f = std::fopen("BENCH_ctrlplane.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_ctrlplane.json");
    return 1;
  }
  std::fprintf(f, "{\n  \"workers\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%d", i ? ", " : "", rows[i].workers);
  }
  std::fprintf(f, "],\n  \"full_rules\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%zu", i ? ", " : "", rows[i].full_rules);
  }
  std::fprintf(f, "],\n  \"delta_rules\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%zu", i ? ", " : "", rows[i].delta_rules);
  }
  std::fprintf(f, "],\n  \"full_reconfig_us\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%.1f", i ? ", " : "", rows[i].full_us);
  }
  std::fprintf(f, "],\n  \"delta_reconfig_us\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s%.1f", i ? ", " : "", rows[i].delta_us);
  }
  std::fprintf(f,
               "],\n"
               "  \"flatness_ratio\": %.3f,\n"
               "  \"delta_reconfig_us_512\": %.1f,\n"
               "  \"full_reconfig_us_512\": %.1f\n"
               "}\n",
               flatness, last.delta_us, last.full_us);
  std::fclose(f);
  std::printf("  wrote BENCH_ctrlplane.json\n");
  return 0;
}
