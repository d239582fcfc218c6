// Table 3: the SDN flow rules Typhoon installs for data and control tuples.
// Compiles and prints the full rule set for the Fig 2 word-count topology
// deployed across three hosts, then measures rule install and lookup cost
// on a live switch table.
#include <cstdio>

#include "controller/rule_compiler.h"
#include "openflow/flow_table.h"
#include "stream/scheduler.h"
#include "stream/tuple.h"
#include "util/harness.h"

namespace typhoon::bench {
namespace {

using controller::RuleCompiler;
using controller::RulesByHost;
using stream::EdgeSpec;
using stream::GroupingType;
using stream::PhysicalTopology;
using stream::TopologySpec;

// Fig 2 word count: input(1) -> split(2) -> count(2) -> aggregator(1),
// plus one all-grouping tap to show the one-to-many rule.
TopologySpec WordCountSpec() {
  TopologySpec s;
  s.id = 1;
  s.name = "wordcount";
  s.nodes = {{1, "input", 1, true, false},
             {2, "split", 2, false, false},
             {3, "count", 2, false, true},
             {4, "aggregator", 1, false, true},
             {5, "monitor", 2, false, false}};
  s.edges = {{1, 2, GroupingType::kShuffle, {}, stream::kDefaultStream},
             {2, 3, GroupingType::kFields, {0}, stream::kDefaultStream},
             {3, 4, GroupingType::kGlobal, {}, stream::kDefaultStream},
             {1, 5, GroupingType::kAll, {}, stream::kDefaultStream}};
  return s;
}

PhysicalTopology Schedule(const TopologySpec& spec) {
  PhysicalTopology p;
  p.id = spec.id;
  p.name = spec.name;
  WorkerId next = 1;
  int host = 0;
  for (const stream::NodeSpec& n : spec.nodes) {
    for (int t = 0; t < n.parallelism; ++t) {
      stream::PhysicalWorker w;
      w.id = next++;
      w.node = n.id;
      w.task_index = t;
      w.host = static_cast<HostId>(host++ % 3 + 1);
      w.port = stream::IdAllocator::port_for(w.id);
      p.workers.push_back(w);
    }
  }
  return p;
}

void PrintRules() {
  const TopologySpec spec = WordCountSpec();
  const PhysicalTopology phys = Schedule(spec);
  RuleCompiler compiler;
  const RulesByHost rules = compiler.compile(spec, phys);

  std::size_t total = 0;
  for (const auto& [host, host_rules] : rules) {
    std::printf("\n-- switch on host %u (%zu rules) --\n", host,
                host_rules.size());
    for (const auto& r : host_rules) {
      std::printf("  %s\n", r.str().c_str());
      ++total;
    }
  }
  std::printf("\ntotal rules for the topology: %zu\n", total);
}

void MicroBench() {
  const TopologySpec spec = WordCountSpec();
  const PhysicalTopology phys = Schedule(spec);
  RuleCompiler compiler;

  // Compile cost.
  constexpr int kCompileIters = 2000;
  const common::TimePoint c0 = common::Now();
  std::size_t sink = 0;
  for (int i = 0; i < kCompileIters; ++i) {
    sink += compiler.compile(spec, phys).size();
  }
  const double compile_us =
      common::SecondsSince(c0) * 1e6 / kCompileIters;

  // Install cost into a flow table.
  const RulesByHost rules = compiler.compile(spec, phys);
  constexpr int kInstallIters = 2000;
  const common::TimePoint i0 = common::Now();
  for (int i = 0; i < kInstallIters; ++i) {
    openflow::FlowTable table;
    for (const auto& [host, hr] : rules) {
      for (const auto& r : hr) table.add(r);
    }
    sink += table.size();
  }
  const double install_us =
      common::SecondsSince(i0) * 1e6 / kInstallIters;

  // Lookup cost on the host-1 table, through the switch's classifier.
  openflow::FlowTable table;
  for (const auto& r : rules.at(1)) table.add(r);
  const auto snap = table.snapshot();
  net::Packet pkt;
  pkt.src = WorkerAddress{1, 1};
  pkt.dst = WorkerAddress{1, 2};
  const net::Packet* pkts[] = {&pkt};
  const openflow::FlowSnapshotEntry* hit[] = {nullptr};
  constexpr int kLookups = 2000000;
  const common::TimePoint l0 = common::Now();
  std::size_t hits = 0;
  for (int i = 0; i < kLookups; ++i) {
    snap->lookup_batch(pkts, 101, hit);
    hits += hit[0] != nullptr;
  }
  const double lookup_ns = common::SecondsSince(l0) * 1e9 / kLookups;

  std::printf("\n-- rule management cost --\n");
  std::printf("  full-topology compile : %8.1f us\n", compile_us);
  std::printf("  full-topology install : %8.1f us\n", install_us);
  std::printf("  single rule lookup    : %8.1f ns (%zu hits, sink %zu)\n",
              lookup_ns, hits, sink);
}

}  // namespace
}  // namespace typhoon::bench

int main() {
  using namespace typhoon::bench;
  PrintBanner("SDN flow rules installed for data/control tuples",
              "Typhoon (CoNEXT'17) Table 3");
  PrintRules();
  MicroBench();
  return 0;
}
