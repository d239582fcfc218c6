// Component micro-benchmarks (google-benchmark): serialization cost — the
// paper's motivating bottleneck (Sec 1: "serialization is known as the main
// bottleneck for data object transfer") — plus rings, packetizer, flow
// table, groups, coordinator, and the KafkaLite/RedisLite substrates.
#include <benchmark/benchmark.h>

#include "common/spsc_ring.h"
#include "coordinator/coordinator.h"
#include "kafkalite/broker.h"
#include "net/packetizer.h"
#include "openflow/flow_table.h"
#include "openflow/group_table.h"
#include "redislite/store.h"
#include "stream/tuple.h"
#include "switchd/microflow_cache.h"

namespace typhoon {
namespace {

stream::Tuple SampleTuple() {
  return stream::Tuple{std::string("the quick brown fox"), std::int64_t{42},
                       3.14};
}

// Typhoon: one serialization regardless of destination count.
void BM_SerializeTyphoon(benchmark::State& state) {
  const stream::Tuple t = SampleTuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::SerializeTyphoon(t, 1, 2));
  }
}
BENCHMARK(BM_SerializeTyphoon);

// Storm broadcast to N destinations: N serializations with distinct
// metadata (Fig 9's root cause). Typhoon's cost for the same fanout is the
// N=1 case above.
void BM_SerializeStormFanout(benchmark::State& state) {
  const stream::Tuple t = SampleTuple();
  const int fanout = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int d = 0; d < fanout; ++d) {
      stream::StormEnvelope env;
      env.src = 1;
      env.dst = static_cast<WorkerId>(100 + d);
      env.stream = 1;
      benchmark::DoNotOptimize(stream::SerializeStorm(t, env));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeStormFanout)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_DeserializeTyphoon(benchmark::State& state) {
  const common::Bytes data = stream::SerializeTyphoon(SampleTuple(), 1, 2);
  for (auto _ : state) {
    stream::Tuple t;
    std::uint64_t root = 0;
    std::uint64_t edge = 0;
    benchmark::DoNotOptimize(
        stream::DeserializeTyphoon(data, t, root, edge));
  }
}
BENCHMARK(BM_DeserializeTyphoon);

void BM_TupleFieldHash(benchmark::State& state) {
  const stream::Tuple t = SampleTuple();
  const std::vector<std::uint32_t> keys{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.hash_fields(keys));
  }
}
BENCHMARK(BM_TupleFieldHash);

void BM_SpscRingPushPop(benchmark::State& state) {
  common::SpscRing<net::PacketPtr> ring(1024);
  auto pkt = net::MakePacket(net::Packet{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(pkt));
    benchmark::DoNotOptimize(ring.try_pop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_PacketizerBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::size_t packets = 0;
  net::PacketizerConfig cfg;
  cfg.batch_tuples = batch;
  net::Packetizer pk(WorkerAddress{1, 1}, cfg,
                     [&](net::PacketPtr) { ++packets; });
  net::TupleRecord rec;
  rec.src = WorkerAddress{1, 1};
  rec.dst = WorkerAddress{1, 2};
  rec.stream_id = 1;
  rec.data = stream::SerializeTyphoon(SampleTuple(), 0, 0);
  for (auto _ : state) {
    pk.add(rec);
  }
  pk.flush();
  state.SetItemsProcessed(state.iterations());
  state.counters["packets"] = static_cast<double>(packets);
}
BENCHMARK(BM_PacketizerBatch)->Arg(1)->Arg(100)->Arg(1000);

// Reusing the caller-owned buffer skips the per-tuple Bytes allocation that
// SerializeTyphoon pays (the transport send-scratch path).
void BM_SerializeTyphoonReuse(benchmark::State& state) {
  const stream::Tuple t = SampleTuple();
  common::Bytes out;
  for (auto _ : state) {
    stream::SerializeTyphoonInto(t, 1, 2, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SerializeTyphoonReuse);

openflow::FlowTable BuildExactTable(int rules) {
  openflow::FlowTable table;
  for (int i = 0; i < rules; ++i) {
    openflow::FlowRule r;
    r.match.in_port = static_cast<PortId>(100 + i);
    r.match.dl_src = WorkerAddress{1, static_cast<WorkerId>(i)}.packed();
    r.match.dl_dst =
        WorkerAddress{1, static_cast<WorkerId>(i + 1)}.packed();
    r.match.ether_type = net::kTyphoonEtherType;
    r.actions = {openflow::ActionOutput{1}};
    table.add(r);
  }
  return table;
}

// Cost of publishing a new immutable snapshot — paid once per FlowMod, off
// the forwarding path.
void BM_FlowTableSnapshotBuild(benchmark::State& state) {
  openflow::FlowTable table =
      BuildExactTable(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.snapshot());
  }
}
BENCHMARK(BM_FlowTableSnapshotBuild)->Arg(8)->Arg(64)->Arg(512);

// The switch's classifier on a microflow-cache miss: one lookup_batch pass
// over the published snapshot, here for a single packet matching the last
// rule (worst case).
void BM_FlowTableLookup(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  openflow::FlowTable table = BuildExactTable(rules);
  auto snap = table.snapshot();
  net::Packet pkt;
  pkt.src = WorkerAddress{1, static_cast<WorkerId>(rules - 1)};
  pkt.dst = WorkerAddress{1, static_cast<WorkerId>(rules)};
  const PortId in_port = static_cast<PortId>(100 + rules - 1);
  const net::Packet* pkts[] = {&pkt};
  const openflow::FlowSnapshotEntry* hits[] = {nullptr};
  for (auto _ : state) {
    snap->lookup_batch(pkts, in_port, hits);
    benchmark::DoNotOptimize(hits[0]);
  }
}
BENCHMARK(BM_FlowTableLookup)->Arg(8)->Arg(64)->Arg(512);

// The tier-1 hit path: one hash, one generation compare, one key compare.
void BM_MicroflowCacheHit(benchmark::State& state) {
  switchd::MicroflowCache cache(switchd::MicroflowCache::kDefaultEntries);
  switchd::MicroflowKey key;
  key.in_port = 3;
  key.ether_type = net::kTyphoonEtherType;
  key.src = WorkerAddress{1, 1}.packed();
  key.dst = WorkerAddress{1, 2}.packed();
  auto actions = std::make_shared<const std::vector<openflow::FlowAction>>(
      std::vector<openflow::FlowAction>{openflow::ActionOutput{7}});
  auto stats = std::make_shared<openflow::RuleStats>();
  cache.insert(key, /*generation=*/1, actions, stats);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key, /*generation=*/1));
  }
}
BENCHMARK(BM_MicroflowCacheHit);

void BM_GroupSelectWrr(benchmark::State& state) {
  openflow::GroupTable groups;
  openflow::GroupMod mod;
  mod.group_id = 1;
  for (int i = 0; i < 4; ++i) {
    mod.buckets.push_back(
        {static_cast<std::uint32_t>(i + 1),
         {openflow::ActionOutput{static_cast<PortId>(i)}}});
  }
  groups.apply(mod);
  for (auto _ : state) {
    benchmark::DoNotOptimize(groups.select(1));
  }
}
BENCHMARK(BM_GroupSelectWrr);

void BM_CoordinatorPut(benchmark::State& state) {
  coordinator::Coordinator coord;
  std::int64_t i = 0;
  for (auto _ : state) {
    coord.put_str("/bench/key", std::to_string(i++));
  }
}
BENCHMARK(BM_CoordinatorPut);

void BM_CoordinatorWatchDispatch(benchmark::State& state) {
  coordinator::Coordinator coord;
  std::int64_t hits = 0;
  coord.watch("/bench/key",
              [&](const std::string&, coordinator::WatchEvent,
                  const common::Bytes&) { ++hits; });
  coord.put_str("/bench/key", "0");
  for (auto _ : state) {
    coord.put_str("/bench/key", "x");
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CoordinatorWatchDispatch);

void BM_KafkaProduceFetch(benchmark::State& state) {
  kafkalite::Broker broker;
  (void)broker.create_topic("t", 4);
  std::int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.produce("t", "key", "value-bytes"));
    auto r = broker.fetch("t", 0, off, 8);
    if (r.ok() && !r.value().empty()) off = r.value().back().offset + 1;
  }
}
BENCHMARK(BM_KafkaProduceFetch);

void BM_RedisHincrby(benchmark::State& state) {
  redislite::Store store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.hincrby("campaign", "views", 1));
  }
}
BENCHMARK(BM_RedisHincrby);

}  // namespace
}  // namespace typhoon

BENCHMARK_MAIN();
