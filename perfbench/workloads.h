// Workload entry points of the repo benchmark. Each run builds its inputs
// from the seed, measures for the requested time, checks the program's
// outputs and fills a Result that main.cc prints.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "stream/tuple.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string hostd;    // typhoon_hostd binary (proc_wordcount only)
  std::string out_dir;  // where the traced run writes its spans
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  JsonObj detail;  // configuration and per-phase figures, printed verbatim
};

Result RunWordcountReliable(const Options& opts);
Result RunBroadcastFanout(const Options& opts);
Result RunProcWordcount(const Options& opts);

// ---- seeded inputs --------------------------------------------------------

inline constexpr int kVocab = 256;
inline constexpr int kMaxWords = 8;  // words per sentence, occurrence stride

// Vocabulary index of a word, or -1.
int VocabId(std::string_view word);
// Word ids of sentence `seq` under `seed` (4..8 words).
int SentenceWords(std::uint32_t seed, std::uint64_t seq, int* ids);
std::string SentenceText(std::uint32_t seed, std::uint64_t seq);

// ---- layer pump -----------------------------------------------------------

// Per-layer costs measured outside a running cluster, with the workload's
// own tuple shape: TyphoonTransport send/flush/poll through one SoftSwitch,
// and TunnelEndpoint burst send/receive.
struct PumpCosts {
  double serialize_ns = 0.0;  // send + flush, per tuple
  double decode_ns = 0.0;     // poll, per tuple
  double forward_ns = 0.0;    // switch hop wait, per packet
  double burst_ns = 0.0;      // try_send_burst + try_recv_burst, per frame
};

PumpCosts RunLayerPump(
    const std::function<typhoon::stream::Tuple(std::uint64_t)>& shape,
    double seconds);

}  // namespace perfbench
