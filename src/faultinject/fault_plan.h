// FaultPlan — an ordered fault schedule shared by benches and chaos tests
// (the scripted counterpart of the paper's Sec 6.2 experiments, where a
// worker is killed at a known point of a running word-count topology).
//
// A plan is a list of events, each with one trigger (`at_tuples` against a
// harness-supplied progress probe, or `at_ms` against elapsed run time) and
// one fault: wire impairment on a tunnel or switch port, a process-level
// worker fault (crash / hang / slowdown), a controller partition, or a
// whole-host failure. Plans parse from a small line-oriented text format so
// the same schedule can live next to a bench as a string literal:
//
//   # comment
//   at_ms=1500   fault=crash worker=wordcount/split/0 repeat_ms=200
//   at_tuples=2e4 fault=impair_tunnel hosts=1-2 drop=0.10 seed=7
//   at_ms=3000   fault=partition host=2 duration_ms=200
//
// Execution lives above this library (typhoon::FaultPlanRunner) because
// applying events needs the Cluster facade; this file is pure data + parse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "faultinject/impairment.h"

namespace typhoon::faultinject {

enum class FaultKind : std::uint8_t {
  kImpairTunnel,         // hosts=a-b + impairment probabilities
  kImpairPort,           // host= port= + impairment probabilities
  kCrashWorker,          // worker=topology/node/task
  kHangWorker,           // worker=... duration_ms=
  kSlowWorker,           // worker=... slow_us= (0 clears)
  kPartitionController,  // host= [duration_ms= for auto-heal]
  kHealController,       // host=
  kFailHost,             // host=
  kCrashController,      // kill the leader controller
};

[[nodiscard]] const char* FaultKindName(FaultKind k);

struct FaultEvent {
  // Trigger: whichever of the two is set (>= 0) arms the event; with both
  // set it fires on the earlier condition.
  std::int64_t at_tuples = -1;
  std::int64_t at_ms = -1;

  FaultKind kind = FaultKind::kCrashWorker;

  // Worker target (crash/hang/slow).
  std::string topology;
  std::string node;
  int task_index = 0;

  // Host/port targets.
  HostId host_a = 0;
  HostId host_b = 0;
  PortId port = 0;

  ImpairmentConfig impair;
  // kHangWorker: hang length. kPartitionController: auto-heal after this
  // long (0 = stay partitioned until an explicit heal event).
  std::int64_t duration_ms = 0;
  // kCrashWorker: re-fire every repeat_ms (a persistent code bug that kills
  // the worker again after every restart, Sec 6.2). 0 = one-shot.
  std::int64_t repeat_ms = 0;
  std::int64_t slow_us = 0;  // kSlowWorker: per-tuple stall
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  // Parse the text format above. Unknown keys or malformed values fail the
  // whole parse (a silently ignored fault would void a chaos test).
  static common::Result<FaultPlan> Parse(std::string_view text);
};

}  // namespace typhoon::faultinject
