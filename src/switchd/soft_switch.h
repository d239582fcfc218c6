// SoftSwitch — the per-host software SDN switch (DPDK-OVS analog, Fig 3/7).
//
// Workers attach to the switch through SPSC packet rings (the DPDK shared-
// memory ring ports of the paper). One forwarding thread per switch polls
// every port ring and tunnel and owns all of the datapath's hot state: the
// microflow cache, the tunnel-RX packet pool, the egress backlog and the
// stat counters. Other threads read the counters (relaxed atomics) only.
//
// The loop is stage-batched over bursts of up to cfg.poll_burst frames (the
// DPDK/OVS burst idiom the paper's data plane rides):
//   1. bulk dequeue — one ring-synchronization round drains a whole burst
//      from a worker ring (SpscRing::pop_bulk) or a tunnel
//      (TunnelEndpoint::try_recv_burst into pooled packets);
//   2. batched classification — microflow keys are extracted and probed
//      for the whole burst first; only the misses take one shared pass over
//      the immutable table snapshot (FlowSnapshot::lookup_batch) and are
//      installed in bulk;
//   3. egress coalescing — action application bins packets by destination
//      (local port or tunnel endpoint); each bin flushes once per burst:
//      tunnels via try_send_burst, port rings with per-bin (not per-packet)
//      stat flushes. Binning preserves per-destination FIFO: packets enter
//      a bin in processing order and each bin flushes in order, once,
//      before the next burst.
//
// Forwarding fast path (DESIGN.md "Forwarding fast path"): classification
// is two-tier and lock-free. Tier 1 is an exact-match microflow cache
// mapping the header tuple straight to the rule's shared action list.
// Tier 2 is the immutable flow snapshot of the switch's one published View.
//
// The View is the switch's whole control state: flow snapshot and group
// table, ports with the output tables and the poll list, tunnels, ingress
// impairment shapers and ingress rate shapers. Control-plane calls build the
// next View under `mu_` (parts they do not change are shared, not copied)
// and publish it with one atomic generation. The forwarding thread adopts
// the latest View with one compare at the top of its loop and at the start
// of each burst, so a packet popped after a change was published is
// processed against that change. Microflow entries are stamped with the
// View's table epoch, which only flow and group changes advance: attaching
// a port or changing a shaper leaves every cached microflow warm. The
// thread keeps a private copy of the group table, re-copied only when the
// View's groups change, so select-group WRR credit has one writer;
// everything else in the View is shared read-only.
//
// A full egress ring does not drop: the thread holds the packet and pauses
// its ingress polling so the pressure reaches senders' back-pressure loops;
// only a backlog older than `kEgressHold` reverts to the at-most-once drop
// (see DESIGN.md "End-to-end back-pressure"). A tunnel bin that meets a
// full tunnel sends the frame at its head with the blocking send, then
// resumes bursting, keeping the TCP back-pressure semantics.
//
// An idle switch parks: after a short spin-then-backoff ramp, the thread
// blocks on the switch's WakeupGate, signaled by worker ring pushes, peer
// tunnel enqueues, and controller PacketOut injection — so an idle switch
// burns ~zero CPU instead of a spinning core.
//
// Control-plane calls (rule bundles, PacketOut, stats) may come from
// any thread; they serialize on `mu_`, which the forwarding thread takes
// only to adopt a newly published View.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/mpmc_queue.h"
#include "common/spsc_ring.h"
#include "common/token_bucket.h"
#include "common/wakeup_gate.h"
#include "faultinject/impairment.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/tunnel.h"
#include "openflow/flow.h"
#include "openflow/flow_table.h"
#include "openflow/group_table.h"
#include "switchd/microflow_cache.h"
#include "switchd/switch_control.h"
#include "trace/flight_recorder.h"

namespace typhoon::switchd {

// Worker-side view of a switch port: a TX ring toward the switch and an RX
// ring from it. Obtained from SoftSwitch::attach_port.
class PortHandle {
 public:
  // Send a packet into the switch; wakes the forwarding thread if it may be
  // parked. False = ring full or port detached (the caller keeps or drops
  // the packet; mirrors NIC TX-queue overflow).
  bool send(net::PacketPtr p);
  // True once the switch has detached this port (no further sends succeed).
  [[nodiscard]] bool closed() const;

  std::optional<net::PacketPtr> recv();
  std::size_t recv_bulk(std::vector<net::PacketPtr>& out, std::size_t max);

  [[nodiscard]] PortId id() const { return id_; }
  [[nodiscard]] std::size_t rx_queue_depth() const;

 private:
  friend class SoftSwitch;
  struct Port;
  PortHandle(PortId id, std::shared_ptr<Port> port)
      : id_(id), port_(std::move(port)) {}

  PortId id_;
  std::shared_ptr<Port> port_;
};

struct SoftSwitchConfig {
  HostId host = 0;
  std::size_t ring_capacity = 8192;
  // Max packets drained per port per poll round — also the batch width of
  // the classify and egress-coalescing stages.
  std::size_t poll_burst = 64;
  // Cross-layer tracing ring (single writer by contract): the forwarding
  // thread records the switch-level spans. Null disables them.
  std::shared_ptr<trace::FlightRecorder> trace_recorder;
};

class SoftSwitch : public SwitchControl {
 public:
  explicit SoftSwitch(SoftSwitchConfig cfg);
  ~SoftSwitch() override;

  SoftSwitch(const SoftSwitch&) = delete;
  SoftSwitch& operator=(const SoftSwitch&) = delete;

  void start();
  void stop();

  // ---- dataplane attachment ----
  std::shared_ptr<PortHandle> attach_port() override;
  // Attach requesting a specific port number (scheduler-assigned); returns
  // nullptr if taken.
  std::shared_ptr<PortHandle> attach_port(PortId requested) override;
  void detach_port(PortId port) override;

  // Register the tunnel endpoint that reaches `peer`. All tunnels share the
  // single logical tunnel port (Table 3's "tunneling port").
  void add_tunnel(HostId peer, std::shared_ptr<net::TunnelEndpoint> ep);

  // ---- fault injection ----
  // Attach a deterministic impairment stage to a port's ingress: it shapes
  // worker->switch traffic as the port is polled. Returns the decision
  // engine for counter probes; valid until the impairment is cleared or the
  // switch destroyed. Thread-safe; the forwarding path pays nothing while no
  // impairment is configured.
  faultinject::Impairment* set_port_ingress_impairment(
      PortId port, const faultinject::ImpairmentConfig& cfg);
  void clear_port_impairments(PortId port);

  // ---- QoS: per-port ingress rate shaping ----
  // Cap the byte rate at which the port's worker->switch ring is polled
  // (the worker's egress into the fabric — the shaper actuator the QoS
  // controller app programs). Debt-based and lossless: when the port's
  // token bucket is empty the switch defers polling it, so pressure backs up
  // into the SPSC ring and the worker's own send loop instead of dropping.
  // 0 clears the cap. Thread-safe; the unshaped fast path pays one relaxed
  // load. A live rate change re-seeds tokens proportionally, binding within
  // one refill interval (~20 ms).
  void set_port_ingress_rate(PortId port, double bytes_per_sec) override;
  // Currently programmed cap for the port (0 = unshaped).
  [[nodiscard]] double port_ingress_rate(PortId port) const override;
  // Per-port shaper accounting: bytes admitted under the cap and poll
  // rounds deferred for an empty bucket (with traffic waiting).
  struct PortShaperStats {
    PortId port = 0;
    double rate_bps = 0.0;
    std::uint64_t shaped_bytes = 0;
    std::uint64_t throttle_defers = 0;
  };
  [[nodiscard]] std::vector<PortShaperStats> shaper_stats() const;

  // ---- OpenFlow control interface (SwitchControl) ----
  // One lock, one flow-table rebuild and one View publish per bundle; the
  // table epoch (and so the microflow cache) moves only when the bundle
  // changed a rule or a group.
  void apply(const openflow::Bundle& b) override;
  void handle_packet_out(const openflow::PacketOut& po) override;
  [[nodiscard]] std::vector<openflow::PortStats> port_stats() const override;
  [[nodiscard]] std::vector<openflow::FlowStats> flow_stats(
      std::optional<std::uint64_t> cookie = std::nullopt) const override;
  [[nodiscard]] std::vector<openflow::FlowRule> flow_rules() const override;
  [[nodiscard]] std::size_t flow_count() const override;

  // Controller event channel; invoked from switch or caller threads.
  void set_event_sink(std::function<void(HostId, SwitchEvent)> sink) override;

  [[nodiscard]] HostId host() const override { return cfg_.host; }

  // Total packets forwarded through the pipeline (all ports).
  [[nodiscard]] std::uint64_t packets_forwarded() const {
    return dp_.forwarded.load(std::memory_order_relaxed);
  }
  // Microflow-cache accounting (hits include cached drops).
  [[nodiscard]] std::uint64_t cache_hits() const { return dp_.mcache.hits(); }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return dp_.mcache.misses();
  }
  // Table epoch of the published View: the stamp of warm microflow
  // entries, advanced only by flow and group changes.
  [[nodiscard]] std::uint64_t table_epoch() const {
    return current()->table_epoch;
  }

  // The well-known logical tunnel port number.
  static constexpr PortId kTunnelPort = 0xfffe;

 private:
  // Port ids below this use the direct-index output table.
  static constexpr PortId kDensePortLimit = 8192;

  struct TunnelRef {
    HostId peer;
    std::shared_ptr<net::TunnelEndpoint> ep;
  };

  // Ingress impairment shapers by port. Shaper::admit is single-threaded by
  // contract; only the forwarding thread calls it.
  using PacketShaper = faultinject::Shaper<net::PacketPtr>;
  using ImpairMap = std::unordered_map<PortId, std::shared_ptr<PacketShaper>>;

  // One port's programmed ingress rate cap plus its accounting. The bucket
  // has internal locking (set_rate races the forwarding thread); counters
  // are relaxed atomics written by the forwarding thread only.
  struct PortRateShaper {
    explicit PortRateShaper(double bps)
        : bucket(bps, common::kByteBurstFloor) {}
    common::TokenBucket bucket;
    std::atomic<std::uint64_t> shaped_bytes{0};
    std::atomic<std::uint64_t> defers{0};
  };
  using RateMap = std::unordered_map<PortId, std::shared_ptr<PortRateShaper>>;
  using PortMap = std::unordered_map<PortId, std::shared_ptr<PortHandle::Port>>;
  using PollList =
      std::vector<std::pair<PortId, std::shared_ptr<PortHandle::Port>>>;

  // The attached ports plus what the forwarding path derives from them:
  // the output tables (the raw pointers are backed by `map`) and the poll
  // list.
  struct PortView {
    PortMap map;
    std::vector<PortHandle::Port*> out_dense;
    std::unordered_map<PortId, PortHandle::Port*> out_sparse;
    PollList poll;
  };
  // Every tunnel: the RX poll list and the egress binning targets.
  using TunnelList = std::vector<TunnelRef>;

  // The switch's whole control state, immutable once published. A change
  // copies the View and replaces only the part it touches; the rest stays
  // shared with the previous View. Empty impairment and rate maps are the
  // unshaped fast path.
  struct View {
    std::uint64_t generation = 0;
    // Stamp of the microflow entries filled from `flows`/`groups`; advanced
    // only when either changes.
    std::uint64_t table_epoch = 0;
    std::shared_ptr<const openflow::FlowSnapshot> flows;
    std::shared_ptr<const openflow::GroupTable> groups;
    std::shared_ptr<const PortView> ports;
    std::shared_ptr<const TunnelList> tunnels;
    std::shared_ptr<const ImpairMap> impair;
    std::shared_ptr<const RateMap> rates;
  };

  // Classification result for one packet of a burst. The raw pointers are
  // owned by the adopted View (actions/stats live in the
  // FlowSnapshot entries), so they stay valid for the whole burst even if
  // a later microflow insert evicts the cache entry they came from.
  struct Resolved {
    const openflow::SharedActions::List* actions = nullptr;  // null = drop
    openflow::RuleStats* stats = nullptr;
  };

  // Per-destination egress coalescing bins, reused across bursts (bin and
  // packet vectors keep their capacity; `n_*` mark the active prefix).
  struct PortBin {
    PortId id = 0;
    PortHandle::Port* port = nullptr;
    std::vector<net::PacketPtr> pkts;
    std::uint64_t bytes = 0;  // summed wire size of `pkts`
  };
  struct TunnelBin {
    net::TunnelEndpoint* ep = nullptr;
    std::vector<net::PacketPtr> pkts;
  };
  struct EgressBins {
    std::vector<PortBin> ports;
    std::size_t n_ports = 0;
    std::vector<TunnelBin> tunnels;
    std::size_t n_tunnels = 0;
  };

  // The forwarding thread's hot state. Everything but the counters the
  // stat getters read (relaxed atomics) is touched by that thread only.
  struct Datapath {
    MicroflowCache mcache;

    // The adopted View; replaced only at loop and burst boundaries, so the
    // Port* in egress bins stay backed for the whole burst.
    std::shared_ptr<const View> view;
    // What the per-packet path reads of `view`, copied out at adoption so
    // steady-state forwarding does not chase the View's pointers. A null
    // map is empty in the View.
    std::uint64_t generation = 0;
    std::uint64_t table_epoch = 0;
    const PortView* ports = nullptr;
    const TunnelList* tunnels = nullptr;
    const ImpairMap* impair = nullptr;
    const RateMap* rates = nullptr;
    // The View the current loop iteration polls from (bursts may adopt a
    // newer one meanwhile).
    std::shared_ptr<const View> loop_view;
    // Private copy of view->groups: select-group WRR credit.
    openflow::GroupTable groups;
    // Egress holdover: packets whose destination ring was full. While this
    // backlog exists, the thread pauses ingress polling so full downstream
    // rings become upstream ring pressure instead of silent drops.
    std::deque<std::pair<net::PacketPtr, PortId>> egress_pending;
    common::TimePoint egress_block_since{};
    std::vector<net::PacketPtr> ingress_scratch;
    // Tunnel-RX frame pool + spare checkouts reused across poll rounds.
    std::shared_ptr<net::PacketPool> rx_pool =
        net::PacketPool::Create({.max_free = 1024});
    std::vector<net::Packet*> rx_spares;
    std::vector<net::PacketPtr> tun_burst;
    std::vector<net::PacketPtr> port_burst;
    // Batched-classification scratch (sized to the burst).
    std::vector<MicroflowKey> keys;
    std::vector<std::size_t> wire;  // per-packet wire size
    std::vector<Resolved> resolved;
    std::vector<std::size_t> miss_idx;  // first occurrence per unique key
    // Burst-local duplicates of a missed key: (packet index, slot in
    // miss_idx). Resolved from the unique miss, never re-looked-up.
    std::vector<std::pair<std::size_t, std::size_t>> miss_dups;
    std::vector<const net::Packet*> miss_pkts;
    std::vector<const openflow::FlowSnapshotEntry*> miss_hits;
    EgressBins bins;

    std::atomic<std::uint64_t> forwarded{0};
  };

  void run();
  // Stage-batched pipeline over one burst sharing `in_port`: classify all,
  // then apply actions with per-destination binning, then flush the bins.
  // Reads each packet's wire size once, before classification. A non-null
  // `rx_port` is charged the burst's RX counters before any output.
  // Consumes the packets; returns how many matched a rule (forwarded).
  std::size_t process_burst(std::span<net::PacketPtr> pkts, PortId in_port,
                            PortHandle::Port* rx_port = nullptr);
  // `wire` is the packet's wire size, read once by process_burst.
  void apply_actions(const net::PacketPtr& p, PortId in_port,
                     std::size_t wire,
                     const std::vector<openflow::FlowAction>& actions);
  // Stage-3 binning of one output.
  void bin_to_port(net::PacketPtr p, PortId port, std::size_t wire);
  void bin_to_tunnel(net::PacketPtr p, net::TunnelEndpoint* ep);
  void flush_bins();
  void flush_port_bin(PortBin& bin);
  void flush_tunnel_bin(TunnelBin& bin);
  // Push `pkts` in order into `port`'s ring until it is full, count the
  // delivered ones' TX (`bytes` is the summed wire size of all of `pkts`)
  // and record their kSwitchOut spans. Returns how many were delivered;
  // the rest are left intact for the caller to hold or drop.
  std::size_t deliver(PortHandle::Port& port, std::span<net::PacketPtr> pkts,
                      std::uint64_t bytes);
  // Queue behind the egress backlog (ring was or is full).
  void append_backlog(net::PacketPtr p, PortId port);
  // Retry packets held for a full egress ring; returns how many were
  // resolved (delivered, dropped on timeout, or dropped with their port).
  std::size_t drain_egress_backlog();
  // Output port in the adopted View; nullptr if not attached there.
  PortHandle::Port* find_out_port(PortId port) const;
  void emit_event(SwitchEvent ev);
  // Stamp one switch-level span for a traced packet.
  void record_span(std::uint64_t trace_id, std::uint8_t hop,
                   trace::Stage stage);
  // True when any ingress source has pending work, or a newer View awaits
  // adoption (park recheck).
  bool has_work() const;

  // The published View (takes mu_).
  [[nodiscard]] std::shared_ptr<const View> current() const;
  // Publish `next` under the next generation; call with mu_ held. The
  // generation store is the release point the forwarding thread
  // synchronizes on.
  void publish_locked(View next);
  // Publish a View whose `part` is a copy of the current one changed by
  // `edit`; the other parts stay shared. Call with mu_ held.
  template <class T, class Edit>
  void publish_part(std::shared_ptr<const T> View::*part, Edit edit);
  // Publish `map` as the port set, with its output tables and poll list.
  void publish_ports_locked(PortMap map);
  // Attach a new port under the free id `id` and publish it; unlocks `lk`
  // before raising the PortStatus event.
  std::shared_ptr<PortHandle> attach_locked(PortId id,
                                            std::unique_lock<std::mutex>& lk);
  // Forwarding thread only: adopt the published View if the generation
  // moved.
  void adopt();

  SoftSwitchConfig cfg_;

  // Serializes every control-state change; guards the fields below it.
  mutable std::mutex mu_;
  openflow::FlowTable flow_table_;  // master rules the snapshots come from
  std::shared_ptr<const View> view_;
  PortId next_port_ = 1;
  std::atomic<std::uint64_t> gen_{0};  // view_->generation, readable unlocked

  Datapath dp_;
  // Parking gate of the forwarding thread; shared so ports and tunnels
  // outliving the switch can still hold a (now inert) reference safely.
  std::shared_ptr<common::WakeupGate> gate_ =
      std::make_shared<common::WakeupGate>();
  std::thread thread_;

  common::MpmcQueue<std::pair<net::PacketPtr, PortId>> injected_;

  mutable std::mutex sink_mu_;
  std::function<void(HostId, SwitchEvent)> event_sink_;

  std::atomic<bool> running_{false};
};

}  // namespace typhoon::switchd
