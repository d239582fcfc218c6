// OpenFlow-modeled flow rules: match fields, actions, and messages.
//
// The match fields are exactly the ones Typhoon rules use (Table 3):
// in_port, dl_src, dl_dst, ether_type — each individually wildcardable.
// Actions cover output-to-port(s), set_tun_dst + output-to-tunnel,
// output-to-controller, select-group indirection (load balancer app), and
// dl_dst rewrite (used inside group buckets).
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "net/packet.h"

namespace typhoon::openflow {

struct FlowMatch {
  std::optional<PortId> in_port;
  std::optional<std::uint64_t> dl_src;  // packed WorkerAddress
  std::optional<std::uint64_t> dl_dst;
  std::optional<std::uint16_t> ether_type;

  [[nodiscard]] bool matches(const net::Packet& p, PortId pkt_in_port) const {
    if (in_port && *in_port != pkt_in_port) return false;
    if (dl_src && *dl_src != p.src.packed()) return false;
    if (dl_dst && *dl_dst != p.dst.packed()) return false;
    if (ether_type && *ether_type != p.ether_type) return false;
    return true;
  }

  // Number of specified (non-wildcard) fields; used as a tiebreaker so more
  // specific rules win at equal priority.
  [[nodiscard]] int specificity() const {
    return int(in_port.has_value()) + int(dl_src.has_value()) +
           int(dl_dst.has_value()) + int(ether_type.has_value());
  }

  [[nodiscard]] std::string str() const;

  friend bool operator==(const FlowMatch&, const FlowMatch&) = default;
  // Total order over the fields; the flow table's rule key uses it.
  friend auto operator<=>(const FlowMatch&, const FlowMatch&) = default;
};

struct ActionOutput {
  PortId port = 0;
  friend bool operator==(const ActionOutput&, const ActionOutput&) = default;
};
struct ActionOutputController {
  friend bool operator==(const ActionOutputController&,
                         const ActionOutputController&) = default;
};
struct ActionSetTunDst {
  HostId host = 0;  // the peer host the tunnel port should deliver to
  friend bool operator==(const ActionSetTunDst&,
                         const ActionSetTunDst&) = default;
};
struct ActionGroup {
  std::uint32_t group_id = 0;
  friend bool operator==(const ActionGroup&, const ActionGroup&) = default;
};
struct ActionSetDlDst {
  std::uint64_t dl_dst = 0;  // packed WorkerAddress to rewrite into the frame
  friend bool operator==(const ActionSetDlDst&,
                         const ActionSetDlDst&) = default;
};

using FlowAction = std::variant<ActionOutput, ActionOutputController,
                                ActionSetTunDst, ActionGroup, ActionSetDlDst>;

std::string ActionStr(const FlowAction& a);

// Copy-on-write action list. A rule's actions are immutable once installed,
// so the forwarding path (and the microflow cache) can hold the underlying
// shared_ptr and execute actions without deep-copying the vector per packet.
// Mutation (push_back / assignment) replaces the shared list, never edits it
// in place — readers holding an old pointer keep a consistent view.
class SharedActions {
 public:
  using List = std::vector<FlowAction>;
  using Ptr = std::shared_ptr<const List>;

  SharedActions() = default;
  SharedActions(std::initializer_list<FlowAction> il)
      : list_(std::make_shared<const List>(il)) {}
  SharedActions(List v)  // NOLINT: implicit, vector call sites predate COW
      : list_(std::make_shared<const List>(std::move(v))) {}

  void push_back(FlowAction a) {
    List copy = list_ ? *list_ : List{};
    copy.push_back(std::move(a));
    list_ = std::make_shared<const List>(std::move(copy));
  }

  [[nodiscard]] std::size_t size() const { return list_ ? list_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  const FlowAction& operator[](std::size_t i) const { return (*list_)[i]; }
  [[nodiscard]] List::const_iterator begin() const { return view().begin(); }
  [[nodiscard]] List::const_iterator end() const { return view().end(); }

  // The immutable list; empty singleton when unset. `shared()` is what the
  // flow-table snapshot and microflow cache hold onto.
  [[nodiscard]] const List& view() const {
    return list_ ? *list_ : *empty_list();
  }
  [[nodiscard]] const Ptr& shared() const {
    return list_ ? list_ : empty_list();
  }
  operator const List&() const { return view(); }  // NOLINT: drop-in for vector

  friend bool operator==(const SharedActions& a, const SharedActions& b) {
    return a.list_ == b.list_ || a.view() == b.view();
  }

 private:
  static const Ptr& empty_list() {
    static const Ptr kEmpty = std::make_shared<const List>();
    return kEmpty;
  }
  Ptr list_;
};

// A rule is permanent: it stays installed until a kDelete FlowMod or a
// cookie delete removes it.
struct FlowRule {
  FlowMatch match;
  SharedActions actions;
  std::uint16_t priority = 100;
  std::uint64_t cookie = 0;

  [[nodiscard]] std::string str() const;
};

// ---- Controller -> switch messages ----

// kAdd installs the rule, or replaces the one with the same (match,
// priority) key, keeping its counters. kDelete removes the rule with that
// key, and only if its cookie equals rule.cookie when that is nonzero.
enum class FlowModCommand { kAdd, kDelete };

struct FlowMod {
  FlowModCommand command = FlowModCommand::kAdd;
  FlowRule rule;  // kDelete reads only match, priority and cookie
};

struct GroupBucket {
  std::uint32_t weight = 1;
  std::vector<FlowAction> actions;
};

enum class GroupType { kAll, kSelect };

struct GroupMod {
  enum class Command { kAdd, kModify, kDelete };
  Command command = Command::kAdd;
  std::uint32_t group_id = 0;
  GroupType type = GroupType::kSelect;
  std::vector<GroupBucket> buckets{};
};

// One atomic table change for one switch (an OpenFlow 1.4 bundle). The
// switch applies the cookie deletes, then the group mods, then the flow mods
// in order, and publishes the result at once: no packet sees part of it.
struct Bundle {
  std::vector<FlowMod> flows{};
  std::vector<GroupMod> groups{};
  std::vector<std::uint64_t> delete_cookies{};  // remove every rule with one

  [[nodiscard]] bool empty() const {
    return flows.empty() && groups.empty() && delete_cookies.empty();
  }
};

// Inject a packet into the switch pipeline as if received on in_port
// (paper: PacketOut carrying control tuples, Sec 3.4).
struct PacketOut {
  net::PacketPtr packet;
  PortId in_port = kPortController;
};

struct PortStatsRequest {};
struct FlowStatsRequest {
  std::optional<std::uint64_t> cookie;  // filter; nullopt = all rules
};

// ---- Switch -> controller messages ----

struct PacketIn {
  net::PacketPtr packet;
  PortId in_port = 0;
};

enum class PortReason { kAdd, kDelete, kModify };

// The SwitchPortChanged event the fault detector keys on (Sec 4, Sec 6.2).
struct PortStatus {
  PortId port = 0;
  PortReason reason = PortReason::kAdd;
};

struct PortStats {
  PortId port = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_dropped = 0;  // ring-full drops (Sec 8 discussion)
  // Frames queued worker->switch, not yet polled. Nonzero under ingress
  // rate shaping means latent demand above the programmed rate — the
  // signal the QoS app's demand probe keys off.
  std::uint64_t rx_backlog = 0;
};

struct FlowStats {
  FlowRule rule;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

}  // namespace typhoon::openflow
