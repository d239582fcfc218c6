#include "openflow/flow.h"

#include <sstream>

namespace typhoon::openflow {

namespace {
std::string AddrStr(std::uint64_t packed) {
  const auto a = WorkerAddress::unpack(packed);
  if (a.worker == kBroadcastWorker) return "BROADCAST";
  if (a.worker == kControllerWorker) return "CONTROLLER";
  return a.str();
}
}  // namespace

std::string FlowMatch::str() const {
  std::ostringstream os;
  os << "match{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  if (in_port) {
    sep();
    if (*in_port == kPortController) {
      os << "in_port=CONTROLLER";
    } else {
      os << "in_port=" << *in_port;
    }
  }
  if (dl_src) {
    sep();
    os << "dl_src=" << AddrStr(*dl_src);
  }
  if (dl_dst) {
    sep();
    os << "dl_dst=" << AddrStr(*dl_dst);
  }
  if (ether_type) {
    sep();
    os << "eth_type=0x" << std::hex << *ether_type << std::dec;
  }
  os << "}";
  return os.str();
}

std::string ActionStr(const FlowAction& a) {
  std::ostringstream os;
  std::visit(
      [&](const auto& act) {
        using T = std::decay_t<decltype(act)>;
        if constexpr (std::is_same_v<T, ActionOutput>) {
          os << "output:" << act.port;
        } else if constexpr (std::is_same_v<T, ActionOutputController>) {
          os << "output:CONTROLLER";
        } else if constexpr (std::is_same_v<T, ActionSetTunDst>) {
          os << "set_tun_dst:host" << act.host;
        } else if constexpr (std::is_same_v<T, ActionGroup>) {
          os << "group:" << act.group_id;
        } else if constexpr (std::is_same_v<T, ActionSetDlDst>) {
          os << "set_dl_dst:" << AddrStr(act.dl_dst);
        }
      },
      a);
  return os.str();
}

std::string FlowRule::str() const {
  std::ostringstream os;
  os << "prio=" << priority << " " << match.str() << " actions=[";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) os << ",";
    os << ActionStr(actions[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace typhoon::openflow
