// HostProcess — the runtime of one simulated host running as a real OS
// process (DESIGN.md Sec 17): an in-process SoftSwitch datapath, real
// tunnel transports (TCP or shared-memory rings) toward its peer
// processes, a WorkerAgent executing assigned workers, and a
// RemoteCoordinator mirror fed by the parent's echo stream over the
// control channel. typhoon_hostd (hostd_main.cc) is a thin argv wrapper
// around this class; ProcessCluster spawns one per host.
//
// Bootstrap (driven by the parent, see proc_proto.h):
//   dial control listener -> kHello -> [snapshot arrives] -> kConfigure
//   -> bind data listener -> kListening -> kPeers -> connect tunnels
//   -> start switch + agent -> kReady -> serve until kShutdown/EOF.
//
// Threading: the channel reader thread handles switch RPCs and bootstrap
// frames inline, but coordinator frames (snapshot/echoes) are handed to a
// dedicated apply thread. Watch callbacks — which run synchronously from
// echo application and may themselves issue coordinator RPCs (a worker
// launch writes heartbeats) — must not run on the thread that reads RPC
// replies, or the channel deadlocks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/ring_tunnel.h"
#include "net/socket_tunnel.h"
#include "stream/app_registry.h"
#include "stream/worker_agent.h"
#include "switchd/soft_switch.h"
#include "typhoon/ctl_channel.h"
#include "typhoon/proc_proto.h"
#include "typhoon/remote_coordinator.h"

namespace typhoon::proc {

struct HostProcessOptions {
  HostId host = 0;
  std::string ctl_host = "127.0.0.1";
  std::uint16_t ctl_port = 0;
};

class HostProcess {
 public:
  explicit HostProcess(HostProcessOptions opts);
  ~HostProcess();

  // Full lifecycle; blocks until shutdown. Nonzero on bootstrap failure.
  int run();

 private:
  void handle_frame(std::uint8_t type, std::uint64_t rpc_id,
                    common::Bytes payload);
  void dispatch_switch_rpc(std::uint8_t type, std::uint64_t rpc_id,
                           const common::Bytes& payload);
  void coord_apply_loop();
  bool connect_tunnels(const PeersMsg& peers);
  void apply_peer_update(const PeersMsg& peers);
  static std::string ShmSegmentName(const std::string& prefix, HostId a,
                                    HostId b);

  HostProcessOptions opts_;

  std::unique_ptr<CtlChannel> channel_;
  std::unique_ptr<RemoteCoordinator> coord_;
  stream::AppRegistry registry_;

  std::unique_ptr<switchd::SoftSwitch> sw_;
  std::unique_ptr<net::SocketTunnelListener> listener_;
  std::map<HostId, std::shared_ptr<net::TunnelEndpoint>> tunnels_;
  std::unique_ptr<stream::WorkerAgent> agent_;

  // Ordered coordinator frames pending application.
  std::mutex apply_mu_;
  std::condition_variable apply_cv_;
  std::deque<std::pair<std::uint8_t, common::Bytes>> apply_q_;
  std::thread apply_thread_;
  std::atomic<bool> apply_running_{false};

  // Bootstrap state machine (reader thread signals, run() waits).
  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool have_configure_ = false;
  ConfigureMsg configure_;
  bool have_peers_ = false;
  PeersMsg peers_;
  bool peers_dirty_ = false;  // refreshed kPeers after a host restart
  std::atomic<bool> shutdown_{false};
};

}  // namespace typhoon::proc
