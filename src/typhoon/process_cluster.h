// ProcessCluster — the multi-process deployment facade (DESIGN.md Sec 17),
// mirroring the in-process typhoon::Cluster API: every simulated host runs
// as a real child process (typhoon_hostd) with its own SoftSwitch datapath
// and WorkerAgent, connected by real transports (TCP SocketTunnels or
// shared-memory rings) for data and one TCP control channel each for
// everything else.
//
// The parent keeps the authoritative services: the Coordinator tree (child
// mutations arrive as RPCs; every application is echoed, in order, to all
// children's RemoteCoordinator mirrors), the StreamingManager, and the SDN
// control plane driving each host's datapath through a RemoteSwitch proxy.
//
// Failure semantics: SIGKILL-ing a host process (kill_host) drops its
// control channel; the parent closes every coordinator session opened over
// that channel, so the host's ephemerals (agent registration, worker
// state) vanish exactly as a crashed in-process agent's would, and the
// manager's heartbeat monitor reschedules its workers onto the survivors.
// restart_host respawns the process, re-runs its bootstrap against the
// current tree snapshot, and re-announces its data endpoint to the
// surviving peers (whose tunnels redial / re-accept).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "controller/control_plane.h"
#include "coordinator/coordinator.h"
#include "stream/app_registry.h"
#include "stream/streaming_manager.h"
#include "typhoon/ctl_channel.h"
#include "typhoon/proc_apps.h"
#include "typhoon/proc_proto.h"
#include "typhoon/remote_switch.h"

namespace typhoon::proc {

struct ProcessClusterConfig {
  int num_hosts = 3;
  ProcTransport transport = ProcTransport::kSocket;
  // Path to the typhoon_hostd binary; empty consults $TYPHOON_HOSTD.
  std::string hostd_path;

  // Manager knobs; chaos tests tighten these for fast failover.
  std::chrono::milliseconds heartbeat_timeout{1500};
  std::chrono::milliseconds manager_monitor_interval{100};
};

class ProcessCluster {
 public:
  explicit ProcessCluster(ProcessClusterConfig cfg = {});
  ~ProcessCluster();

  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  // Spawn and bootstrap every host process, then start the control plane
  // and manager. Fails (with everything torn down) if any host does not
  // come up within kParentBootstrapWait.
  common::Status start();
  // Graceful teardown: stop services, ask children to exit, reap them
  // (SIGKILL after kShutdownGrace), release shm segments.
  void stop();

  // Submit the named word-count app: publishes the catalog entry (so every
  // host can build the factories), then submits through the manager.
  common::Result<TopologyId> submit_wordcount(const WordCountParams& params,
                                              stream::SubmitOptions options);
  common::Status kill(const std::string& topology);

  // ---- chaos controls ----
  // SIGKILL the host's process group. The control-channel teardown closes
  // its sessions (ephemerals vanish -> reschedule).
  common::Status kill_host(HostId host);
  // Respawn a previously killed host and splice it back into the mesh.
  common::Status restart_host(HostId host);

  [[nodiscard]] bool host_alive(HostId host) const;
  [[nodiscard]] pid_t host_pid(HostId host) const;
  [[nodiscard]] std::vector<HostId> hosts() const { return host_ids_; }

  [[nodiscard]] coordinator::Coordinator& coordinator() { return coord_; }
  [[nodiscard]] stream::StreamingManager* manager() { return manager_.get(); }

  // Parsed sink results for a topology (unique occurrence count + word
  // counts); kNotFound until the sink first publishes.
  common::Result<std::pair<std::int64_t, std::map<std::string, std::int64_t>>>
  results(const std::string& topology) const;

 private:
  struct HostProc {
    HostId id = 0;
    pid_t pid = -1;
    std::unique_ptr<CtlChannel> channel;
    std::unique_ptr<RemoteSwitch> rsw;
    std::uint16_t data_port = 0;
    bool listening = false;
    bool ready = false;
    bool alive = false;
    std::vector<coordinator::Coordinator::SessionId> sessions;
  };

  // Channel identity: bound at accept, resolved at kHello.
  struct ChannelCtx {
    CtlChannel* channel = nullptr;
    HostId host = 0;  // 0 until hello
  };

  common::Status spawn_host(HostId host);
  common::Status await_bootstrap(HostId host, bool expect_ready);
  void send_configure(CtlChannel* channel);
  void broadcast_peers();
  void accept_loop();
  void event_loop();
  void handle_frame(const std::shared_ptr<ChannelCtx>& ctx, std::uint8_t type,
                    std::uint64_t rpc_id, common::Bytes payload);
  void handle_hello(const std::shared_ptr<ChannelCtx>& ctx,
                    std::uint64_t rpc_id, const common::Bytes& payload);
  void handle_coord_rpc(const std::shared_ptr<ChannelCtx>& ctx,
                        std::uint8_t type, std::uint64_t rpc_id,
                        const common::Bytes& payload);
  // Channel EOF / kill: drop from the echo set, close its sessions.
  void on_channel_down(HostId host);
  common::Bytes snapshot_tree() const;
  void echo_event(const std::string& path, coordinator::WatchEvent ev,
                  const common::Bytes& data);
  std::string resolve_hostd() const;
  std::string shm_name(HostId a, HostId b) const;
  void reap(pid_t pid);

  ProcessClusterConfig cfg_;
  coordinator::Coordinator coord_;
  stream::AppRegistry registry_;
  std::vector<HostId> host_ids_;

  // Echo broadcast set. Held while serializing a snapshot or sending
  // echoes so a joining mirror never misses or reorders a mutation.
  std::mutex bridge_mu_;
  std::map<HostId, CtlChannel*> bridge_;
  coordinator::Coordinator::WatchId echo_watch_ = 0;

  mutable std::mutex hosts_mu_;
  std::condition_variable hosts_cv_;
  std::map<HostId, HostProc> procs_;
  // Channels accepted but not yet identified (pre-hello), and channels of
  // dead hosts awaiting destruction off their own reader thread.
  std::vector<std::pair<std::shared_ptr<ChannelCtx>,
                        std::unique_ptr<CtlChannel>>> pending_channels_;
  std::vector<std::unique_ptr<CtlChannel>> dead_channels_;

  // Switch events are dispatched off the channel reader threads: the
  // controller may be mid-tick holding its lock while awaiting an RPC
  // reply on the same channel, so delivering events inline would deadlock.
  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  std::deque<std::pair<HostId, common::Bytes>> ev_q_;
  std::thread ev_thread_;
  std::atomic<bool> ev_running_{false};

  // Atomic: the accept loop re-reads it between accept4 calls while stop()
  // closes and clears it.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t ctl_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> accepting_{false};

  std::string shm_prefix_;
  std::vector<std::string> shm_segments_;

  std::unique_ptr<controller::ControlPlane> control_plane_;
  std::unique_ptr<stream::StreamingManager> manager_;
  bool started_ = false;
};

}  // namespace typhoon::proc
