#include "typhoon/process_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "common/clock.h"
#include "controller/apps/fault_detector.h"
#include "controller/apps/live_debugger.h"
#include "controller/apps/load_balancer.h"
#include "net/ring_tunnel.h"
#include "stream/scheduler.h"

namespace typhoon::proc {
namespace {

// A stopping child gets this long to exit before its group is SIGKILLed.
constexpr std::chrono::milliseconds kShutdownGrace{3000};
// Shared-memory transport: data bytes per ring direction.
constexpr std::size_t kShmRingBytes = 1 << 20;

}  // namespace

ProcessCluster::ProcessCluster(ProcessClusterConfig cfg) : cfg_(cfg) {
  for (int i = 0; i < cfg_.num_hosts; ++i) {
    host_ids_.push_back(static_cast<HostId>(i + 1));
  }
  shm_prefix_ = "/typhoon-" + std::to_string(::getpid());
}

ProcessCluster::~ProcessCluster() { stop(); }

std::string ProcessCluster::resolve_hostd() const {
  if (!cfg_.hostd_path.empty()) return cfg_.hostd_path;
  if (const char* env = std::getenv("TYPHOON_HOSTD"); env != nullptr) {
    return env;
  }
  return "typhoon_hostd";
}

std::string ProcessCluster::shm_name(HostId a, HostId b) const {
  const HostId lo = std::min(a, b);
  const HostId hi = std::max(a, b);
  return shm_prefix_ + "-" + std::to_string(lo) + "-" + std::to_string(hi);
}

// ---- echo bridge ----

common::Bytes ProcessCluster::snapshot_tree() const {
  CoordSnapshotMsg snap;
  std::deque<std::string> frontier;
  for (const std::string& name : coord_.children("/")) {
    frontier.push_back("/" + name);
  }
  while (!frontier.empty()) {
    const std::string path = frontier.front();
    frontier.pop_front();
    auto data = coord_.get(path);
    snap.nodes.emplace_back(path,
                            data.ok() ? data.value() : common::Bytes{});
    for (const std::string& name : coord_.children(path)) {
      frontier.push_back(path + "/" + name);
    }
  }
  common::Bytes out;
  common::BufWriter w(out);
  WriteCoordSnapshot(w, snap);
  return out;
}

void ProcessCluster::echo_event(const std::string& path,
                                coordinator::WatchEvent ev,
                                const common::Bytes& data) {
  CoordEchoMsg echo;
  switch (ev) {
    case coordinator::WatchEvent::kCreated:
    case coordinator::WatchEvent::kDataChanged:
      echo.op = CoordEchoMsg::Op::kPut;
      echo.data = data;
      break;
    case coordinator::WatchEvent::kDeleted:
      echo.op = CoordEchoMsg::Op::kRemove;
      break;
    case coordinator::WatchEvent::kChildrenChanged:
      return;  // regenerates locally on each mirror
  }
  echo.path = path;
  common::Bytes payload;
  common::BufWriter w(payload);
  WriteCoordEcho(w, echo);
  std::lock_guard lk(bridge_mu_);
  for (auto& [host, ch] : bridge_) {
    (void)ch->send(kCoordEcho, payload);
  }
}

// ---- child process control ----

common::Status ProcessCluster::spawn_host(HostId host) {
  const std::string hostd = resolve_hostd();
  if (::access(hostd.c_str(), X_OK) != 0) {
    return common::InvalidArgument("typhoon_hostd not executable: " + hostd);
  }
  const std::string host_arg = "--host=" + std::to_string(host);
  const std::string port_arg = "--ctl-port=" + std::to_string(ctl_port_);
  // Hold hosts_mu_ across the fork: a child that says hello before this
  // thread runs again must find its record, not "unknown host". The child
  // only execs, so it never touches the copied lock.
  std::lock_guard lk(hosts_mu_);
  const pid_t pid = ::fork();
  if (pid < 0) {
    return common::Internal("fork failed: " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    // Child: own process group so kill_host can SIGKILL worker threads and
    // any descendants in one shot.
    ::setpgid(0, 0);
    ::execl(hostd.c_str(), hostd.c_str(), host_arg.c_str(), port_arg.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::setpgid(pid, pid);  // also from the parent: close the fork/exec race
  HostProc& hp = procs_[host];
  hp.id = host;
  hp.pid = pid;
  hp.alive = true;
  hp.listening = false;
  hp.ready = false;
  hp.data_port = 0;
  return common::Status::Ok();
}

void ProcessCluster::reap(pid_t pid) {
  if (pid <= 0) return;
  const auto deadline = std::chrono::steady_clock::now() + kShutdownGrace;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    common::SleepMillis(10);
  }
}

void ProcessCluster::event_loop() {
  for (;;) {
    std::pair<HostId, common::Bytes> ev;
    {
      std::unique_lock lk(ev_mu_);
      ev_cv_.wait(lk, [&] { return !ev_q_.empty() || !ev_running_.load(); });
      if (ev_q_.empty()) {
        if (!ev_running_.load()) return;
        continue;
      }
      ev = std::move(ev_q_.front());
      ev_q_.pop_front();
    }
    RemoteSwitch* rsw = nullptr;
    {
      std::lock_guard lk(hosts_mu_);
      auto it = procs_.find(ev.first);
      if (it != procs_.end()) rsw = it->second.rsw.get();
    }
    if (rsw != nullptr) rsw->deliver_event(ev.second);
  }
}

// ---- control listener ----

void ProcessCluster::accept_loop() {
  while (accepting_.load()) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int lfd = listen_fd_.load();
    if (lfd < 0) break;
    const int fd =
        ::accept4(lfd, reinterpret_cast<sockaddr*>(&peer), &len, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    auto ctx = std::make_shared<ChannelCtx>();
    auto channel = std::make_unique<CtlChannel>(fd);
    ctx->channel = channel.get();
    channel->set_handler([this, ctx](std::uint8_t type, std::uint64_t rpc_id,
                                     common::Bytes payload) {
      handle_frame(ctx, type, rpc_id, std::move(payload));
    });
    channel->set_on_close([this, ctx] {
      if (ctx->host != 0) on_channel_down(ctx->host);
    });
    // Register before start(): the child's hello, handled on the reader
    // thread, claims the channel from pending_channels_. A hello that ran
    // first left the host without a channel, so it never got kPeers.
    CtlChannel* raw = channel.get();
    {
      std::lock_guard lk(hosts_mu_);
      pending_channels_.emplace_back(ctx, std::move(channel));
    }
    raw->start();
  }
}

void ProcessCluster::handle_hello(const std::shared_ptr<ChannelCtx>& ctx,
                                  std::uint64_t rpc_id,
                                  const common::Bytes& payload) {
  common::BufReader r(payload);
  HelloMsg hello;
  common::Bytes reply;
  common::BufWriter w(reply);
  if (!ReadHello(r, hello) || hello.host == 0) {
    WriteStatus(w, common::InvalidArgument("bad hello"));
    ctx->channel->reply(rpc_id, reply);
    return;
  }
  {
    // Claim the channel for this host.
    std::lock_guard lk(hosts_mu_);
    auto it = procs_.find(hello.host);
    if (it == procs_.end()) {
      WriteStatus(w, common::NotFound("unknown host"));
      ctx->channel->reply(rpc_id, reply);
      return;
    }
    for (auto pit = pending_channels_.begin(); pit != pending_channels_.end();
         ++pit) {
      if (pit->first == ctx) {
        if (it->second.channel) {
          dead_channels_.push_back(std::move(it->second.channel));
        }
        it->second.channel = std::move(pit->second);
        pending_channels_.erase(pit);
        break;
      }
    }
    ctx->host = hello.host;
    if (it->second.rsw) {
      it->second.rsw->rebind(it->second.channel.get());
    }
  }
  {
    // Join the echo set and seed the mirror inside one bridge critical
    // section: mutations before the snapshot are inside it, mutations
    // after it queue behind the lock as ordered echoes. The snapshot is
    // written to the channel before the hello reply, so the child's
    // bootstrap reads land on a seeded mirror.
    std::lock_guard lk(bridge_mu_);
    bridge_[hello.host] = ctx->channel;
    (void)ctx->channel->send(kCoordSnapshot, snapshot_tree());
  }
  send_configure(ctx->channel);
  WriteStatus(w, common::Status::Ok());
  ctx->channel->reply(rpc_id, reply);
}

void ProcessCluster::send_configure(CtlChannel* channel) {
  ConfigureMsg cfg;
  cfg.transport = cfg_.transport;
  cfg.shm_prefix = shm_prefix_;
  cfg.hosts = host_ids_;
  common::Bytes payload;
  common::BufWriter w(payload);
  WriteConfigure(w, cfg);
  (void)channel->send(kConfigure, payload);
}

void ProcessCluster::broadcast_peers() {
  PeersMsg msg;
  {
    std::lock_guard lk(hosts_mu_);
    for (auto& [id, hp] : procs_) {
      if (!hp.alive) continue;
      msg.peers.push_back({id, "127.0.0.1", hp.data_port});
    }
  }
  common::Bytes payload;
  common::BufWriter w(payload);
  WritePeers(w, msg);
  std::lock_guard lk(hosts_mu_);
  for (auto& [id, hp] : procs_) {
    if (hp.alive && hp.channel) (void)hp.channel->send(kPeers, payload);
  }
}

void ProcessCluster::handle_coord_rpc(const std::shared_ptr<ChannelCtx>& ctx,
                                      std::uint8_t type, std::uint64_t rpc_id,
                                      const common::Bytes& payload) {
  common::BufReader r(payload);
  common::Bytes reply;
  common::BufWriter w(reply);
  switch (type) {
    case kCoordCreateSession: {
      const auto session = coord_.create_session();
      {
        std::lock_guard lk(hosts_mu_);
        auto it = procs_.find(ctx->host);
        if (it != procs_.end()) it->second.sessions.push_back(session);
      }
      WriteStatus(w, common::Status::Ok());
      w.u64(session);
      break;
    }
    case kCoordCloseSession: {
      std::uint64_t session = 0;
      if (!r.u64(session)) {
        WriteStatus(w, common::InvalidArgument("bad close_session"));
        break;
      }
      {
        std::lock_guard lk(hosts_mu_);
        auto it = procs_.find(ctx->host);
        if (it != procs_.end()) {
          auto& v = it->second.sessions;
          v.erase(std::remove(v.begin(), v.end(), session), v.end());
        }
      }
      coord_.close_session(session);
      WriteStatus(w, common::Status::Ok());
      break;
    }
    case kCoordCreate: {
      CoordCreateMsg m;
      if (!ReadCoordCreate(r, m)) {
        WriteStatus(w, common::InvalidArgument("bad create"));
        break;
      }
      WriteStatus(w, coord_.create(m.path, std::move(m.data), m.ephemeral,
                                   m.owner));
      break;
    }
    case kCoordSet: {
      CoordDataMsg m;
      if (!ReadCoordData(r, m)) {
        WriteStatus(w, common::InvalidArgument("bad set"));
        break;
      }
      WriteStatus(w, coord_.set(m.path, std::move(m.data)));
      break;
    }
    case kCoordPut: {
      CoordDataMsg m;
      if (!ReadCoordData(r, m)) {
        WriteStatus(w, common::InvalidArgument("bad put"));
        break;
      }
      WriteStatus(w, coord_.put(m.path, std::move(m.data)));
      break;
    }
    case kCoordRemove: {
      CoordRemoveMsg m;
      if (!ReadCoordRemove(r, m)) {
        WriteStatus(w, common::InvalidArgument("bad remove"));
        break;
      }
      WriteStatus(w, coord_.remove(m.path, m.recursive));
      break;
    }
    default:
      WriteStatus(w, common::InvalidArgument("unknown coord rpc"));
      break;
  }
  ctx->channel->reply(rpc_id, reply);
}

void ProcessCluster::handle_frame(const std::shared_ptr<ChannelCtx>& ctx,
                                  std::uint8_t type, std::uint64_t rpc_id,
                                  common::Bytes payload) {
  if (type == kHello && rpc_id != 0) {
    handle_hello(ctx, rpc_id, payload);
    return;
  }
  if (ctx->host == 0) return;  // everything else requires identity
  switch (type) {
    case kListening: {
      common::BufReader r(payload);
      ListeningMsg m;
      std::lock_guard lk(hosts_mu_);
      auto it = procs_.find(ctx->host);
      if (it != procs_.end() && ReadListening(r, m)) {
        it->second.data_port = m.data_port;
        it->second.listening = true;
      }
      hosts_cv_.notify_all();
      return;
    }
    case kReady: {
      std::lock_guard lk(hosts_mu_);
      auto it = procs_.find(ctx->host);
      if (it != procs_.end()) it->second.ready = true;
      hosts_cv_.notify_all();
      return;
    }
    case kSwEvent: {
      std::lock_guard lk(ev_mu_);
      ev_q_.emplace_back(ctx->host, std::move(payload));
      ev_cv_.notify_one();
      return;
    }
    case kCoordCreateSession:
    case kCoordCloseSession:
    case kCoordCreate:
    case kCoordSet:
    case kCoordPut:
    case kCoordRemove:
      if (rpc_id != 0) handle_coord_rpc(ctx, type, rpc_id, payload);
      return;
    default:
      return;
  }
}

void ProcessCluster::on_channel_down(HostId host) {
  {
    std::lock_guard lk(bridge_mu_);
    bridge_.erase(host);
  }
  std::vector<coordinator::Coordinator::SessionId> sessions;
  {
    std::lock_guard lk(hosts_mu_);
    auto it = procs_.find(host);
    if (it == procs_.end()) return;
    it->second.alive = false;
    it->second.ready = false;
    it->second.listening = false;
    sessions.swap(it->second.sessions);
    hosts_cv_.notify_all();
  }
  // The crashed host's ephemerals (agent registration, worker state)
  // disappear here — the same signal an in-process agent crash produces.
  for (const auto session : sessions) {
    coord_.close_session(session);
  }
}

// ---- lifecycle ----

common::Status ProcessCluster::start() {
  if (started_) return common::FailedPrecondition("already started");

  // Echo every authoritative mutation to all live mirrors.
  echo_watch_ = coord_.watch(
      "/",
      [this](const std::string& path, coordinator::WatchEvent ev,
             const common::Bytes& data) { echo_event(path, ev, data); },
      /*prefix=*/true);

  // Control listener.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return common::Internal("socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Internal("bind/listen failed");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  ctl_port_ = ntohs(addr.sin_port);
  accepting_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  ev_running_.store(true);
  ev_thread_ = std::thread([this] { event_loop(); });

  // Shared-memory segments exist before any child runs.
  if (cfg_.transport == ProcTransport::kShmRing) {
    for (std::size_t a = 0; a < host_ids_.size(); ++a) {
      for (std::size_t b = a + 1; b < host_ids_.size(); ++b) {
        const std::string name = shm_name(host_ids_[a], host_ids_[b]);
        net::RingTunnel::UnlinkSegment(name);  // stale from a crash
        if (!net::RingTunnel::CreateSegment(name, kShmRingBytes)) {
          stop();
          return common::Internal("shm segment create failed: " + name);
        }
        shm_segments_.push_back(name);
      }
    }
  }

  started_ = true;
  for (HostId h : host_ids_) {
    if (auto st = spawn_host(h); !st.ok()) {
      stop();
      return st;
    }
  }
  for (HostId h : host_ids_) {
    if (auto st = await_bootstrap(h, /*expect_ready=*/false); !st.ok()) {
      stop();
      return st;
    }
  }
  broadcast_peers();
  for (HostId h : host_ids_) {
    if (auto st = await_bootstrap(h, /*expect_ready=*/true); !st.ok()) {
      stop();
      return st;
    }
  }

  // Control plane over remote switch proxies.
  // One controller on the default 50 ms tick, running the stock
  // apps; the manager runs its failure detector (the option defaults).
  control_plane_ = std::make_unique<controller::ControlPlane>(
      &coord_, controller::ControlPlaneOptions{});
  {
    std::lock_guard lk(hosts_mu_);
    for (auto& [id, hp] : procs_) {
      hp.rsw = std::make_unique<RemoteSwitch>(id, hp.channel.get());
      control_plane_->add_switch(id, hp.rsw.get());
    }
  }
  control_plane_->set_app_factory([](controller::TyphoonController& c) {
    c.add_app(std::make_unique<controller::FaultDetector>());
    c.add_app(std::make_unique<controller::LiveDebugger>());
    c.add_app(std::make_unique<controller::LoadBalancer>());
  });
  control_plane_->start();

  stream::ManagerOptions mopts;
  mopts.hosts = host_ids_;
  mopts.heartbeat_timeout = cfg_.heartbeat_timeout;
  mopts.monitor_interval = cfg_.manager_monitor_interval;
  mopts.scheduler = std::make_unique<stream::RoundRobinScheduler>();
  manager_ = std::make_unique<stream::StreamingManager>(&coord_, &registry_,
                                                        std::move(mopts));
  manager_->set_sdn_hooks(control_plane_.get());
  manager_->start();
  return common::Status::Ok();
}

common::Status ProcessCluster::await_bootstrap(HostId host,
                                               bool expect_ready) {
  std::unique_lock lk(hosts_mu_);
  const bool ok = hosts_cv_.wait_for(lk, kParentBootstrapWait, [&] {
    auto it = procs_.find(host);
    if (it == procs_.end() || !it->second.alive) return true;  // fail fast
    return expect_ready ? it->second.ready : it->second.listening;
  });
  auto it = procs_.find(host);
  if (!ok || it == procs_.end() || !it->second.alive) {
    return common::Unavailable("host " + std::to_string(host) +
                               " did not bootstrap");
  }
  return common::Status::Ok();
}

void ProcessCluster::stop() {
  if (!started_) return;
  started_ = false;
  if (manager_) manager_->stop();
  if (control_plane_) control_plane_->stop();

  // Ask children to exit, then reap (SIGKILL on expiry). hosts_mu_ must be
  // free while waiting: a gracefully exiting child issues close_session
  // RPCs whose handler needs that lock.
  std::vector<pid_t> pids;
  {
    std::lock_guard lk(hosts_mu_);
    for (auto& [id, hp] : procs_) {
      if (hp.alive && hp.channel) (void)hp.channel->send(kShutdown, {});
      pids.push_back(hp.pid);
      hp.pid = -1;
    }
  }
  for (const pid_t pid : pids) reap(pid);

  accepting_.store(false);
  if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  {
    std::lock_guard lk(bridge_mu_);
    bridge_.clear();
  }
  // Stop channels outside hosts_mu_: stop() joins the reader thread, which
  // may itself be blocked in on_channel_down waiting for that lock.
  std::vector<std::unique_ptr<CtlChannel>> channels;
  {
    std::lock_guard lk(hosts_mu_);
    for (auto& [id, hp] : procs_) {
      if (hp.channel) channels.push_back(std::move(hp.channel));
    }
    for (auto& [ctx, ch] : pending_channels_) {
      channels.push_back(std::move(ch));
    }
    pending_channels_.clear();
    for (auto& ch : dead_channels_) channels.push_back(std::move(ch));
    dead_channels_.clear();
  }
  for (auto& ch : channels) ch->stop();
  channels.clear();
  // No reader threads remain; drain and stop the event dispatcher before
  // the RemoteSwitch proxies it targets are destroyed.
  if (ev_running_.exchange(false)) {
    ev_cv_.notify_all();
    if (ev_thread_.joinable()) ev_thread_.join();
  }
  {
    std::lock_guard lk(ev_mu_);
    ev_q_.clear();
  }
  {
    std::lock_guard lk(hosts_mu_);
    procs_.clear();
  }
  if (echo_watch_ != 0) {
    coord_.unwatch(echo_watch_);
    echo_watch_ = 0;
  }
  for (const std::string& name : shm_segments_) {
    net::RingTunnel::UnlinkSegment(name);
  }
  shm_segments_.clear();
  manager_.reset();
  control_plane_.reset();
}

// ---- chaos ----

common::Status ProcessCluster::kill_host(HostId host) {
  pid_t pid = -1;
  {
    std::lock_guard lk(hosts_mu_);
    auto it = procs_.find(host);
    if (it == procs_.end()) return common::NotFound("unknown host");
    if (!it->second.alive && it->second.pid <= 0) {
      return common::FailedPrecondition("host already dead");
    }
    pid = it->second.pid;
  }
  if (pid > 0) {
    ::kill(-pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  // The channel reader notices EOF and runs on_channel_down; make the
  // state transition synchronous for callers orchestrating chaos.
  {
    std::unique_lock lk(hosts_mu_);
    hosts_cv_.wait_for(lk, std::chrono::seconds(5), [&] {
      auto it = procs_.find(host);
      return it == procs_.end() || !it->second.alive;
    });
    auto it = procs_.find(host);
    if (it != procs_.end()) it->second.pid = -1;
  }
  return common::Status::Ok();
}

common::Status ProcessCluster::restart_host(HostId host) {
  {
    std::lock_guard lk(hosts_mu_);
    auto it = procs_.find(host);
    if (it == procs_.end()) return common::NotFound("unknown host");
    if (it->second.alive) {
      return common::FailedPrecondition("host still alive");
    }
    // The dead channel is unusable; park it for destruction here (we are
    // never on its reader thread).
    if (it->second.channel) {
      it->second.channel->stop();
      dead_channels_.push_back(std::move(it->second.channel));
    }
    if (it->second.rsw) it->second.rsw->rebind(nullptr);
  }
  if (auto st = spawn_host(host); !st.ok()) return st;
  if (auto st = await_bootstrap(host, /*expect_ready=*/false); !st.ok()) {
    return st;
  }
  // Everyone (including the newcomer) learns the current endpoints;
  // surviving dialers retarget, surviving listeners adopt the redial.
  broadcast_peers();
  if (auto st = await_bootstrap(host, /*expect_ready=*/true); !st.ok()) {
    return st;
  }
  std::lock_guard lk(hosts_mu_);
  auto it = procs_.find(host);
  if (it != procs_.end() && it->second.rsw) {
    it->second.rsw->rebind(it->second.channel.get());
  }
  return common::Status::Ok();
}

bool ProcessCluster::host_alive(HostId host) const {
  std::lock_guard lk(hosts_mu_);
  auto it = procs_.find(host);
  return it != procs_.end() && it->second.alive;
}

pid_t ProcessCluster::host_pid(HostId host) const {
  std::lock_guard lk(hosts_mu_);
  auto it = procs_.find(host);
  return it == procs_.end() ? -1 : it->second.pid;
}

// ---- apps ----

common::Result<TopologyId> ProcessCluster::submit_wordcount(
    const WordCountParams& params, stream::SubmitOptions options) {
  if (manager_ == nullptr) return common::FailedPrecondition("not started");
  // Catalog first: the znode's ordered echo reaches every host before any
  // assignment of this topology, so factories exist when agents launch.
  if (auto st = RegisterWordCount(registry_, params, &coord_); !st.ok()) {
    return st;
  }
  if (auto st = coord_.put_str(std::string(kProcAppsPrefix) + "/" +
                                   params.topology,
                               EncodeParams(params));
      !st.ok()) {
    return st;
  }
  auto topo = BuildWordCount(params, &coord_);
  if (!topo.ok()) return topo.status();
  return manager_->submit(topo.value(), options);
}

common::Status ProcessCluster::kill(const std::string& topology) {
  if (manager_ == nullptr) return common::FailedPrecondition("not started");
  return manager_->kill(topology);
}

common::Result<std::pair<std::int64_t, std::map<std::string, std::int64_t>>>
ProcessCluster::results(const std::string& topology) const {
  const auto blob = coord_.get_str(ResultsPath(topology));
  if (!blob) return common::NotFound("no results yet");
  std::int64_t unique = 0;
  std::map<std::string, std::int64_t> counts;
  if (!ParseResults(*blob, unique, counts)) {
    return common::Internal("malformed results blob");
  }
  return std::make_pair(unique, std::move(counts));
}

}  // namespace typhoon::proc
