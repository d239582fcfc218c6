#include "typhoon/host_process.h"

#include <algorithm>
#include <cstdio>

#include "openflow/wire.h"
#include "typhoon/proc_apps.h"

namespace typhoon::proc {
namespace {

// How long a starting host keeps redialing the parent's control listener.
constexpr std::chrono::milliseconds kDialDeadline{10000};

// One budget for a child's whole handshake (dial, hello, configure,
// peers), so the parent's kParentBootstrapWait really outlasts it. When a
// step fails, stderr names it and when the step before it finished, so a
// failed `ProcessCluster::start()` says where the handshake stopped.
class BootstrapBudget {
 public:
  explicit BootstrapBudget(HostId host) : host_(host) {}

  [[nodiscard]] std::chrono::steady_clock::time_point deadline() const {
    return start_ + kChildBootstrapTimeout;
  }
  // What is left of the budget (zero once spent).
  [[nodiscard]] std::chrono::milliseconds remaining() const {
    return std::max(std::chrono::milliseconds(0),
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline() - std::chrono::steady_clock::now()));
  }
  void done(const char* step) {
    last_step_ = step;
    last_ms_ = elapsed_ms();
  }
  void stopped(const char* step, const std::string& why = "timed out") const {
    std::fprintf(stderr,
                 "typhoon_hostd h%u: bootstrap stopped at step '%s' (%s) "
                 "after %lld of %lld ms ('%s' done at %lld ms)\n",
                 static_cast<unsigned>(host_), step, why.c_str(), elapsed_ms(),
                 static_cast<long long>(kChildBootstrapTimeout.count()),
                 last_step_, last_ms_);
  }

 private:
  [[nodiscard]] long long elapsed_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  HostId host_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  const char* last_step_ = "start";
  long long last_ms_ = 0;
};

}  // namespace

HostProcess::HostProcess(HostProcessOptions opts) : opts_(opts) {}

HostProcess::~HostProcess() {
  shutdown_.store(true);
  if (apply_running_.exchange(false)) {
    apply_cv_.notify_all();
    if (apply_thread_.joinable()) apply_thread_.join();
  }
}

std::string HostProcess::ShmSegmentName(const std::string& prefix, HostId a,
                                        HostId b) {
  const HostId lo = std::min(a, b);
  const HostId hi = std::max(a, b);
  return prefix + "-" + std::to_string(lo) + "-" + std::to_string(hi);
}

void HostProcess::coord_apply_loop() {
  for (;;) {
    std::pair<std::uint8_t, common::Bytes> frame;
    {
      std::unique_lock lk(apply_mu_);
      apply_cv_.wait(lk, [&] {
        return !apply_q_.empty() || !apply_running_.load();
      });
      if (apply_q_.empty()) {
        if (!apply_running_.load()) return;
        continue;
      }
      frame = std::move(apply_q_.front());
      apply_q_.pop_front();
    }
    if (frame.first == kCoordSnapshot) {
      coord_->apply_snapshot(frame.second);
    } else {
      coord_->apply_echo(frame.second);
    }
  }
}

void HostProcess::handle_frame(std::uint8_t type, std::uint64_t rpc_id,
                               common::Bytes payload) {
  switch (type) {
    case kCoordSnapshot:
    case kCoordEcho: {
      std::lock_guard lk(apply_mu_);
      apply_q_.emplace_back(type, std::move(payload));
      apply_cv_.notify_one();
      return;
    }
    case kConfigure: {
      common::BufReader r(payload);
      std::lock_guard lk(state_mu_);
      if (ReadConfigure(r, configure_)) have_configure_ = true;
      state_cv_.notify_all();
      return;
    }
    case kPeers: {
      common::BufReader r(payload);
      std::lock_guard lk(state_mu_);
      if (ReadPeers(r, peers_)) {
        if (have_peers_) peers_dirty_ = true;
        have_peers_ = true;
      }
      state_cv_.notify_all();
      return;
    }
    case kShutdown: {
      shutdown_.store(true);
      std::lock_guard lk(state_mu_);
      state_cv_.notify_all();
      return;
    }
    default:
      if (type >= kSwApply && type <= kSwGetIngressRate && rpc_id != 0) {
        dispatch_switch_rpc(type, rpc_id, payload);
      }
      return;
  }
}

void HostProcess::dispatch_switch_rpc(std::uint8_t type, std::uint64_t rpc_id,
                                      const common::Bytes& payload) {
  common::Bytes out;
  common::BufWriter w(out);
  common::BufReader r(payload);
  if (sw_ == nullptr) {
    channel_->reply(rpc_id, out);
    return;
  }
  switch (type) {
    case kSwApply: {
      openflow::Bundle b;
      if (openflow::ReadBundle(r, b)) sw_->apply(b);
      break;
    }
    case kSwPacketOut: {
      openflow::PacketOut po;
      if (openflow::ReadPacketOut(r, po)) sw_->handle_packet_out(po);
      break;
    }
    case kSwPortStats: {
      const auto stats = sw_->port_stats();
      w.u32(static_cast<std::uint32_t>(stats.size()));
      for (const auto& s : stats) openflow::WritePortStats(w, s);
      break;
    }
    case kSwFlowStats: {
      std::uint8_t has = 0;
      std::optional<std::uint64_t> cookie;
      if (r.u8(has) && has != 0) {
        std::uint64_t c = 0;
        if (r.u64(c)) cookie = c;
      }
      const auto stats = sw_->flow_stats(cookie);
      w.u32(static_cast<std::uint32_t>(stats.size()));
      for (const auto& s : stats) openflow::WriteFlowStats(w, s);
      break;
    }
    case kSwFlowRules: {
      const auto rules = sw_->flow_rules();
      w.u32(static_cast<std::uint32_t>(rules.size()));
      for (const auto& rule : rules) openflow::WriteFlowRule(w, rule);
      break;
    }
    case kSwFlowCount:
      w.u64(sw_->flow_count());
      break;
    case kSwSetIngressRate: {
      std::uint32_t port = 0;
      double rate = 0.0;
      if (r.u32(port) && r.f64(rate)) sw_->set_port_ingress_rate(port, rate);
      break;
    }
    case kSwGetIngressRate: {
      std::uint32_t port = 0;
      if (r.u32(port)) w.f64(sw_->port_ingress_rate(port));
      break;
    }
    default:
      break;
  }
  channel_->reply(rpc_id, out);
}

bool HostProcess::connect_tunnels(const PeersMsg& peers) {
  for (const PeerEndpoint& p : peers.peers) {
    if (p.host == opts_.host) continue;
    std::shared_ptr<net::TunnelEndpoint> ep;
    if (configure_.transport == ProcTransport::kShmRing) {
      const auto side = opts_.host < p.host ? net::RingTunnel::Side::kA
                                            : net::RingTunnel::Side::kB;
      ep = net::RingTunnel::Attach(
          ShmSegmentName(configure_.shm_prefix, opts_.host, p.host), side);
    } else if (p.host < opts_.host) {
      // Dial lower-id peers; higher-id peers dial our listener.
      ep = net::SocketTunnel::Connect(p.addr, p.data_port, opts_.host, p.host);
    } else {
      continue;  // passive endpoint created by expect_peer at bind time
    }
    if (!ep) return false;
    tunnels_[p.host] = ep;
    sw_->add_tunnel(p.host, ep);
  }
  return true;
}

void HostProcess::apply_peer_update(const PeersMsg& peers) {
  // A restarted peer binds a fresh ephemeral data port; re-aim the active
  // tunnels. Passive endpoints get their new connection via the listener.
  for (const PeerEndpoint& p : peers.peers) {
    auto it = tunnels_.find(p.host);
    if (it == tunnels_.end()) continue;
    if (auto* st = dynamic_cast<net::SocketTunnel*>(it->second.get())) {
      if (p.host < opts_.host) st->retarget(p.addr, p.data_port);
    }
  }
}

int HostProcess::run() {
  BootstrapBudget budget(opts_.host);
  channel_ = CtlChannel::Dial(opts_.ctl_host, opts_.ctl_port, kDialDeadline);
  if (!channel_) {
    budget.stopped("dial", "parent's control listener unreachable");
    return 1;
  }
  budget.done("dial");
  coord_ = std::make_unique<RemoteCoordinator>(channel_.get());

  // Catalog watch before anything can apply: snapshot entries under
  // /proc_apps register their factories as the snapshot lands.
  coord_->watch(
      kProcAppsPrefix,
      [this](const std::string& path, coordinator::WatchEvent ev,
             const common::Bytes& data) {
        if (ev != coordinator::WatchEvent::kCreated &&
            ev != coordinator::WatchEvent::kDataChanged) {
          return;
        }
        const std::string prefix = std::string(kProcAppsPrefix) + "/";
        if (path.size() <= prefix.size() || path.compare(0, prefix.size(), prefix) != 0) {
          return;
        }
        const std::string topology = path.substr(prefix.size());
        if (topology.find('/') != std::string::npos) return;
        (void)RegisterFromCatalog(registry_, topology,
                                  std::string(data.begin(), data.end()),
                                  coord_.get());
      },
      /*prefix=*/true);

  apply_running_.store(true);
  apply_thread_ = std::thread([this] { coord_apply_loop(); });

  channel_->set_handler([this](std::uint8_t type, std::uint64_t rpc_id,
                               common::Bytes payload) {
    handle_frame(type, rpc_id, std::move(payload));
  });
  channel_->set_on_close([this] {
    shutdown_.store(true);
    std::lock_guard lk(state_mu_);
    state_cv_.notify_all();
  });
  channel_->start();

  // HELLO: identifies this host; the parent replies after queueing the
  // coordinator snapshot ahead of us on the stream.
  common::Bytes hello;
  {
    common::BufWriter w(hello);
    WriteHello(w, {opts_.host});
  }
  auto hr = channel_->call(kHello, hello, budget.remaining());
  // The reply carries the parent's verdict (e.g. an unknown host).
  common::Status hello_st = hr.status();
  if (hr.ok()) {
    common::BufReader r(hr.value());
    if (!ReadStatus(r, hello_st)) hello_st = common::Internal("bad hello reply");
  }
  if (!hello_st.ok()) {
    budget.stopped("hello", hello_st.str());
    return 2;
  }
  budget.done("hello");

  // Configure.
  {
    std::unique_lock lk(state_mu_);
    if (!state_cv_.wait_until(lk, budget.deadline(),
                              [&] { return have_configure_ || shutdown_.load(); })) {
      budget.stopped("configure");
      return 3;
    }
    if (shutdown_.load()) return 3;
  }
  budget.done("configure");

  switchd::SoftSwitchConfig scfg;
  scfg.host = opts_.host;
  sw_ = std::make_unique<switchd::SoftSwitch>(scfg);

  std::uint16_t data_port = 0;
  if (configure_.transport == ProcTransport::kSocket) {
    listener_ = std::make_unique<net::SocketTunnelListener>(opts_.host);
    if (!listener_->bind(0)) return 4;
    data_port = listener_->port();
    for (HostId h : configure_.hosts) {
      if (h > opts_.host) {
        auto ep = listener_->expect_peer(h);
        tunnels_[h] = ep;
        sw_->add_tunnel(h, ep);
      }
    }
    listener_->start();
  }
  {
    common::Bytes payload;
    common::BufWriter w(payload);
    WriteListening(w, {data_port});
    if (!channel_->send(kListening, payload)) return 5;
  }

  // Peers.
  PeersMsg peers;
  {
    std::unique_lock lk(state_mu_);
    if (!state_cv_.wait_until(lk, budget.deadline(),
                              [&] { return have_peers_ || shutdown_.load(); })) {
      budget.stopped("peers");
      return 6;
    }
    if (shutdown_.load()) return 6;
    peers = peers_;
  }
  if (!connect_tunnels(peers)) return 7;

  sw_->set_event_sink([this](HostId, switchd::SwitchEvent ev) {
    common::Bytes payload;
    common::BufWriter w(payload);
    WriteSwitchEvent(w, ev);
    (void)channel_->send(kSwEvent, payload);
  });
  sw_->start();

  stream::AgentOptions aopts;
  aopts.host = opts_.host;
  aopts.sw = sw_.get();
  aopts.coord = coord_.get();
  aopts.registry = &registry_;
  agent_ = std::make_unique<stream::WorkerAgent>(aopts);
  agent_->start();

  if (!channel_->send(kReady, {})) return 8;

  // Serve until shutdown; re-apply peer updates as they arrive.
  for (;;) {
    PeersMsg update;
    bool have_update = false;
    {
      std::unique_lock lk(state_mu_);
      state_cv_.wait(lk, [&] { return peers_dirty_ || shutdown_.load(); });
      if (shutdown_.load()) break;
      update = peers_;
      peers_dirty_ = false;
      have_update = true;
    }
    if (have_update) apply_peer_update(update);
  }

  // Teardown: workers first, then datapath, then transports/channel.
  agent_->stop();
  if (sw_) sw_->stop();
  for (auto& [h, ep] : tunnels_) ep->close();
  if (listener_) listener_->stop();
  if (apply_running_.exchange(false)) {
    apply_cv_.notify_all();
    if (apply_thread_.joinable()) apply_thread_.join();
  }
  channel_->stop();
  return 0;
}

}  // namespace typhoon::proc
