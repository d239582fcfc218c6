#include "controller/apps/live_debugger.h"

#include "common/log.h"

namespace typhoon::controller {

DebugTap::DebugTap(std::shared_ptr<switchd::PortHandle> port,
                   std::size_t keep_last)
    : port_(std::move(port)), keep_last_(keep_last) {}

DebugTap::~DebugTap() { stop(); }

void DebugTap::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { run(); });
}

void DebugTap::stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

void DebugTap::set_filter(Filter f) {
  std::lock_guard lk(mu_);
  filter_ = std::move(f);
}

void DebugTap::set_sample_every(std::uint32_t n) {
  sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

std::vector<std::string> DebugTap::samples() const {
  std::lock_guard lk(mu_);
  return {samples_.begin(), samples_.end()};
}

PortId DebugTap::port() const { return port_->id(); }

void DebugTap::run() {
  net::Depacketizer depack([this](net::TupleRecord rec) {
    if (rec.control) return;
    stream::Tuple t;
    std::uint64_t root = 0;
    std::uint64_t edge = 0;
    if (!stream::DeserializeTyphoon(rec.data, t, root, edge)) return;
    Filter filter;
    {
      std::lock_guard lk(mu_);
      filter = filter_;
    }
    if (filter && !filter(t)) return;
    tuples_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    samples_.push_back("w" + std::to_string(rec.src.worker) + " -> w" +
                       std::to_string(rec.dst.worker) + " " + t.str_repr());
    while (samples_.size() > keep_last_) samples_.pop_front();
  });

  std::vector<net::PacketPtr> burst;
  std::uint64_t seen = 0;
  while (running_.load(std::memory_order_relaxed)) {
    burst.clear();
    const std::size_t n = port_->recv_bulk(burst, 64);
    const std::uint32_t every = sample_every_.load(std::memory_order_relaxed);
    for (const net::PacketPtr& p : burst) {
      packets_.fetch_add(1, std::memory_order_relaxed);
      if ((seen++ % every) == 0) depack.consume(*p);
    }
    if (n == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

common::Result<std::shared_ptr<DebugTap>> LiveDebugger::attach(
    TopologyId topology, WorkerId src, WorkerId dst, std::size_t keep_last) {
  auto phys = ctl_->physical(topology);
  if (!phys) return common::NotFound("topology");
  const stream::PhysicalWorker* sw_worker = phys->worker(src);
  const stream::PhysicalWorker* dw = phys->worker(dst);
  if (sw_worker == nullptr || dw == nullptr) {
    return common::NotFound("worker");
  }
  switchd::SwitchControl* sw = ctl_->switch_at(sw_worker->host);
  if (sw == nullptr) return common::NotFound("switch");

  // The flow rule carrying the selected tuple path.
  openflow::FlowMatch match;
  match.in_port = sw_worker->port;
  match.dl_src = WorkerAddress{topology, src}.packed();
  match.dl_dst = WorkerAddress{topology, dst}.packed();
  match.ether_type = net::kTyphoonEtherType;

  std::optional<openflow::FlowRule> existing;
  for (const openflow::FlowRule& r : sw->flow_rules()) {
    if (r.match == match) {
      existing = r;
      break;
    }
  }
  if (!existing) return common::NotFound("no flow rule for worker pair");

  // Provision the debug worker on demand and mirror via an extra output.
  auto tap_port = sw->attach_port();
  if (!tap_port) return common::Internal("cannot attach tap port");
  auto tap = std::make_shared<DebugTap>(tap_port, keep_last);
  tap->start();

  // A kAdd at the rule's own (match, priority) replaces it in place and
  // keeps its counters.
  openflow::FlowRule mirrored = *existing;
  mirrored.actions.push_back(openflow::ActionOutput{tap_port->id()});
  sw->handle_flow_mod({openflow::FlowModCommand::kAdd, mirrored});

  Session s;
  s.tap = tap;
  s.host = sw_worker->host;
  s.original = *existing;
  {
    std::lock_guard lk(mu_);
    sessions_[SessionKey{topology, src, dst}] = std::move(s);
  }
  LOG_INFO("live-debugger") << "mirroring w" << src << "->w" << dst
                            << " to tap port " << tap_port->id();
  return tap;
}

common::Status LiveDebugger::detach(TopologyId topology, WorkerId src,
                                    WorkerId dst) {
  Session s;
  {
    std::lock_guard lk(mu_);
    auto it = sessions_.find(SessionKey{topology, src, dst});
    if (it == sessions_.end()) return common::NotFound("session");
    s = std::move(it->second);
    sessions_.erase(it);
  }
  switchd::SwitchControl* sw = ctl_->switch_at(s.host);
  if (sw != nullptr) {
    sw->handle_flow_mod({openflow::FlowModCommand::kAdd, s.original});
    const PortId tap_port = s.tap->port();
    s.tap->stop();
    sw->detach_port(tap_port);
  } else {
    s.tap->stop();
  }
  return common::Status::Ok();
}

std::size_t LiveDebugger::active_sessions() const {
  std::lock_guard lk(mu_);
  return sessions_.size();
}

}  // namespace typhoon::controller
