#include "stream/transport_storm.h"

namespace typhoon::stream {

std::shared_ptr<StormFabric::Inbox> StormFabric::register_worker(WorkerId w,
                                                                 HostId host) {
  std::lock_guard lk(mu_);
  auto inbox = std::make_shared<Inbox>(host);
  inboxes_[w] = inbox;
  return inbox;
}

void StormFabric::unregister_worker(WorkerId w, const Inbox* expected) {
  std::shared_ptr<Inbox> inbox;
  {
    std::lock_guard lk(mu_);
    auto it = inboxes_.find(w);
    if (it == inboxes_.end()) return;
    if (expected != nullptr && it->second.get() != expected) return;
    inbox = it->second;
    inboxes_.erase(it);
  }
  inbox->q.close();
}

std::shared_ptr<StormFabric::Inbox> StormFabric::inbox(WorkerId w) const {
  std::lock_guard lk(mu_);
  auto it = inboxes_.find(w);
  return it == inboxes_.end() ? nullptr : it->second;
}

namespace {

// TCP-stream framing: concatenate length-prefixed messages, then parse them
// back out — the copies a socket write+read would perform.
std::vector<common::Bytes> FrameRoundTrip(
    const std::vector<common::Bytes>& batch) {
  common::Bytes wire;
  std::size_t total = 0;
  for (const common::Bytes& m : batch) total += m.size() + 4;
  wire.reserve(total);
  common::BufWriter w(wire);
  for (const common::Bytes& m : batch) w.bytes(m);

  std::vector<common::Bytes> out;
  out.reserve(batch.size());
  common::BufReader r(wire);
  while (r.remaining() > 0) {
    common::Bytes m;
    if (!r.bytes(m)) break;
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

bool StormFabric::deliver(WorkerId dst, std::vector<common::Bytes> batch,
                          HostId src_host) {
  std::shared_ptr<Inbox> target = inbox(dst);
  if (!target) return false;
  if (target->host != src_host) {
    batch = FrameRoundTrip(batch);
  }
  // Bounded wait: normal back-pressure blocks briefly; a consumer that has
  // stopped draining (crashed worker) eventually times the sender out
  // instead of wedging it forever.
  return target->q.push_for(std::move(batch), std::chrono::milliseconds(100));
}

StormTransport::StormTransport(TopologyId topology, WorkerId self,
                               HostId host, StormFabric* fabric,
                               std::uint32_t batch_size)
    : topology_(topology),
      self_(self),
      host_(host),
      fabric_(fabric),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      inbox_(fabric->register_worker(self, host)) {}

StormTransport::~StormTransport() {
  fabric_->unregister_worker(self_, inbox_.get());
}

void StormTransport::flush_dest(WorkerId dst,
                                std::vector<common::Bytes>& buf) {
  if (buf.empty()) return;
  const std::size_t n = buf.size();
  if (!fabric_->deliver(dst, std::move(buf), host_)) {
    drops_ += n;
  }
  buf = {};
}

void StormTransport::send(const Tuple& t, StreamId stream,
                          std::uint64_t root_id, std::uint64_t edge_id,
                          std::span<const WorkerId> dests,
                          bool /*broadcast*/, trace::TraceContext /*trace*/) {
  // One serialization *per destination*: each copy embeds its own dst
  // metadata — the exact overhead Typhoon's broadcast offload removes.
  for (WorkerId d : dests) {
    StormEnvelope env;
    env.src = self_;
    env.dst = d;
    env.stream = stream;
    env.root_id = root_id;
    env.edge_id = edge_id;
    std::vector<common::Bytes>& buf = out_bufs_[d];
    buf.push_back(SerializeStorm(t, env));
    if (buf.size() >= batch_size_) flush_dest(d, buf);
  }
}

std::size_t StormTransport::poll(std::vector<ReceivedItem>& out,
                                 std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    if (inbound_.empty()) {
      auto batch = inbox_->q.try_pop();
      if (!batch) break;
      for (common::Bytes& m : *batch) inbound_.push_back(std::move(m));
      if (inbound_.empty()) continue;
    }
    common::Bytes m = std::move(inbound_.front());
    inbound_.pop_front();
    StormEnvelope env;
    if (!DeserializeStorm(m, env)) continue;
    ReceivedItem item;
    item.meta.src_worker = env.src;
    item.meta.stream = env.stream;
    item.meta.root_id = env.root_id;
    item.meta.edge_id = env.edge_id;
    item.tuple = std::move(env.tuple);
    out.push_back(std::move(item));
    ++n;
  }
  return n;
}

void StormTransport::flush() {
  for (auto& [dst, buf] : out_bufs_) flush_dest(dst, buf);
}

std::size_t StormTransport::input_queue_depth() const {
  return inbox_->q.size() * batch_size_ + inbound_.size();
}

}  // namespace typhoon::stream
