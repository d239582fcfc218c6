// StormTransport + StormFabric — the baseline application-level transport,
// modeling stock Storm's Netty pipeline: per-worker-pair connections,
// sender-side message batching, and crucially *per-destination
// serialization* (each copy of a tuple carries distinct metadata, Sec 1).
// Crossing hosts adds a stream-framing encode/decode, modeling the socket
// write/read.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/mpmc_queue.h"
#include "stream/transport.h"

namespace typhoon::stream {

// Cluster-wide connection fabric: worker-id-addressed inboxes.
class StormFabric {
 public:
  struct Inbox {
    explicit Inbox(HostId h) : host(h), q(1024) {}
    HostId host;
    common::MpmcQueue<std::vector<common::Bytes>> q;
  };

  std::shared_ptr<Inbox> register_worker(WorkerId w, HostId host);
  // Unregisters only if `expected` still owns the slot — a restarted
  // worker re-registers under the same id, and the old transport's
  // destructor must not tear the replacement down.
  void unregister_worker(WorkerId w, const Inbox* expected = nullptr);
  [[nodiscard]] std::shared_ptr<Inbox> inbox(WorkerId w) const;

  // Deliver a batch of serialized messages to `dst`. When src and dst hosts
  // differ the batch is run through stream framing (encode to one byte
  // stream, decode back), charging the remote-path marshaling cost.
  // Returns false when the destination is gone (messages lost, as with a
  // TCP connection to a dead worker).
  bool deliver(WorkerId dst, std::vector<common::Bytes> batch,
               HostId src_host);

 private:
  mutable std::mutex mu_;
  std::unordered_map<WorkerId, std::shared_ptr<Inbox>> inboxes_;
};

class StormTransport : public Transport {
 public:
  StormTransport(TopologyId topology, WorkerId self, HostId host,
                 StormFabric* fabric, std::uint32_t batch_size);
  ~StormTransport() override;

  // Trace contexts are accepted but not propagated: the Storm baseline has
  // no cross-layer header to carry them (that asymmetry is the point).
  void send(const Tuple& t, StreamId stream, std::uint64_t root_id,
            std::uint64_t edge_id, std::span<const WorkerId> dests,
            bool broadcast, trace::TraceContext trace = {}) override;
  void send_to_controller(const ControlTuple& ct) override { (void)ct; }
  std::size_t poll(std::vector<ReceivedItem>& out, std::size_t max) override;
  void flush() override;
  void set_batch_size(std::uint32_t n) override { batch_size_ = n; }
  [[nodiscard]] std::uint32_t batch_size() const override {
    return batch_size_;
  }
  [[nodiscard]] std::size_t input_queue_depth() const override;
  [[nodiscard]] std::uint64_t send_drops() const override { return drops_; }

 private:
  void flush_dest(WorkerId dst, std::vector<common::Bytes>& buf);

  TopologyId topology_;
  WorkerId self_;
  HostId host_;
  StormFabric* fabric_;
  std::uint32_t batch_size_;
  std::shared_ptr<StormFabric::Inbox> inbox_;
  std::unordered_map<WorkerId, std::vector<common::Bytes>> out_bufs_;
  std::deque<common::Bytes> inbound_;
  std::uint64_t drops_ = 0;
};

}  // namespace typhoon::stream
