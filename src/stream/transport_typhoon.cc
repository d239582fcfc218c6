#include "stream/transport_typhoon.h"

#include "common/clock.h"

namespace typhoon::stream {

TyphoonTransport::TyphoonTransport(
    WorkerAddress self, std::shared_ptr<switchd::PortHandle> port,
    net::PacketizerConfig cfg,
    std::shared_ptr<trace::FlightRecorder> recorder)
    : self_(self),
      port_(std::move(port)),
      recorder_(std::move(recorder)),
      packetizer_(self, cfg,
                  [this](net::PacketPtr p) {
                    // Back-pressure instead of drop while the TX ring is
                    // full (a DPDK sender would retry likewise). A detached
                    // port or a ring that stays full past the cap (switch
                    // gone) drops the packet instead of wedging the worker.
                    for (int spins = 0; !port_->send(p); ++spins) {
                      if (port_->closed() || spins > 50000) {
                        ++drops_;
                        return;
                      }
                      // While blocked, keep draining our own RX ring so the
                      // switch can always deliver to us — otherwise two full
                      // rings in opposite directions deadlock until the
                      // switch's egress hold expires.
                      if (staged() < kBlockedStageCap) {
                        if (auto rp = port_->recv()) {
                          depacketizer_.consume(*rp);
                          continue;
                        }
                      }
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(20));
                    }
                  }),
      depacketizer_([this](net::TupleRecord rec) {
        inbound_.push_back(std::move(rec));
      }) {}

void TyphoonTransport::send(const Tuple& t, StreamId stream,
                            std::uint64_t root_id, std::uint64_t edge_id,
                            std::span<const WorkerId> dests,
                            bool broadcast, trace::TraceContext trace) {
  if (dests.empty()) return;
  // The single serialization: the payload carries no destination metadata,
  // so one buffer serves every copy (Sec 3.3.1). The scratch record's
  // buffer capacity is recycled across sends.
  net::TupleRecord& rec = send_scratch_;
  rec.src = self_;
  rec.stream_id = stream;
  rec.control = false;
  rec.trace_id = trace.id;
  rec.trace_hop = trace.hop;
  SerializeTyphoonInto(t, root_id, edge_id, rec.data);

  if (broadcast) {
    rec.dst = BroadcastAddress(self_.topology);
    packetizer_.add(rec);
    return;
  }
  for (WorkerId d : dests) {
    rec.dst = WorkerAddress{self_.topology, d};
    packetizer_.add(rec);  // bytes reused; no re-serialization per dest
  }
}

void TyphoonTransport::send_to_controller(const ControlTuple& ct) {
  net::TupleRecord rec;
  rec.src = self_;
  rec.dst = WorkerAddress{self_.topology, kControllerWorker};
  rec.stream_id = kControlStream;
  rec.control = true;
  rec.data = EncodeControl(ct);
  packetizer_.add(rec);
  // Control responses should not wait behind data batching.
  packetizer_.flush_to(rec.dst);
}

std::size_t TyphoonTransport::poll(std::vector<ReceivedItem>& out,
                                   std::size_t max) {
  // Compact: drop the records delivered by earlier polls so the buffer
  // holds only live ones (usually none, making this a clear()).
  inbound_.erase(inbound_.begin(),
                 inbound_.begin() + static_cast<std::ptrdiff_t>(inbound_head_));
  inbound_head_ = 0;
  if (has_injected_.load(std::memory_order_acquire)) {
    std::lock_guard lk(injected_mu_);
    for (net::TupleRecord& rec : injected_) inbound_.push_back(std::move(rec));
    injected_.clear();
    has_injected_.store(false, std::memory_order_relaxed);
  }
  // Drain only enough packets to cover this poll's delivery budget. The
  // surplus stays in the RX ring, where the switch sees it as pressure and
  // holds further deliveries — that is what propagates back-pressure to
  // senders. An unconditional bulk drain would stage unbounded tuples here
  // and absorb congestion invisibly.
  while (inbound_.size() < max) {  // inbound_head_ == 0 here
    auto p = port_->recv();
    if (!p) break;
    // PacketPtr overload: unsegmented tuples arrive as views into the
    // (pooled) packet payload — no copy between the switch ring and decode.
    depacketizer_.consume(*p);
  }
  std::size_t n = 0;
  while (inbound_head_ < inbound_.size() && n < max) {
    net::TupleRecord& rec = inbound_[inbound_head_++];
    // Decode straight into the caller's slot; a record that fails to
    // decode gives the slot back.
    ReceivedItem& item = out.emplace_back();
    if (rec.control || rec.stream_id == kControlStream) {
      item.is_control = true;
      if (!DecodeControl(rec.payload(), item.control)) {
        out.pop_back();
        continue;
      }
    } else {
      item.meta.src_worker = rec.src.worker;
      item.meta.stream = rec.stream_id;
      bool ok = false;
      if (rec.is_view()) {
        // Borrowed decode: long string/bytes values alias the packet
        // payload; the keepalive rides along as item.backing so they stay
        // valid through the bolt's execute().
        ok = DeserializeTyphoonBorrowed(rec.payload(), item.tuple,
                                        item.meta.root_id, item.meta.edge_id);
        item.backing = std::move(rec.keepalive);
      } else {
        ok = DeserializeTyphoon(rec.payload(), item.tuple, item.meta.root_id,
                                item.meta.edge_id);
      }
      if (!ok) {
        out.pop_back();
        continue;
      }
      item.meta.trace_id = rec.trace_id;
      item.meta.trace_hop = rec.trace_hop;
      if (rec.trace_id != 0 && recorder_ != nullptr) {
        recorder_->record({rec.trace_id, trace::Stage::kDeserialize,
                           rec.trace_hop, self_.worker, common::NowMicros(),
                           0});
      }
    }
    ++n;
  }
  return n;
}

void TyphoonTransport::flush() { packetizer_.flush(); }

void TyphoonTransport::set_batch_size(std::uint32_t n) {
  packetizer_.set_batch_tuples(n);
}

std::uint32_t TyphoonTransport::batch_size() const {
  return static_cast<std::uint32_t>(packetizer_.batch_tuples());
}

std::size_t TyphoonTransport::input_queue_depth() const {
  // Estimate in tuples: data packets carry up to batch_tuples each; partially
  // filled packets make this an upper bound, which is the right bias for
  // back-pressure and scaling decisions.
  return port_->rx_queue_depth() * std::max<std::size_t>(
                                       1, packetizer_.batch_tuples()) +
         staged();
}

TransportIoStats TyphoonTransport::io_stats() const {
  TransportIoStats s;
  s.pool_hits = packetizer_.pool()->hits();
  s.pool_misses = packetizer_.pool()->misses();
  s.bytes_copied_rx = depacketizer_.bytes_copied();
  s.reassembly_evicted = depacketizer_.reassembly_evicted();
  s.packetizer_buffers_evicted = packetizer_.buffers_evicted();
  return s;
}

void TyphoonTransport::inject_control(const ControlTuple& ct) {
  net::TupleRecord rec;
  rec.src = WorkerAddress{self_.topology, kControllerWorker};
  rec.dst = self_;
  rec.stream_id = kControlStream;
  rec.control = true;
  rec.data = EncodeControl(ct);
  std::lock_guard lk(injected_mu_);
  injected_.push_back(std::move(rec));
  has_injected_.store(true, std::memory_order_release);
}

}  // namespace typhoon::stream
