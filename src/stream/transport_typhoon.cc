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
                          take(std::move(*rp), nullptr, 0);
                          continue;
                        }
                      }
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(20));
                    }
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
    for (Staged& s : injected_) inbound_.push_back(std::move(s));
    injected_.clear();
    has_injected_.store(false, std::memory_order_relaxed);
  }
  std::size_t n = deliver_staged(out, max);
  // Drain only enough packets to cover this poll's delivery budget. The
  // surplus stays in the RX ring, where the switch sees it as pressure and
  // holds further deliveries — that is what propagates back-pressure to
  // senders. An unconditional bulk drain would stage unbounded tuples here
  // and absorb congestion invisibly.
  while (n < max) {
    auto p = port_->recv();
    if (!p) break;
    n += take(std::move(*p), &out, max - n);
    // A tuple reassembled from this packet was staged; it goes next.
    n += deliver_staged(out, max - n);
  }
  return n;
}

std::size_t TyphoonTransport::take(net::PacketPtr p,
                                   std::vector<ReceivedItem>* out,
                                   std::size_t budget) {
  const net::Packet& pkt = *p;
  // The ring's reference becomes the packet's one pin; the tuples that
  // borrow from it share the pin without atomics.
  const net::PacketPin pin = pins_->pin(std::move(p));
  std::size_t n = 0;
  depacketizer_.visit(pkt, [&](const net::ChunkHeader& h,
                               std::span<const std::uint8_t> bytes,
                               common::Bytes* owned) {
    if (owned == nullptr && n < budget && staged() == 0) {
      if (decode_into(*out, pkt.src.worker, h, bytes, &pin)) ++n;
      return;
    }
    Staged& s = inbound_.emplace_back();
    s.src = pkt.src.worker;
    s.head = h;
    if (owned != nullptr) {
      s.data = std::move(*owned);
    } else {
      s.view = bytes;
      s.pin = pin;
    }
  });
  return n;
}

std::size_t TyphoonTransport::deliver_staged(std::vector<ReceivedItem>& out,
                                             std::size_t budget) {
  std::size_t n = 0;
  while (n < budget && inbound_head_ < inbound_.size()) {
    Staged& s = inbound_[inbound_head_++];
    const bool ok = s.pin ? decode_into(out, s.src, s.head, s.view, &s.pin)
                          : decode_into(out, s.src, s.head, s.data, nullptr);
    if (ok) ++n;
  }
  return n;
}

bool TyphoonTransport::decode_into(std::vector<ReceivedItem>& out,
                                   WorkerId src, const net::ChunkHeader& head,
                                   std::span<const std::uint8_t> bytes,
                                   const net::PacketPin* pin) {
  ReceivedItem& item = out.emplace_back();
  if (head.control() || head.stream_id == kControlStream) {
    item.is_control = true;
    item.control = std::make_shared<ControlTuple>();
    if (!DecodeControl(bytes, *item.control)) {
      out.pop_back();
      return false;
    }
    return true;
  }
  item.meta.src_worker = src;
  item.meta.stream = head.stream_id;
  // Borrowed decode when the bytes are pinned: long string/bytes values
  // alias the packet payload, and the item copies the pin so they stay
  // valid through the bolt's execute(). Owning bytes are decoded by copy.
  const bool ok =
      pin != nullptr
          ? DeserializeTyphoonBorrowed(bytes, item.tuple, item.meta.root_id,
                                       item.meta.edge_id)
          : DeserializeTyphoon(bytes, item.tuple, item.meta.root_id,
                               item.meta.edge_id);
  if (!ok) {
    out.pop_back();
    return false;
  }
  if (pin != nullptr && item.tuple.borrows()) item.backing = *pin;
  item.meta.trace_id = head.trace_id;
  item.meta.trace_hop = head.trace_hop;
  if (head.trace_id != 0 && recorder_ != nullptr) {
    recorder_->record({head.trace_id, trace::Stage::kDeserialize,
                       head.trace_hop, self_.worker, common::NowMicros(), 0});
  }
  return true;
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
  Staged s;
  s.src = kControllerWorker;
  s.head.stream_id = kControlStream;
  s.head.flags = net::kChunkFlagControl;
  s.data = EncodeControl(ct);
  std::lock_guard lk(injected_mu_);
  injected_.push_back(std::move(s));
  has_injected_.store(true, std::memory_order_release);
}

}  // namespace typhoon::stream
