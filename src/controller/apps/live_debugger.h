// LiveDebugger control-plane app (Sec 4, evaluated in Sec 6.2 / Fig 12 and
// Table 5): dynamically provisions a debug worker anywhere in a running
// topology and inserts packet-mirroring flow rules for selected tuple
// paths. Mirroring is a network-level packet copy (an extra output action
// on the existing rule) — no application-level serialization and no
// pre-provisioned debug workers.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "controller/controller.h"
#include "net/packetizer.h"
#include "stream/tuple.h"

namespace typhoon::controller {

// The dynamically provisioned debug worker: drains a freshly attached
// switch port, decodes mirrored tuples, and retains samples. Memory is
// allocated on demand (Table 5), and a custom filter can narrow capture.
class DebugTap {
 public:
  using Filter = std::function<bool(const stream::Tuple&)>;

  DebugTap(std::shared_ptr<switchd::PortHandle> port, std::size_t keep_last);
  ~DebugTap();

  void start();
  void stop();

  void set_filter(Filter f);
  // Decode tuples from every Nth mirrored packet (1 = decode everything).
  // Packets are always counted; sampling keeps the tap lightweight so
  // mirroring never becomes the pipeline bottleneck.
  void set_sample_every(std::uint32_t n);

  [[nodiscard]] std::int64_t packets() const { return packets_.load(); }
  [[nodiscard]] std::int64_t tuples() const { return tuples_.load(); }
  [[nodiscard]] std::vector<std::string> samples() const;
  [[nodiscard]] PortId port() const;

 private:
  void run();

  std::shared_ptr<switchd::PortHandle> port_;
  const std::size_t keep_last_;

  mutable std::mutex mu_;
  std::deque<std::string> samples_;
  Filter filter_;

  std::atomic<std::int64_t> packets_{0};
  std::atomic<std::int64_t> tuples_{0};
  std::atomic<std::uint32_t> sample_every_{16};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

class LiveDebugger final : public ControlPlaneApp {
 public:
  [[nodiscard]] const char* name() const override { return "live-debugger"; }

  // Mirror the (src -> dst) tuple path onto a new debug tap deployed on
  // src's host. Granularity is per worker pair (Table 5: "each worker").
  common::Result<std::shared_ptr<DebugTap>> attach(TopologyId topology,
                                                   WorkerId src,
                                                   WorkerId dst,
                                                   std::size_t keep_last = 32);
  common::Status detach(TopologyId topology, WorkerId src, WorkerId dst);

  [[nodiscard]] std::size_t active_sessions() const;

 private:
  struct SessionKey {
    TopologyId topology;
    WorkerId src;
    WorkerId dst;
    auto operator<=>(const SessionKey&) const = default;
  };
  struct Session {
    std::shared_ptr<DebugTap> tap;
    HostId host = 0;
    openflow::FlowRule original;  // restored as is on detach
  };

  mutable std::mutex mu_;
  std::map<SessionKey, Session> sessions_;
};

}  // namespace typhoon::controller
