// Per-frame receive helpers for tests, built on the tunnel's one receive
// entry point, TunnelEndpoint::try_recv_burst, with a one-slot burst.
#pragma once

#include <chrono>
#include <optional>
#include <span>
#include <thread>

#include "net/tunnel.h"

namespace typhoon::testutil {

// One decoded frame if one is queued, else nullopt. Corrupt frames at the
// head are counted drops (rx_corrupt_drops) and skipped, so a mangled
// frame is never mistaken for an empty queue.
inline std::optional<net::Packet> TryRecv(net::TunnelEndpoint& ep) {
  net::Packet p;
  net::Packet* slot = &p;
  for (;;) {
    if (ep.try_recv_burst(std::span<net::Packet*>(&slot, 1)) == 1) return p;
    if (ep.rx_queue_depth() == 0) return std::nullopt;
  }
}

// Polls until a frame arrives or `timeout` passes.
inline std::optional<net::Packet> RecvFor(net::TunnelEndpoint& ep,
                                          std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto p = TryRecv(ep)) return p;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace typhoon::testutil
