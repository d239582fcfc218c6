// WorkerAgent tests: assignment-watch lifecycle, application-binary
// resolution, local restart policy with give-up, and graceful teardown.
#include <gtest/gtest.h>

#include <mutex>

#include "coordinator/coordinator.h"
#include "stream/app_registry.h"
#include "stream/physical.h"
#include "stream/topology.h"
#include "stream/worker_agent.h"
#include "switchd/soft_switch.h"
#include "util/components.h"

namespace typhoon::stream {
namespace {

using namespace std::chrono_literals;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(2);
  }
  return pred();
}

class AgentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    switchd::SoftSwitchConfig scfg;
    scfg.host = 1;
    sw_ = std::make_unique<switchd::SoftSwitch>(scfg);
    sw_->start();

    AgentOptions aopts;
    aopts.host = 1;
    aopts.sw = sw_.get();
    aopts.coord = &coord_;
    aopts.registry = &registry_;
    aopts.max_local_restarts = 2;
    aopts.restart_delay = std::chrono::milliseconds(30);
    agent_ = std::make_unique<WorkerAgent>(aopts);
    agent_->start();
  }
  void TearDown() override {
    agent_->stop();
    sw_->stop();
  }

  // Publish a single-spout topology's global state and return its physical.
  void PublishTopology(const std::string& name,
                       std::shared_ptr<testutil::SharedFlags> flags = nullptr) {
    TopologyBuilder b(name);
    b.add_spout("src", [flags] {
      auto s = std::make_unique<testutil::SentenceSpout>(flags, 4);
      return s;
    });
    LogicalTopology topo = b.build().value();
    registry_.register_app(topo);

    TopologySpec spec;
    spec.id = 7;
    spec.name = name;
    spec.nodes = {{topo.nodes()[0].id, "src", 1, true, false}};
    PhysicalTopology phys;
    phys.id = 7;
    phys.name = name;
    phys.workers = {{kWorker, topo.nodes()[0].id, 0, 1, 150}};
    coord_.put(SpecPath(name), EncodeSpec(spec));
    coord_.put(PhysicalPath(name), EncodePhysical(phys));
  }

  static constexpr WorkerId kWorker = 42;

  coordinator::Coordinator coord_;
  AppRegistry registry_;
  std::unique_ptr<switchd::SoftSwitch> sw_;
  std::unique_ptr<WorkerAgent> agent_;
};

TEST_F(AgentFixture, RegistersEphemeralHostEntry) {
  EXPECT_TRUE(coord_.exists("/cluster/hosts/host1"));
}

TEST_F(AgentFixture, LaunchesWorkerOnAssignment) {
  PublishTopology("t");
  coord_.put_str(AssignmentPath(1, kWorker), "t");

  ASSERT_TRUE(WaitFor(
      [&] { return agent_->find_worker(kWorker) != nullptr; }, 3s));
  ASSERT_TRUE(WaitFor(
      [&] {
        auto s = coord_.get_str(WorkerStatePath("t", kWorker));
        return s && *s == "RUNNING";
      },
      3s));
  EXPECT_EQ(agent_->worker_ids(), std::vector<WorkerId>{kWorker});

  // Heartbeats advance.
  auto hb1 = coord_.get_str(WorkerHeartbeatPath("t", kWorker));
  ASSERT_TRUE(hb1.has_value());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto hb2 = coord_.get_str(WorkerHeartbeatPath("t", kWorker));
        return hb2 && *hb2 != *hb1;
      },
      3s));
  // The scheduler-assigned port is attached on the switch: attaching it
  // again must fail.
  EXPECT_EQ(sw_->attach_port(150), nullptr);
}

// A heartbeat is one coordinator write: once the worker is RUNNING, every
// write under its subtree is the heartbeat record, at most one per
// kHeartbeatInterval.
TEST_F(AgentFixture, HeartbeatIsOneCoordinatorWritePerInterval) {
  PublishTopology("t");
  coord_.put_str(AssignmentPath(1, kWorker), "t");
  ASSERT_TRUE(WaitFor(
      [&] {
        auto s = coord_.get_str(WorkerStatePath("t", kWorker));
        return s && *s == "RUNNING";
      },
      3s));

  // Shared with the callback: a write that began before unwatch may still
  // deliver after it.
  struct Writes {
    std::mutex mu;
    std::vector<std::string> paths;
  };
  auto writes = std::make_shared<Writes>();
  const auto t0 = common::Now();
  const auto watch = coord_.watch(
      "/workers/t/w" + std::to_string(kWorker),
      [writes](const std::string& path, coordinator::WatchEvent ev,
               const common::Bytes&) {
        if (ev != coordinator::WatchEvent::kCreated &&
            ev != coordinator::WatchEvent::kDataChanged) {
          return;
        }
        std::lock_guard lk(writes->mu);
        writes->paths.push_back(path);
      },
      /*prefix=*/true);
  common::SleepFor(1200ms);
  coord_.unwatch(watch);
  const auto elapsed = common::Now() - t0;

  std::lock_guard lk(writes->mu);
  ASSERT_FALSE(writes->paths.empty());
  for (const std::string& path : writes->paths) {
    EXPECT_EQ(path, WorkerHeartbeatPath("t", kWorker));
  }
  EXPECT_LE(writes->paths.size(),
            static_cast<std::size_t>(elapsed / kHeartbeatInterval + 2));
}

TEST_F(AgentFixture, AssignmentRemovalStopsWorkerAndFreesPort) {
  PublishTopology("t");
  coord_.put_str(AssignmentPath(1, kWorker), "t");
  ASSERT_TRUE(WaitFor(
      [&] { return agent_->find_worker(kWorker) != nullptr; }, 3s));

  coord_.remove(AssignmentPath(1, kWorker));
  ASSERT_TRUE(WaitFor(
      [&] { return agent_->find_worker(kWorker) == nullptr; }, 3s));
  // Port released.
  auto port = sw_->attach_port(150);
  EXPECT_NE(port, nullptr);
}

TEST_F(AgentFixture, IgnoresAssignmentsWithoutGlobalState) {
  coord_.put_str(AssignmentPath(1, 99), "ghost-topology");
  common::SleepMillis(50);
  EXPECT_EQ(agent_->find_worker(99), nullptr);
}

TEST_F(AgentFixture, IgnoresAssignmentsForOtherHosts) {
  PublishTopology("t");
  coord_.put_str(AssignmentPath(2, kWorker), "t");  // host2, not ours
  common::SleepMillis(50);
  EXPECT_EQ(agent_->find_worker(kWorker), nullptr);
}

TEST_F(AgentFixture, RestartsCrashedWorkerThenGivesUp) {
  auto flags = std::make_shared<testutil::SharedFlags>();
  PublishTopology("t", flags);

  // Replace the spout with one that crashes immediately.
  registry_.update_spout("t", "src", []() -> std::unique_ptr<Spout> {
    class CrashSpout : public Spout {
     public:
      bool next(Emitter&) override {
        throw std::runtime_error("boom at startup");
      }
    };
    return std::make_unique<CrashSpout>();
  });
  coord_.put_str(AssignmentPath(1, kWorker), "t");

  // Two restarts (the cap), then give-up: worker slot stays empty.
  ASSERT_TRUE(WaitFor([&] { return agent_->restarts() >= 2; }, 5s));
  ASSERT_TRUE(WaitFor(
      [&] { return agent_->find_worker(kWorker) == nullptr; }, 5s));
  common::SleepMillis(200);
  EXPECT_EQ(agent_->restarts(), 2);
  EXPECT_EQ(*coord_.get_str(WorkerStatePath("t", kWorker)), "DEAD");
}

TEST_F(AgentFixture, StopClosesSessionAndHostEntry) {
  agent_->stop();
  EXPECT_FALSE(coord_.exists("/cluster/hosts/host1"));
}

}  // namespace
}  // namespace typhoon::stream
