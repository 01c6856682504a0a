// Chaos tests: the full SC98 scenario under a scripted FaultPlan.
//
// Every server role (scheduler, gossip, the control site's logging + state
// services) is crash-restarted at least once and a site link flaps, then the
// trace-level invariant checker proves no work unit was silently lost, the
// clique re-converged to one view, and every opened breaker re-probed. A
// second test replays the identical seed twice and demands bit-identical
// trace JSON — the chaos engine must not perturb determinism.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "app/scenario.hpp"
#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"

namespace ew::app {
namespace {

/// quick_options() from the scenario tests, plus a fault schedule that hits
/// every role: two schedulers, two gossips, the control site, one link flap.
ScenarioOptions chaos_options(const std::string& storage_dir,
                              std::uint64_t seed = 11) {
  ScenarioOptions o;
  o.seed = seed;
  o.fleet_scale = 0.15;
  o.warmup = 30 * kMinute;
  o.record = 150 * kMinute;
  o.judging_offset = 90 * kMinute;
  o.report_interval = kMinute;
  o.state_storage_dir = storage_dir;
  const TimePoint t0 = o.warmup;
  o.chaos.crash_restart(t0 + 10 * kMinute, "sched-0", 8 * kMinute);
  o.chaos.crash_restart(t0 + 25 * kMinute, "gossip-0", 6 * kMinute);
  o.chaos.crash_restart(t0 + 40 * kMinute, "sched-1", 10 * kMinute);
  o.chaos.crash_restart(t0 + 55 * kMinute, "sdsc-control", 5 * kMinute);
  o.chaos.crash_restart(t0 + 70 * kMinute, "gossip-2", 12 * kMinute);
  o.chaos.link_flap(t0 + 85 * kMinute, "sdsc", "ncsa", 10 * kMinute);
  return o;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() {
    char tmpl[] = "/tmp/ew_chaos_XXXXXX";
    dir = mkdtemp(tmpl);
    EXPECT_FALSE(dir.empty());
  }
  ~ChaosTest() override {
    std::filesystem::remove_all(dir);
    obs::trace().set_enabled(false);
    obs::trace().reset();
    obs::trace().set_capacity(4096);
  }

  std::string dir;
};

TEST_F(ChaosTest, EveryRoleCrashRestartsWithoutLosingWork) {
  obs::trace().reset();
  obs::trace().set_capacity(1u << 20);
  obs::trace().set_enabled(true);

  const ScenarioOptions o = chaos_options(dir);
  Sc98Scenario scenario(o);
  const ScenarioResults res = scenario.run();
  EXPECT_GT(res.total_ops, 0u) << "chaos must not stop the application";

  sim::ChaosEngine* chaos = scenario.chaos_engine();
  ASSERT_NE(chaos, nullptr);
  EXPECT_EQ(chaos->crashes(), 5u);
  EXPECT_EQ(chaos->restarts(), 5u);
  EXPECT_EQ(chaos->faults_injected(), 12u);  // 5 crash + 5 restart + 2 link
  EXPECT_TRUE(chaos->process_alive("sched-0"));
  EXPECT_TRUE(chaos->process_alive("sched-1"));
  EXPECT_TRUE(chaos->process_alive("gossip-0"));
  EXPECT_TRUE(chaos->process_alive("gossip-2"));
  EXPECT_TRUE(chaos->process_alive("sdsc-control"));

  // Every gossip — including the two that died and rejoined — converged back
  // to one clique view.
  ASSERT_GE(ScenarioOptions::kNumGossips, 2);
  gossip::GossipServer* g0 = scenario.gossip_server(0);
  ASSERT_NE(g0, nullptr);
  const gossip::View& v0 = g0->clique().view();
  EXPECT_EQ(v0.members.size(), static_cast<std::size_t>(ScenarioOptions::kNumGossips));
  for (int i = 1; i < ScenarioOptions::kNumGossips; ++i) {
    gossip::GossipServer* gi = scenario.gossip_server(i);
    ASSERT_NE(gi, nullptr) << "gossip-" << i;
    const gossip::View& vi = gi->clique().view();
    EXPECT_EQ(vi.generation, v0.generation) << "gossip-" << i;
    EXPECT_EQ(vi.leader, v0.leader) << "gossip-" << i;
    EXPECT_EQ(vi.members.size(), v0.members.size()) << "gossip-" << i;
  }

  // The global safety/liveness invariants over the whole span stream.
  obs::InvariantOptions iopts;
  for (int i = 0; i < ScenarioOptions::kNumSchedulers; ++i) {
    core::SchedulerServer* s = scenario.scheduler_server(i);
    ASSERT_NE(s, nullptr) << "sched-" << i;
    for (std::uint64_t id : s->pool().assigned_units()) {
      iopts.live_units.insert(id);
    }
  }
  const obs::InvariantReport report = obs::check_invariants(obs::trace(), iopts);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.units_issued, 0u);
  EXPECT_EQ(report.units_lost, 0u);
  EXPECT_GT(report.view_changes, 0u);
  EXPECT_EQ(report.chaos_faults, 12u);
}

TEST_F(ChaosTest, IdenticalSeedsReplayBitIdenticalTraces) {
  auto run_once = [](const std::string& storage) {
    obs::trace().reset();
    obs::trace().set_capacity(1u << 20);
    obs::trace().set_enabled(true);
    {
      Sc98Scenario scenario(chaos_options(storage));
      scenario.run();
    }
    // Capture after teardown so shutdown-path spans are covered too.
    obs::trace().set_enabled(false);
    return obs::trace().to_json();
  };

  char tmpl[] = "/tmp/ew_chaos_XXXXXX";
  const std::string dir2 = mkdtemp(tmpl);
  ASSERT_FALSE(dir2.empty());
  const std::string a = run_once(dir);
  const std::string b = run_once(dir2);
  std::filesystem::remove_all(dir2);

  ASSERT_GT(a.size(), 2u) << "first run recorded no spans";
  ASSERT_EQ(a.size(), b.size()) << "replays recorded different span streams";
  if (a != b) {
    std::size_t i = 0;
    while (i < a.size() && a[i] == b[i]) ++i;
    const std::size_t from = i > 60 ? i - 60 : 0;
    FAIL() << "traces diverge at byte " << i << ":\n  run A: ..."
           << a.substr(from, 120) << "\n  run B: ..." << b.substr(from, 120);
  }
}

}  // namespace
}  // namespace ew::app
