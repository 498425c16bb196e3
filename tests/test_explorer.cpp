// Context-bounded exhaustive exploration: proves small-scope mutual
// exclusion for correctly-fenced locks and automatically finds the
// violating schedule for the fence-free bakery — the "fences are
// unavoidable" premise ([5] in the paper), demonstrated.
#include <gtest/gtest.h>
#include <pthread.h>

#include <memory>

#include "algos/bakery.h"
#include "algos/zoo.h"
#include "runtime/scenario.h"
#include "tso/explorer.h"
#include "tso/schedule.h"

namespace tpa {
namespace {

using algos::BakeryFencing;
using algos::BakeryLock;
using algos::run_passages;
using tso::ExplorerConfig;
using tso::explore;
using tso::ScenarioBuilder;
using tso::Simulator;

ScenarioBuilder bakery_builder(int n, BakeryFencing fencing) {
  return [n, fencing](Simulator& sim) {
    auto lock = std::make_shared<BakeryLock>(sim, n, fencing);
    for (int p = 0; p < n; ++p)
      sim.spawn(p, run_passages(sim.proc(p), lock, 1));
  };
}

TEST(Explorer, FenceFreeBakeryViolationFoundAutomatically) {
  const auto build = bakery_builder(2, BakeryFencing::kNone);
  ExplorerConfig cfg;
  cfg.preemptions = 1;  // a single preemption already suffices
  const auto r = explore(2, {}, build, cfg);
  ASSERT_TRUE(r.verdict.found())
      << "a fence-free read/write lock cannot be correct under TSO";
  EXPECT_NE(r.verdict.message.find("mutual exclusion violated"), std::string::npos)
      << r.verdict.message;
  ASSERT_FALSE(r.verdict.witness.empty());

  // The witness schedule must reproduce the violation deterministically.
  EXPECT_THROW(
      tso::replay(2, {}, build, r.verdict.witness),
      CheckFailure);
}

TEST(Explorer, ProperlyFencedBakeryIsExhaustivelySafe) {
  const auto build = bakery_builder(2, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  const auto r = explore(2, {}, build, cfg);
  EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.schedules, 100u)
      << "two processes with two preemptions yield many schedules";
}

TEST(Explorer, ZooLocksSafeAtSmallScope) {
  for (const char* name : {"tas", "ticket", "mcs", "tournament",
                           "yang-anderson", "adaptive-bakery",
                           "adaptive-splitter"}) {
    const auto& f = algos::lock_factory(name);
    const int n = 2;
    ScenarioBuilder build = [&f, n](Simulator& sim) {
      auto lock = f.make(sim, n);
      for (int p = 0; p < n; ++p)
        sim.spawn(p, run_passages(sim.proc(p), lock, 1));
    };
    ExplorerConfig cfg;
    cfg.preemptions = 2;
    cfg.max_schedules = 200'000;
    const auto r = explore(n, {}, build, cfg);
    EXPECT_FALSE(r.verdict.found()) << name << ": " << r.verdict.message;
  }
}

TEST(Explorer, ThreeProcessesOnePreemption) {
  const auto build = bakery_builder(3, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  const auto r = explore(3, {}, build, cfg);
  EXPECT_FALSE(r.verdict.found()) << r.verdict.message;
  EXPECT_TRUE(r.exhausted);
}

TEST(Explorer, FenceFreeViolationAlsoAtThreeProcesses) {
  const auto build = bakery_builder(3, BakeryFencing::kNone);
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  const auto r = explore(3, {}, build, cfg);
  EXPECT_TRUE(r.verdict.found());
}

TEST(Explorer, AdaptiveLocksSafeAtThreeProcs) {
  // The adaptive locks at n=3 with one preemption: the registration races
  // (splitter walk / slot CAS) must never compromise exclusion.
  for (const char* name : {"adaptive-bakery", "adaptive-splitter"}) {
    const auto& f = algos::lock_factory(name);
    const int n = 3;
    ScenarioBuilder build = [&f, n](Simulator& sim) {
      auto lock = f.make(sim, n);
      for (int p = 0; p < n; ++p)
        sim.spawn(p, run_passages(sim.proc(p), lock, 1));
    };
    ExplorerConfig cfg;
    cfg.preemptions = 1;
    cfg.max_schedules = 500'000;
    const auto r = explore(n, {}, build, cfg);
    EXPECT_FALSE(r.verdict.found()) << name << ": " << r.verdict.message;
    EXPECT_TRUE(r.exhausted) << name;
  }
}

TEST(Explorer, RespectsScheduleBudget) {
  const auto build = bakery_builder(2, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 2;
  cfg.max_schedules = 5;
  const auto r = explore(2, {}, build, cfg);
  EXPECT_FALSE(r.exhausted);
  EXPECT_LE(r.schedules + r.truncated, 6u);
}

TEST(Explorer, ZeroPreemptionsIsSequential) {
  // With no preemptions each process runs to completion in turn: exactly
  // n! schedule skeletons for n processes (2 here, since drains interleave
  // deterministically).
  const auto build = bakery_builder(2, BakeryFencing::kTso);
  ExplorerConfig cfg;
  cfg.preemptions = 0;
  const auto r = explore(2, {}, build, cfg);
  EXPECT_FALSE(r.verdict.found());
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, 2u);
}

/// The DFS recurses once per executed step, so its frame size sets how deep
/// a schedule fits on a thread's stack. Guards that frame: tas-loop-2p with
/// one preemption spins down to the step cap, and 8000 steps must fit the
/// common 8 MiB default. Frame sizes depend on the optimizer and grow under
/// ASan/TSan, so unoptimized and sanitized builds skip it.
void* explore_deep_spin(void* out) {
  const runtime::Scenario* s = runtime::find_scenario("tas-loop-2p");
  ExplorerConfig cfg;
  cfg.preemptions = 1;
  cfg.max_steps = 8000;
  *static_cast<tso::ExplorerResult*>(out) = s->explore(cfg);
  return nullptr;
}

TEST(Explorer, EightThousandStepSchedulesFitAnEightMebibyteStack) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "stack frame sizes are only pinned for optimized, "
                  "unsanitized builds";
#endif
  ASSERT_NE(runtime::find_scenario("tas-loop-2p"), nullptr);
  tso::ExplorerResult r;
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, std::size_t{8} << 20), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, explore_deep_spin, &r), 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
  EXPECT_EQ(r.verdict.kind, tso::VerdictKind::kClean) << r.verdict.message;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.truncated, 0u) << "the spin must reach the step cap";
}

}  // namespace
}  // namespace tpa
