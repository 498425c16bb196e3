// Deterministic allocation gate (ctest label `perf-smoke`): the explorer's
// sequential DFS must not allocate per node. Counts every global
// `operator new` during a dedup + liveness exploration and fails above one
// allocation per executed machine event. Unlike the wall-clock ratio gates
// this does not depend on host noise: the counts are a pure function of
// the code. Replacing the global allocator is why it lives in its own
// binary, and why it has no sanitizer twin (ASan owns operator new there).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "runtime/scenario.h"
#include "tso/explorer.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tpa {
namespace {

struct Scope {
  const char* scenario;
  int preemptions;
  int max_crashes;
  std::uint64_t max_steps;
};

TEST(AllocationGate, ExplorerAllocatesLessThanOncePerExecutedEvent) {
  // Sequential certification scopes, dedup + liveness on: the per-node work
  // (candidate sets, branch-point restores, liveness bookkeeping) runs
  // millions of times, so any allocation in it dominates the count.
  const Scope scopes[] = {
      {"bakery-tso-3p", 2, 0, 200},
      {"recoverable-2p", 1, 1, 600},
  };
  for (const Scope& scope : scopes) {
    const runtime::Scenario* s = runtime::find_scenario(scope.scenario);
    ASSERT_NE(s, nullptr) << scope.scenario;
    tso::ExplorerConfig cfg;
    cfg.preemptions = scope.preemptions;
    cfg.max_crashes = scope.max_crashes;
    cfg.max_steps = scope.max_steps;
    cfg.dedup = tso::DedupMode::kState;
    cfg.liveness = tso::LivenessMode::kCheck;
    const std::uint64_t before = g_allocations.load();
    const tso::ExplorerResult r = s->explore(cfg);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_EQ(r.verdict.kind, tso::VerdictKind::kClean) << scope.scenario;
    ASSERT_GT(r.steps, 0u);
    const double per_event =
        static_cast<double>(allocations) / static_cast<double>(r.steps);
    std::printf("%s: %llu allocations over %llu events (%.3f per event)\n",
                scope.scenario, static_cast<unsigned long long>(allocations),
                static_cast<unsigned long long>(r.steps), per_event);
    EXPECT_LE(per_event, 1.0)
        << scope.scenario << ": " << allocations << " allocations over "
        << r.steps << " executed events";
  }
}

}  // namespace
}  // namespace tpa
