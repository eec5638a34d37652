// Race coverage for the epoch pipeline and the face-map cache: these
// run under the tsan preset (tests_parallel label) with real thread
// fan-out, so TSan sees the parallel precompute sharing the batch
// matcher, the single-flight cache build, and concurrent hits.
#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "core/facemap_cache.hpp"
#include "net/deployment.hpp"
#include "sim/epoch_pipeline.hpp"
#include "sim/montecarlo.hpp"
#include "sim/runner.hpp"

namespace fttt {
namespace {

ScenarioConfig quick_config() {
  ScenarioConfig cfg;
  cfg.sensor_count = 8;
  cfg.duration = 8.0;
  cfg.grid_cell = 2.0;
  return cfg;
}

TEST(EpochPipelineParallel, PrecomputeFanOutMatchesSerial) {
  const std::array<Method, 4> methods{Method::kFttt, Method::kFtttExtended,
                                      Method::kPathMatching, Method::kDirectMle};
  const TrackingResult serial = run_tracking(quick_config(), methods);
  ThreadPool pool(4);
  const TrackingResult piped = run_tracking_pipelined(quick_config(), methods, 0, pool);
  ASSERT_EQ(serial.methods.size(), piped.methods.size());
  for (std::size_t m = 0; m < serial.methods.size(); ++m) {
    ASSERT_EQ(serial.methods[m].errors.size(), piped.methods[m].errors.size());
    for (std::size_t e = 0; e < serial.methods[m].errors.size(); ++e)
      EXPECT_EQ(serial.methods[m].errors[e], piped.methods[m].errors[e]);
  }
}

TEST(EpochPipelineParallel, ConcurrentCacheLookupsSingleFlight) {
  FaceMapCache cache;
  const Deployment nodes{{0, {5.0, 5.0}}, {1, {15.0, 5.0}}, {2, {5.0, 15.0}}, {3, {15.0, 15.0}}};
  const Aabb field{{0.0, 0.0}, {20.0, 20.0}};
  constexpr std::size_t kThreads = 8;
  std::vector<Division> entries(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i)
      threads.emplace_back(
          [&, i] { entries[i] = cache.get_or_build(nodes, 1.2, field, 1.0); });
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(entries[0].map.get(), entries[i].map.get());
    EXPECT_EQ(entries[0].table.get(), entries[i].table.get());
  }
  const FaceMapCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(EpochPipelineParallel, ConcurrentTrialsShareTheCache) {
  // monte_carlo runs trials across the pool while every trial hits the
  // same cache: grid deployment makes all keys identical, so the cache
  // serves one build to concurrent consumers.
  ScenarioConfig cfg = quick_config();
  cfg.deployment = DeploymentKind::kGrid;
  const std::array<Method, 2> methods{Method::kFttt, Method::kDirectMle};
  ThreadPool pool(4);
  FaceMapCache cache;
  const std::vector<MonteCarloSummary> summary =
      monte_carlo(cfg, methods, 6, pool, &cache);
  ASSERT_EQ(summary.size(), 2u);
  for (const MonteCarloSummary& s : summary) EXPECT_GT(s.pooled.count(), 0u);
  EXPECT_EQ(cache.stats().builds, 2u);  // one per unique (deployment, C) key
}

}  // namespace
}  // namespace fttt
