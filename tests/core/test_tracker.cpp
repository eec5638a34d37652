#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "obs/obs.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};

std::shared_ptr<const FaceMap> make_map(double C = 1.2) {
  const Deployment nodes = grid_deployment(kField, 9);
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 0.5));
}

GroupingSampling sample_at(const FaceMap& map, Vec2 target, double sigma,
                           std::uint64_t epoch = 0) {
  SamplingConfig cfg;
  cfg.model = PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = sigma, .d0 = 1.0};
  cfg.sensing_range = 100.0;
  cfg.sample_period = 0.1;
  cfg.samples_per_group = 5;
  const NoFaults faults;
  return collect_group(map.nodes(), cfg, faults, epoch, 0.0,
                       [&](double) { return target; }, RngStream(99).substream(epoch));
}

TEST(FtttTracker, NullMapThrows) {
  EXPECT_THROW(FtttTracker(nullptr, {}), std::invalid_argument);
}

TEST(FtttTracker, NodeCountMismatchThrows) {
  FtttTracker tracker(make_map(), {});
  GroupingSampling g(3, 1);
  EXPECT_THROW(tracker.localize(g), std::invalid_argument);
}

TEST(FtttTracker, NoiselessLocalizationIsAccurate) {
  // With sigma = 0 and eps = 0 the derived C is exactly 1; map and
  // sampling sides agree and the estimate is intra-face-accurate.
  auto map = make_map(1.0);
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 0.0, true, 0.5});
  // Pick targets well inside the field; with zero noise the estimate must
  // land within a few metres (intra-face error only).
  for (Vec2 target : {Vec2{10.0, 10.0}, Vec2{25.0, 14.0}, Vec2{31.0, 31.0}}) {
    const TrackEstimate e = tracker.localize(sample_at(*map, target, 0.0));
    EXPECT_LT(distance(e.position, target), 6.0) << "target " << target;
  }
}

TEST(FtttTracker, StatsAccumulate) {
  auto map = make_map();
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 0.0, true, 0.5});
  tracker.localize(sample_at(*map, {10.0, 10.0}, 0.0, 0));
  tracker.localize(sample_at(*map, {11.0, 10.0}, 0.0, 1));
  EXPECT_EQ(tracker.stats().localizations, 2u);
  EXPECT_GT(tracker.stats().faces_examined, 0u);
}

TEST(FtttTracker, WarmStartReducesWork) {
  auto map = make_map();
  FtttTracker cold(map, FtttTracker::Config{VectorMode::kBasic, 0.0, true, 0.0});
  FtttTracker warm(map, FtttTracker::Config{VectorMode::kBasic, 0.0, true, 0.0});

  // Warm tracker follows a slowly moving target; cold tracker resets
  // between every localization. Warm should examine fewer faces in the
  // steady state.
  for (int i = 0; i < 20; ++i) {
    const Vec2 target{10.0 + 0.5 * i, 20.0};
    warm.localize(sample_at(*map, target, 0.0, static_cast<std::uint64_t>(i)));
    cold.reset();
    cold.localize(sample_at(*map, target, 0.0, static_cast<std::uint64_t>(i)));
  }
  EXPECT_LE(warm.stats().faces_examined, cold.stats().faces_examined);
}

TEST(FtttTracker, ExhaustiveModeMatchesOrBeatsHeuristicSimilarity) {
  auto map = make_map();
  FtttTracker heuristic(map, FtttTracker::Config{VectorMode::kBasic, 1.0, true, 0.0});
  FtttTracker exhaustive(map, FtttTracker::Config{VectorMode::kBasic, 1.0, false, 0.0});
  for (int i = 0; i < 10; ++i) {
    const Vec2 target{8.0 + 2.0 * i, 15.0};
    const auto g = sample_at(*map, target, 6.0, static_cast<std::uint64_t>(i));
    const TrackEstimate h = heuristic.localize(g);
    const TrackEstimate x = exhaustive.localize(g);
    EXPECT_GE(x.similarity, h.similarity);
  }
}

TEST(FtttTracker, FallbackTriggersOnPoorSimilarity) {
  auto map = make_map();
  // Force the fallback with an impossible threshold.
  FtttTracker tracker(map, FtttTracker::Config{
                               VectorMode::kBasic, 1.0, true,
                               std::numeric_limits<double>::infinity()});
  tracker.localize(sample_at(*map, {20.0, 20.0}, 6.0));
  EXPECT_EQ(tracker.stats().fallbacks, 1u);
}

TEST(FtttTracker, FallbackCountsClimbPlusExhaustivePass) {
  // With the retry forced on every epoch, each localization examines
  // its climb's faces plus the exhaustive pass's — whichever result it
  // keeps — and the two fallback counters split every retry.
  auto map = make_map();
  const FtttTracker::Config cfg{VectorMode::kBasic, 1.0, true,
                                std::numeric_limits<double>::infinity()};
  FtttTracker tracker(map, cfg);
  const BatchMatcher& matcher = tracker.matcher();

  obs::set_enabled(true);
  obs::Counter& won = obs::counter("localizer.fallback.won");
  obs::Counter& kept = obs::counter("localizer.fallback.kept_climb");
  const std::uint64_t won0 = won.value();
  const std::uint64_t kept0 = kept.value();
  std::size_t expected = 0;
  std::uint64_t expected_won = 0;
  FaceId start = map->face_at(map->grid().extent().center());
  for (int i = 0; i < 12; ++i) {
    const Vec2 target{6.0 + 2.5 * i, 12.0 + 1.5 * i};
    const SamplingVector vd = build_sampling_vector(
        sample_at(*map, target, 6.0, static_cast<std::uint64_t>(i)), cfg.eps, cfg.mode,
        cfg.missing);
    const MatchResult climbed = matcher.climb(vd, start);
    const MatchResult full = matcher.match_one(vd);
    expected += climbed.faces_examined + full.faces_examined;
    const bool retry_wins = full.similarity > climbed.similarity;
    expected_won += retry_wins ? 1 : 0;
    start = retry_wins ? full.face : climbed.face;
    EXPECT_EQ(tracker.localize(vd).face, start) << "epoch " << i;
  }
  const std::uint64_t split = (won.value() - won0) + (kept.value() - kept0);
  const std::uint64_t won_delta = won.value() - won0;
  obs::set_enabled(false);

  EXPECT_EQ(tracker.stats().fallbacks, 12u);
  EXPECT_EQ(tracker.stats().faces_examined, expected);
  if (obs::kCompiledIn) {
    EXPECT_EQ(split, tracker.stats().fallbacks);
    EXPECT_EQ(won_delta, expected_won);
  }
}

TEST(FtttTracker, ExtendedModeTracksToo) {
  auto map = make_map(1.0);
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kExtended, 0.0, true, 0.5});
  const TrackEstimate e = tracker.localize(sample_at(*map, {22.0, 18.0}, 0.0));
  EXPECT_LT(distance(e.position, {22.0, 18.0}), 6.0);
}

TEST(FtttTracker, ResetForgetsWarmStart) {
  auto map = make_map(1.0);
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 0.0, true, 0.5});
  tracker.localize(sample_at(*map, {10.0, 10.0}, 0.0));
  tracker.reset();
  // After reset the next localization still works (cold start path).
  const TrackEstimate e = tracker.localize(sample_at(*map, {30.0, 30.0}, 0.0, 1));
  EXPECT_LT(distance(e.position, {30.0, 30.0}), 6.0);
}

}  // namespace
}  // namespace fttt
