// The trial engine: one tracking trial, as every production driver runs it.
//
// run_tracking (sim/runner.hpp) interleaves per-epoch work serially —
// sample the group, build the vectors, match, advance each tracker, one
// epoch at a time. It is the executable specification. Production runs
// split a trial into the two halves the spec interleaves:
//
//   - precompute (epoch e): collect_group, the truth position, every
//     FTTT method's sampling vector and one SoA similarity scan of the
//     one-shot vector over the bisector table. Epoch e draws every
//     sample from root.substream(4, e) and fault decisions are pure in
//     (node, epoch), so epochs are independent: any order, any thread.
//   - consume (method m): the sequential decision side, per method in
//     epoch order. FTTT climbs from the previous face, path matching
//     advances its Viterbi window over the score rows, and Direct MLE —
//     stateless — selects its match from the same rows
//     (BatchMatcher::select_from), so one scan per epoch serves both
//     bisector methods.
//
// A TrialWorker owns its per-trial buffers (build products, per-epoch
// rows), so a worker reused across trials (run_campaign) recycles their
// storage instead of reallocating it. Divisions come from the
// FaceMapCache when one is bound, otherwise from the worker's pooled
// FaceMapBuilders rebuilt in place (build_into).
//
// Two drivers own the fan-out: run_tracking_pipelined (epoch_pipeline.hpp)
// spreads one trial's epochs over the pool, run_campaign (campaign.hpp)
// spreads trials over pooled workers and precomputes each trial's epochs
// serially. Either way every estimate is bit-identical to run_tracking
// with the same (cfg, methods, trial); tests/sim/test_epoch_pipeline.cpp
// and tests/sim/test_campaign.cpp enforce the contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/division.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "sim/scenario_build.hpp"

namespace fttt {

class TrialWorker {
 public:
  /// Bind the worker to a scenario. `methods`, `pool`, `cache` and `gen`
  /// must outlive the binding. With `cache` the divisions are fetched
  /// through it; with `gen` deployments come from it (byte-identical to
  /// scenario_deployment for kRandom under kFixed) instead of from
  /// scenario_deployment. Rebinding restarts the pooled builders.
  void bind(const ScenarioConfig& cfg, std::span<const Method> methods, ThreadPool& pool,
            FaceMapCache* cache = nullptr, const RandomDeploymentGenerator* gen = nullptr);

  /// Start a trial: deploy, divide, and size the per-epoch rows. Every
  /// span handed out for the previous trial is invalidated.
  void begin(std::uint64_t trial);

  /// Fill epoch e's rows. Reads only trial state, so calls for
  /// different epochs may run concurrently.
  void precompute(std::size_t e);

  /// Run method m over every precomputed epoch in order; the estimates
  /// stay valid until the next consume or begin.
  std::span<const Vec2> consume(std::size_t m);

  std::size_t epochs() const { return truths_.size(); }
  std::span<const Vec2> truths() const { return truths_; }
  std::size_t faces_uncertain() const { return face_count(uncertain_); }
  std::size_t faces_bisector() const { return face_count(bisector_); }

 private:
  static std::size_t face_count(const Division& d) { return d.map ? d.map->face_count() : 0; }
  Division divide(std::optional<FaceMapBuilder>& builder,
                  FaceMapBuilder::BuildProducts& products, double C);
  std::span<double> scores(std::size_t e) { return {scores_.data() + e * padded_, padded_}; }

  ScenarioConfig cfg_;
  std::span<const Method> methods_;
  ThreadPool* pool_ = nullptr;
  FaceMapCache* cache_ = nullptr;
  const RandomDeploymentGenerator* gen_ = nullptr;
  ResolvedChannel channel_;
  SamplingConfig sampling_;
  PathMatchingTracker::Config pm_config_;
  std::vector<FtttTracker::Config> fttt_configs_;  ///< one per FTTT method
  std::vector<std::size_t> fttt_slot_;             ///< method -> fttt_configs_ index
  bool needs_uncertain_ = false;
  bool needs_bisector_ = false;

  // Trial state.
  RngStream root_{0};
  Deployment nodes_;
  std::unique_ptr<MobilityModel> trace_;
  std::optional<ScenarioFaults> faults_;
  std::optional<FaceMapBuilder> uncertain_builder_;
  std::optional<FaceMapBuilder> bisector_builder_;
  FaceMapBuilder::BuildProducts uncertain_products_;
  FaceMapBuilder::BuildProducts bisector_products_;
  Division uncertain_;
  Division bisector_;
  std::optional<BatchMatcher> matcher_;  ///< over bisector_: scans + Direct MLE
  std::size_t padded_ = 0;               ///< score row length

  // Per-epoch rows, epoch-major.
  std::vector<Vec2> truths_;
  std::vector<SamplingVector> fttt_vecs_;  ///< epochs x fttt_configs_.size()
  std::vector<double> scores_;             ///< epochs x padded_
  std::vector<Vec2> estimates_;
};

}  // namespace fttt
