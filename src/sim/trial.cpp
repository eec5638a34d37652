#include "sim/trial.hpp"

#include <stdexcept>

#include "baselines/direct_mle.hpp"
#include "core/sampling_vector.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/epoch_pipeline.hpp"

namespace fttt {

void TrialWorker::bind(const ScenarioConfig& cfg, std::span<const Method> methods,
                       ThreadPool& pool, FaceMapCache* cache,
                       const RandomDeploymentGenerator* gen) {
  cfg_ = cfg;
  methods_ = methods;
  pool_ = &pool;
  cache_ = cache;
  gen_ = gen;
  channel_ = resolve_channel(cfg);
  sampling_ = scenario_sampling(cfg, channel_);
  pm_config_ = path_matching_config(cfg);
  needs_uncertain_ = needs_uncertain_map(methods);
  needs_bisector_ = needs_bisector_map(methods);

  fttt_configs_.clear();
  fttt_slot_.assign(methods.size(), 0);
  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (!is_fttt(methods[m])) continue;
    fttt_slot_[m] = fttt_configs_.size();
    fttt_configs_.push_back(fttt_config(cfg, methods[m]));
  }

  // The division grid follows the scenario's field, so the builders
  // restart from the next trial's roster.
  uncertain_builder_.reset();
  bisector_builder_.reset();
}

Division TrialWorker::divide(std::optional<FaceMapBuilder>& builder,
                             FaceMapBuilder::BuildProducts& products, double C) {
  if (cache_) return cache_->get_or_build(nodes_, C, cfg_.field, cfg_.grid_cell, *pool_);
  FTTT_OBS_SPAN("sim.facemap.build");
  if (builder) builder->reset_roster(nodes_);
  else builder.emplace(nodes_, C, cfg_.field, cfg_.grid_cell, *pool_);
  builder->build_into(products);
  return Division{products.map, products.table, nullptr, nullptr};
}

void TrialWorker::begin(std::uint64_t trial) {
  // build_into overwrites the pooled products in place: every consumer
  // of the previous trial's division must be gone first.
  matcher_.reset();
  uncertain_ = bisector_ = Division{};

  root_ = RngStream(cfg_.seed).substream(trial);
  if (gen_) gen_->generate_into(cfg_.seed, trial, nodes_);
  else nodes_ = scenario_deployment(cfg_, root_.substream(1));
  trace_ = scenario_trace(cfg_, root_.substream(2));
  faults_.emplace(cfg_, root_.substream(3));

  if (needs_uncertain_) uncertain_ = divide(uncertain_builder_, uncertain_products_, channel_.C);
  padded_ = 0;
  if (needs_bisector_) {
    bisector_ = divide(bisector_builder_, bisector_products_, 1.0);
    matcher_.emplace(bisector_.map, bisector_.table);
    padded_ = matcher_->table().padded_faces();
  }

  const std::size_t epochs = scenario_epochs(cfg_);
  truths_.resize(epochs);
  fttt_vecs_.resize(epochs * fttt_configs_.size());
  scores_.resize(epochs * padded_);
  estimates_.resize(epochs);
}

void TrialWorker::precompute(std::size_t e) {
  const double t0 = static_cast<double>(e) * cfg_.localization_period;
  const GroupingSampling group =
      collect_group(nodes_, sampling_, faults_->model(), e, t0,
                    [this](double t) { return trace_->position_at(t); },
                    root_.substream(4, static_cast<std::uint64_t>(e)));
  truths_[e] = trace_->position_at(t0);
  SamplingVector* vecs = fttt_vecs_.data() + e * fttt_configs_.size();
  for (const FtttTracker::Config& c : fttt_configs_)
    *vecs++ = build_sampling_vector(group, c.eps, c.mode, c.missing);
  if (matcher_)
    matcher_->similarities_into(one_shot_vector(group, 0, cfg_.eps, cfg_.missing), scores(e));
}

std::span<const Vec2> TrialWorker::consume(std::size_t m) {
  const std::size_t epochs = truths_.size();
  switch (methods_[m]) {
    case Method::kFttt:
    case Method::kFtttExtended: {
      const std::size_t slot = fttt_slot_[m];
      FtttTracker tracker(uncertain_.map, fttt_configs_[slot], uncertain_.table);
      for (std::size_t e = 0; e < epochs; ++e)
        estimates_[e] =
            tracker.localize(fttt_vecs_[e * fttt_configs_.size() + slot]).position;
      break;
    }
    case Method::kPathMatching: {
      PathMatchingTracker tracker(bisector_.map, pm_config_);
      for (std::size_t e = 0; e < epochs; ++e)
        estimates_[e] = tracker.localize_scored(scores(e)).position;
      break;
    }
    case Method::kDirectMle:
      for (std::size_t e = 0; e < epochs; ++e)
        estimates_[e] = matcher_->select_from(scores(e)).position;
      break;
  }
  return estimates_;
}

TrackingResult run_tracking_pipelined(const ScenarioConfig& cfg,
                                      std::span<const Method> methods,
                                      std::uint64_t trial, ThreadPool& pool,
                                      FaceMapCache* cache) {
  if (methods.empty())
    throw std::invalid_argument("run_tracking_pipelined: no methods given");
  TrialWorker worker;
  worker.bind(cfg, methods, pool, cache);
  worker.begin(trial);
  const std::size_t epochs = worker.epochs();
  {
    FTTT_OBS_SPAN("sim.pipeline.precompute");
    parallel_for(0, epochs, [&](std::size_t e) { worker.precompute(e); }, pool);
  }
  FTTT_OBS_COUNT("sim.pipeline.epochs", epochs);

  TrackingResult result;
  result.faces_uncertain = worker.faces_uncertain();
  result.faces_bisector = worker.faces_bisector();
  result.true_positions.assign(worker.truths().begin(), worker.truths().end());
  for (std::size_t e = 0; e < epochs; ++e)
    result.times.push_back(static_cast<double>(e) * cfg.localization_period);
  FTTT_OBS_SPAN("sim.pipeline.consume");
  result.methods.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) {
    MethodTrackResult& mr = result.methods[m];
    mr.method = methods[m];
    const std::span<const Vec2> estimates = worker.consume(m);
    mr.estimates.assign(estimates.begin(), estimates.end());
    for (std::size_t e = 0; e < epochs; ++e)
      mr.errors.push_back(distance(estimates[e], result.true_positions[e]));
  }
  return result;
}

}  // namespace fttt
