#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "sim/trial.hpp"

namespace fttt {

namespace {

/// Run one trial on `worker` and overwrite out[0..methods) with its
/// per-method error statistics (epoch order, exactly the per_run
/// accumulation monte_carlo derives from TrackingResult::errors).
void run_trial(TrialWorker& worker, std::uint64_t trial, std::size_t methods,
               RunningStats* out) {
  worker.begin(trial);
  for (std::size_t e = 0; e < worker.epochs(); ++e) worker.precompute(e);
  const std::span<const Vec2> truths = worker.truths();
  for (std::size_t m = 0; m < methods; ++m) {
    const std::span<const Vec2> estimates = worker.consume(m);
    RunningStats stats;
    for (std::size_t e = 0; e < estimates.size(); ++e)
      stats.add(distance(estimates[e], truths[e]));
    out[m] = stats;
  }
}

}  // namespace

ScenarioConfig campaign_cell_scenario(const CampaignConfig& cfg, double density,
                                      std::size_t n) {
  if (!(density > 0.0))
    throw std::invalid_argument("campaign_cell_scenario: density must be positive");
  ScenarioConfig out = cfg.base;
  out.sensor_count = n;
  out.deployment = DeploymentKind::kRandom;
  const double side = std::sqrt(static_cast<double>(n) / density);
  out.field = Aabb{{0.0, 0.0}, {side, side}};
  return out;
}

CampaignResult run_campaign(const CampaignConfig& cfg, ThreadPool& pool) {
  if (cfg.densities.empty() || cfg.sensor_counts.empty())
    throw std::invalid_argument("run_campaign: empty sweep axis");
  if (cfg.methods.empty()) throw std::invalid_argument("run_campaign: no methods given");
  if (cfg.trials_per_cell == 0)
    throw std::invalid_argument("run_campaign: trials_per_cell must be positive");
  if (cfg.wave_size == 0)
    throw std::invalid_argument("run_campaign: wave_size must be positive");

  FTTT_OBS_SPAN("sim.campaign.run");
  CampaignResult result;
  result.densities = cfg.densities;
  result.sensor_counts = cfg.sensor_counts;
  result.cells.reserve(cfg.densities.size() * cfg.sensor_counts.size());

  const std::size_t nmethods = cfg.methods.size();
  // One worker per potential executor (pool threads + the participating
  // caller), capped by the wave: more workers than in-flight trials
  // would just idle while holding pooled buffers.
  const std::size_t worker_count = std::min(cfg.wave_size, pool.thread_count() + 1);
  std::vector<std::unique_ptr<TrialWorker>> workers;
  workers.reserve(worker_count);
  for (std::size_t k = 0; k < worker_count; ++k)
    workers.push_back(std::make_unique<TrialWorker>());
  std::vector<RunningStats> wave_stats(cfg.wave_size * nmethods);

  for (double density : cfg.densities) {
    for (std::size_t n : cfg.sensor_counts) {
      FTTT_OBS_SPAN("sim.campaign.cell");
      CampaignCell cell;
      cell.density = density;
      cell.sensor_count = n;
      cell.scenario = campaign_cell_scenario(cfg, density, n);
      const RandomDeploymentGenerator gen(cell.scenario.field, n, cfg.count_model);
      for (auto& worker : workers) worker->bind(cell.scenario, cfg.methods, pool, nullptr, &gen);
      cell.summaries.assign(nmethods, MonteCarloSummary{});
      for (std::size_t m = 0; m < nmethods; ++m) cell.summaries[m].method = cfg.methods[m];

      for (std::size_t wave_start = 0; wave_start < cfg.trials_per_cell;
           wave_start += cfg.wave_size) {
        const std::size_t wave = std::min(cfg.wave_size, cfg.trials_per_cell - wave_start);
        // Trial t is a pure function of (cfg, wave_start + t): the
        // worker stride below only decides which pooled buffers serve
        // it, so any thread count produces the same wave_stats.
        parallel_for(
            0, worker_count,
            [&](std::size_t k) {
              for (std::size_t t = k; t < wave; t += worker_count)
                run_trial(*workers[k], wave_start + t, nmethods,
                          wave_stats.data() + t * nmethods);
            },
            pool);
        // Merge in trial order — the exact monte_carlo merge sequence.
        for (std::size_t t = 0; t < wave; ++t) {
          for (std::size_t m = 0; m < nmethods; ++m) {
            const RunningStats& per_run = wave_stats[t * nmethods + m];
            cell.summaries[m].pooled.merge(per_run);
            // Same vacuous-trial guard as monte_carlo: a zero-epoch run
            // has no mean to contribute.
            if (per_run.count() > 0) cell.summaries[m].trial_means.add(per_run.mean());
          }
        }
        ++result.waves;
      }
      result.trials += cfg.trials_per_cell;
      result.cells.push_back(std::move(cell));
    }
  }
  FTTT_OBS_COUNT("sim.campaign.trials", result.trials);
  FTTT_OBS_COUNT("sim.campaign.waves", result.waves);
  return result;
}

}  // namespace fttt
