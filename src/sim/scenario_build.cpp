#include "sim/scenario_build.hpp"

#include <algorithm>
#include <stdexcept>

#include "mobility/gauss_markov.hpp"
#include "mobility/path_trace.hpp"
#include "mobility/waypoint.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {

Deployment scenario_deployment(const ScenarioConfig& cfg, RngStream rng) {
  switch (cfg.deployment) {
    case DeploymentKind::kGrid:
      return grid_deployment(cfg.field, cfg.sensor_count);
    case DeploymentKind::kRandom:
      return random_deployment(cfg.field, cfg.sensor_count, rng);
    case DeploymentKind::kCross:
      return cross_deployment(cfg.field.center(), cfg.cross_spacing);
  }
  throw std::logic_error("scenario_deployment: unknown deployment kind");
}

std::unique_ptr<MobilityModel> scenario_trace(const ScenarioConfig& cfg, RngStream rng) {
  switch (cfg.trace) {
    case TraceKind::kRandomWaypoint:
      return std::make_unique<RandomWaypoint>(
          WaypointConfig{cfg.field, cfg.v_min, cfg.v_max, 0.0, cfg.duration}, rng);
    case TraceKind::kUShape:
      return std::make_unique<PathTrace>(u_shape_path(cfg.field, 0.15 * cfg.field.width()),
                                         cfg.v_min, cfg.v_max, rng);
    case TraceKind::kGaussMarkov: {
      GaussMarkovConfig gm;
      gm.field = cfg.field;
      gm.mean_speed = 0.5 * (cfg.v_min + cfg.v_max);
      gm.v_min = cfg.v_min;
      gm.v_max = cfg.v_max;
      gm.duration = cfg.duration;
      return std::make_unique<GaussMarkov>(gm, rng);
    }
  }
  throw std::logic_error("scenario_trace: unknown trace kind");
}

ResolvedChannel resolve_channel(const ScenarioConfig& cfg) {
  ResolvedChannel out;
  out.model = cfg.model;
  if (cfg.channel == Channel::kBounded) {
    out.C = uncertainty_constant(cfg.eps, out.model.beta, out.model.sigma);
    out.model.noise = NoiseKind::kBounded;
    out.model.bounded_amplitude = bounded_noise_amplitude(out.C, out.model.beta);
  } else {
    out.model.noise = NoiseKind::kGaussian;
    out.C = cfg.calibrate_C
                ? calibrated_uncertainty_constant(cfg.eps, out.model.beta,
                                                  out.model.sigma, cfg.samples_per_group)
                : uncertainty_constant(cfg.eps, out.model.beta, out.model.sigma);
  }
  return out;
}

std::uint64_t scenario_epochs(const ScenarioConfig& cfg) {
  return static_cast<std::uint64_t>(cfg.duration / cfg.localization_period);
}

SamplingConfig scenario_sampling(const ScenarioConfig& cfg, const ResolvedChannel& channel) {
  SamplingConfig sampling;
  sampling.model = channel.model;
  sampling.sensing_range = cfg.sensing_range;
  sampling.sample_period = 1.0 / cfg.sample_rate;
  sampling.samples_per_group = cfg.samples_per_group;
  sampling.clock_skew = cfg.clock_skew;
  sampling.freeze_target_during_group = cfg.freeze_group;
  return sampling;
}

ScenarioFaults::ScenarioFaults(const ScenarioConfig& cfg, RngStream rng)
    : dropout_(cfg.dropout_probability, rng), dropping_(cfg.dropout_probability > 0.0) {}

const FaultModel& ScenarioFaults::model() const {
  if (dropping_) return dropout_;
  return none_;
}

bool is_fttt(Method m) { return m == Method::kFttt || m == Method::kFtttExtended; }

bool needs_uncertain_map(std::span<const Method> methods) {
  return std::any_of(methods.begin(), methods.end(), is_fttt);
}

bool needs_bisector_map(std::span<const Method> methods) {
  return std::any_of(methods.begin(), methods.end(), [](Method m) { return !is_fttt(m); });
}

FtttTracker::Config fttt_config(const ScenarioConfig& cfg, Method m) {
  const VectorMode mode = m == Method::kFttt ? VectorMode::kBasic : VectorMode::kExtended;
  return FtttTracker::Config{mode, cfg.eps, true, 0.5, cfg.missing, cfg.hierarchical_matching};
}

PathMatchingTracker::Config path_matching_config(const ScenarioConfig& cfg) {
  PathMatchingTracker::Config pm;
  pm.eps = cfg.eps;
  pm.max_velocity = cfg.v_max;
  pm.period = cfg.localization_period;
  pm.missing = cfg.missing;
  return pm;
}

}  // namespace fttt
