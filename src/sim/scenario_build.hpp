// Shared scenario-construction helpers.
//
// The serial runner (sim/runner.cpp, the executable spec) and the trial
// engine (sim/trial.cpp, behind run_tracking_pipelined, monte_carlo and
// run_campaign) must materialize *identical* worlds from a
// ScenarioConfig — same deployment, trace, channel, sampling
// parameters, fault model and tracker configurations — or the engine's
// bit-equivalence contract against run_tracking is meaningless. These
// helpers are the single definition both consume; each takes the exact
// substream the runner historically used (deployment: root.substream(1),
// trace: root.substream(2), faults: root.substream(3)).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "baselines/path_matching.hpp"
#include "core/tracker.hpp"
#include "mobility/mobility.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/pathloss.hpp"
#include "sim/scenario.hpp"

namespace fttt {

/// Materialize the configured deployment from its dedicated substream.
Deployment scenario_deployment(const ScenarioConfig& cfg, RngStream rng);

/// Materialize the configured mobility trace from its dedicated substream.
std::unique_ptr<MobilityModel> scenario_trace(const ScenarioConfig& cfg, RngStream rng);

/// The sensing channel after resolving the config's channel choice: the
/// path-loss model with its noise kind/amplitude filled in, plus the
/// division constant C for the uncertain face map.
struct ResolvedChannel {
  PathLossModel model;
  double C{0.0};
};

/// Resolve cfg.channel. Under the bounded channel the division constant
/// and the noise amplitude are two views of the same quantity, so the
/// Eq. 3 constant is used for both and calibration is moot; under the
/// Gaussian channel C is optionally calibrated for the group size.
ResolvedChannel resolve_channel(const ScenarioConfig& cfg);

/// Localization epochs of one run: whole periods within cfg.duration.
std::uint64_t scenario_epochs(const ScenarioConfig& cfg);

/// Grouping-sampling parameters of every epoch under `channel`.
SamplingConfig scenario_sampling(const ScenarioConfig& cfg, const ResolvedChannel& channel);

/// The run's fault model: Bernoulli dropout drawn from the fault
/// substream when cfg.dropout_probability > 0, no faults otherwise.
class ScenarioFaults {
 public:
  ScenarioFaults(const ScenarioConfig& cfg, RngStream rng);
  const FaultModel& model() const;

 private:
  BernoulliDropout dropout_;
  NoFaults none_;
  bool dropping_;
};

/// FTTT methods divide with the uncertain (C) map; path matching and
/// Direct MLE with the bisector (C = 1) map.
bool is_fttt(Method m);
bool needs_uncertain_map(std::span<const Method> methods);
bool needs_bisector_map(std::span<const Method> methods);

/// Tracker configuration of an FTTT method: basic vectors for kFttt,
/// extended for kFtttExtended; heuristic matching with the 0.5 fallback.
FtttTracker::Config fttt_config(const ScenarioConfig& cfg, Method m);

/// Path-matching configuration of the scenario.
PathMatchingTracker::Config path_matching_config(const ScenarioConfig& cfg);

}  // namespace fttt
