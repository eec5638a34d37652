// The campaign workload: run_campaign over densities {0.001, 0.0025} x
// N {10, 20}, a unique random deployment per trial, all four methods,
// 1 m preprocessing cell, nproc threads (nproc - 1 pool workers plus the
// calling thread, which run_campaign puts to work).
//
// Load is a closed sequence of campaign jobs. A job is one run_campaign
// call over the whole grid with nproc trials per cell (one wave per cell
// across every thread) and a seed of its own, so every trial of the run
// deploys afresh. Trials per second and the job latency are what a user
// running a sweep sees. The traced run adds a single-thread
// decomposition of sampled trials through the public net/core calls,
// proven bit-identical to run_campaign on the same trials.
#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/direct_mle.hpp"
#include "baselines/path_matching.hpp"
#include "bench.hpp"
#include "common/random.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/sampling_vector.hpp"
#include "core/tracker.hpp"
#include "gates.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario_build.hpp"

namespace perfbench {
namespace {

using namespace fttt;

CampaignConfig job_config(const Options& opt, std::uint64_t job) {
  CampaignConfig cfg;
  cfg.base.channel = Channel::kBounded;
  cfg.base.grid_cell = 1.0;
  cfg.base.duration = opt.smoke ? 2.0 : 10.0;
  cfg.base.seed = splitmix64(opt.seed * 0x9E3779B97F4A7C15ULL + job);
  cfg.densities = {0.001, 0.0025};
  cfg.sensor_counts = {10, 20};
  cfg.trials_per_cell = opt.nproc;
  cfg.wave_size = opt.nproc;
  cfg.methods = {Method::kFttt, Method::kFtttExtended, Method::kPathMatching,
                 Method::kDirectMle};
  return cfg;
}

std::size_t trials_of(const CampaignConfig& cfg) {
  return cfg.densities.size() * cfg.sensor_counts.size() * cfg.trials_per_cell;
}

std::size_t epochs_of(const CampaignConfig& cfg) {
  return static_cast<std::size_t>(cfg.base.duration / cfg.base.localization_period);
}

/// Serial monte_carlo of every cell (cache = nullptr: the unique-
/// deployment path), the reference the campaign must equal to the bit.
std::vector<std::vector<MonteCarloSummary>> serial_reference(const CampaignConfig& cfg,
                                                             ThreadPool& solo) {
  std::vector<std::vector<MonteCarloSummary>> out;
  for (double density : cfg.densities)
    for (std::size_t n : cfg.sensor_counts)
      out.push_back(monte_carlo(campaign_cell_scenario(cfg, density, n), cfg.methods,
                                cfg.trials_per_cell, solo, nullptr));
  return out;
}

void check_against_serial(const char* gate, const CampaignResult& got,
                          const CampaignConfig& cfg, ThreadPool& solo) {
  const std::string verdict = compare_cells(got, serial_reference(cfg, solo));
  if (!verdict.empty()) gate_failure(gate, verdict);
}

struct Jobs {
  double elapsed_s{0.0};
  std::size_t trials{0};
  std::size_t failed_trials{0};
  std::vector<double> latency_ms;
  /// Every job's output, kept for the check after timing.
  std::vector<std::pair<CampaignConfig, CampaignResult>> outputs;
};

/// Timed jobs checked against serial monte_carlo after timing, spread
/// evenly over the run (a check costs about nproc times the job).
constexpr std::size_t kCheckedJobs = 8;

/// Back-to-back jobs until the budget is spent. `job` advances so every
/// job of the process has its own seed. `wave_size` 1 runs each job on
/// the calling thread alone (run_campaign's workers are
/// min(wave_size, pool threads + 1)); 0 keeps the workload's nproc.
Jobs run_jobs(const Options& opt, ThreadPool& pool, double seconds, std::uint64_t& job,
              bool keep_outputs, std::size_t wave_size = 0) {
  Jobs out;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  do {
    CampaignConfig cfg = job_config(opt, job++);
    if (wave_size != 0) cfg.wave_size = wave_size;
    const auto s = Clock::now();
    try {
      CampaignResult r = run_campaign(cfg, pool);
      out.latency_ms.push_back(elapsed_ms(s, Clock::now()));
      if (keep_outputs) out.outputs.emplace_back(cfg, std::move(r));
    } catch (const std::exception&) {
      out.failed_trials += trials_of(cfg);
    }
    out.trials += trials_of(cfg);
  } while (Clock::now() < deadline);
  out.elapsed_s = elapsed_s(t0, Clock::now());
  return out;
}

/// Per-layer decomposition of the sampled trials: run_trial's work one
/// public net/core/baselines call at a time, single-threaded, in the same
/// order and with the same substreams, merged exactly as run_campaign
/// merges. The cell statistics must equal run_campaign's to the bit.
struct CampaignDecomposition {
  Tracer tracer;
  double reference_wall_us{0.0};
  std::size_t trials{0};
  std::size_t epochs{0};
};

CampaignDecomposition decompose(const CampaignConfig& cfg) {
  CampaignDecomposition d;
  ThreadPool solo(1);
  // The reference runs before and after the decomposition; the faster
  // of the two is its wall time.
  auto t0 = Clock::now();
  const CampaignResult reference = run_campaign(cfg, solo);
  d.reference_wall_us = elapsed_us(t0, Clock::now());

  Tracer& tr = d.tracer;
  CampaignResult mine;
  for (double density : cfg.densities) {
    for (std::size_t n : cfg.sensor_counts) {
      CampaignCell cell;
      const ScenarioConfig sc = campaign_cell_scenario(cfg, density, n);
      const ResolvedChannel channel = resolve_channel(sc);
      const RandomDeploymentGenerator gen(sc.field, n, cfg.count_model);
      SamplingConfig sampling;
      sampling.model = channel.model;
      sampling.sensing_range = sc.sensing_range;
      sampling.sample_period = 1.0 / sc.sample_rate;
      sampling.samples_per_group = sc.samples_per_group;
      sampling.clock_skew = sc.clock_skew;
      sampling.freeze_target_during_group = sc.freeze_group;
      const auto epochs = static_cast<std::uint64_t>(sc.duration / sc.localization_period);
      cell.summaries.assign(cfg.methods.size(), MonteCarloSummary{});
      for (std::size_t m = 0; m < cfg.methods.size(); ++m)
        cell.summaries[m].method = cfg.methods[m];

      Deployment nodes;
      std::optional<FaceMapBuilder> uncertain_builder, bisector_builder;
      FaceMapBuilder::BuildProducts uncertain, bisector;
      // Per-trial buffers pooled across trials, as the engine pools them.
      std::vector<Vec2> truths;
      std::vector<SamplingVector> basic, extended;
      std::vector<double> scores;
      for (std::uint64_t trial = 0; trial < cfg.trials_per_cell; ++trial) {
        const RngStream root = RngStream(sc.seed).substream(trial);
        {
          Tracer::Scope s(tr, "net.deploy");
          gen.generate_into(sc.seed, trial, nodes);
        }
        const std::unique_ptr<MobilityModel> trace = scenario_trace(sc, root.substream(2));
        {
          Tracer::Scope s(tr, "core.build");
          if (uncertain_builder) uncertain_builder->reset_roster(nodes);
          else uncertain_builder.emplace(nodes, channel.C, sc.field, sc.grid_cell, solo);
          uncertain_builder->build_into(uncertain);
          if (bisector_builder) bisector_builder->reset_roster(nodes);
          else bisector_builder.emplace(nodes, 1.0, sc.field, sc.grid_cell, solo);
          bisector_builder->build_into(bisector);
        }
        std::vector<RunningStats> per_run(cfg.methods.size());
        {
          std::optional<BatchMatcher> matcher;
          matcher.emplace(std::shared_ptr<const FaceMap>(bisector.map),
                          std::shared_ptr<const SignatureTable>(bisector.table));
          const std::size_t padded = matcher->table().padded_faces();
          const NoFaults none;
          const BernoulliDropout dropout(sc.dropout_probability, root.substream(3));
          const FaultModel& faults = sc.dropout_probability > 0.0
                                         ? static_cast<const FaultModel&>(dropout)
                                         : static_cast<const FaultModel&>(none);
          const auto target_at = [&](double t) { return trace->position_at(t); };
          truths.resize(epochs);
          basic.resize(epochs);
          extended.resize(epochs);
          scores.resize(epochs * padded);
          for (std::uint64_t e = 0; e < epochs; ++e) {
            const double te = static_cast<double>(e) * sc.localization_period;
            GroupingSampling group;
            {
              Tracer::Scope s(tr, "net.collect_group");
              group = collect_group(nodes, sampling, faults, e, te, target_at,
                                    root.substream(4, e));
            }
            truths[e] = trace->position_at(te);
            SamplingVector one_shot;
            {
              Tracer::Scope s(tr, "core.vector");
              basic[e] = build_sampling_vector(group, sc.eps, VectorMode::kBasic, sc.missing);
              extended[e] =
                  build_sampling_vector(group, sc.eps, VectorMode::kExtended, sc.missing);
              one_shot = one_shot_vector(group, 0, sc.eps, sc.missing);
            }
            Tracer::Scope s(tr, "core.scan");
            matcher->similarities_into(one_shot,
                                       std::span<double>(scores.data() + e * padded, padded));
          }
          for (std::size_t m = 0; m < cfg.methods.size(); ++m) {
            RunningStats& stats = per_run[m];
            const Method method = cfg.methods[m];
            if (method == Method::kFttt || method == Method::kFtttExtended) {
              Tracer::Scope s(tr, "core.localize");
              const bool ext = method == Method::kFtttExtended;
              FtttTracker tracker(std::shared_ptr<const FaceMap>(uncertain.map),
                                  FtttTracker::Config{ext ? VectorMode::kExtended
                                                          : VectorMode::kBasic,
                                                      sc.eps, true, 0.5, sc.missing,
                                                      sc.hierarchical_matching},
                                  std::shared_ptr<const SignatureTable>(uncertain.table));
              for (std::uint64_t e = 0; e < epochs; ++e)
                stats.add(distance(tracker.localize(ext ? extended[e] : basic[e]).position,
                                   truths[e]));
            } else if (method == Method::kPathMatching) {
              Tracer::Scope s(tr, "baselines.path_matching");
              PathMatchingTracker::Config pm;
              pm.eps = sc.eps;
              pm.max_velocity = sc.v_max;
              pm.period = sc.localization_period;
              pm.missing = sc.missing;
              PathMatchingTracker tracker(std::shared_ptr<const FaceMap>(bisector.map), pm);
              for (std::uint64_t e = 0; e < epochs; ++e)
                stats.add(distance(
                    tracker
                        .localize_scored(std::span<const double>(scores.data() + e * padded,
                                                                 padded))
                        .position,
                    truths[e]));
            } else {
              for (std::uint64_t e = 0; e < epochs; ++e) {
                Tracer::Scope s(tr, "core.scan");
                const MatchResult match = matcher->select_from(
                    std::span<const double>(scores.data() + e * padded, padded));
                stats.add(distance(match.position, truths[e]));
              }
            }
          }
        }
        for (std::size_t m = 0; m < cfg.methods.size(); ++m) {
          cell.summaries[m].pooled.merge(per_run[m]);
          if (per_run[m].count() > 0) cell.summaries[m].trial_means.add(per_run[m].mean());
        }
        ++d.trials;
        d.epochs += epochs;
      }
      mine.cells.push_back(std::move(cell));
    }
  }
  t0 = Clock::now();
  run_campaign(cfg, solo);
  d.reference_wall_us = std::min(d.reference_wall_us, elapsed_us(t0, Clock::now()));
  std::vector<std::vector<MonteCarloSummary>> as_reference;
  for (const CampaignCell& c : reference.cells) as_reference.push_back(c.summaries);
  const std::string verdict = compare_cells(mine, as_reference);
  if (!verdict.empty()) gate_failure("campaign_random decomposition", verdict);
  return d;
}

}  // namespace

void run_campaign_random(const Options& opt, Report& report) {
  // nproc threads: nproc - 1 workers plus the caller, which run_campaign
  // puts to work alongside them.
  const std::size_t workers = opt.nproc > 1 ? opt.nproc - 1 : 1;

  // Gate before timing, in a child process (its reference runs never
  // count toward this process's peak RSS): a reduced job on the full
  // pool, every cell bit-identical to serial monte_carlo.
  run_isolated([&] {
    ThreadPool pool(workers);
    ThreadPool solo(1);
    CampaignConfig gate_cfg = job_config(opt, ~std::uint64_t{0});
    gate_cfg.trials_per_cell = 2;
    check_against_serial("campaign_random serial equivalence", run_campaign(gate_cfg, pool),
                         gate_cfg, solo);
  });
  ThreadPool solo(1);
  std::vector<double> probes{host_probe_ms()};

  // setup_s: pool construction (per-worker builders warm inside the
  // trials, so that cost stays in the throughput). Median of two batches,
  // before and after the timed jobs, so it sees the host across the run.
  std::vector<double> setup;
  const auto setup_batch = [&] {
    for (int k = 0; k < 60; ++k) {
      const auto t0 = Clock::now();
      const ThreadPool timed(workers);
      setup.push_back(elapsed_s(t0, Clock::now()));
    }
  };
  setup_batch();
  const auto pool = std::make_unique<ThreadPool>(workers);

  std::uint64_t job = 0;
  const double main_s = opt.seconds * (opt.trace ? 0.3 : 1.0);
  Jobs jobs = run_jobs(opt, *pool, main_s, job, true);
  const double peak_mb = peak_rss_mb();
  probes.push_back(host_probe_ms());
  setup_batch();
  const std::size_t stride = std::max<std::size_t>(1, jobs.outputs.size() / kCheckedJobs);
  for (std::size_t k = 0; k < jobs.outputs.size(); k += stride)
    check_against_serial("campaign_random timed job", jobs.outputs[k].second,
                         jobs.outputs[k].first, solo);
  const double drift = host_drift(probes);

  const CampaignConfig shape = job_config(opt, 0);
  const double epochs = static_cast<double>(epochs_of(shape));
  const double methods = static_cast<double>(shape.methods.size());
  const std::size_t done = jobs.trials - jobs.failed_trials;
  const double trials_per_s = static_cast<double>(done) / jobs.elapsed_s;
  report.add("loc_per_s", trials_per_s * epochs * methods, "1/s",
             done * epochs_of(shape) * shape.methods.size(), Kind::kEndToEnd,
             "localizations inside trials (epochs x methods per trial)");
  report.add("frame_p50_ms", quantile(jobs.latency_ms, 0.5), "ms", jobs.latency_ms.size(),
             Kind::kEndToEnd, "campaign job latency (" + std::to_string(trials_of(shape)) +
                                  " trials per job)");
  report.add("frame_p90_ms", quantile(jobs.latency_ms, 0.9), "ms", jobs.latency_ms.size(),
             Kind::kEndToEnd);
  report.add("frame_p99_ms", quantile(jobs.latency_ms, 0.99), "ms", jobs.latency_ms.size(),
             Kind::kDetail);
  report.add("trials_per_s", trials_per_s, "1/s", done, Kind::kDetail,
             std::to_string(opt.nproc) + " threads");
  report.add("fail_frac",
             static_cast<double>(jobs.failed_trials) / static_cast<double>(jobs.trials), "frac",
             jobs.trials, Kind::kDetail, "trials that threw");
  report.add("setup_s", quantile(setup, 0.5), "s", setup.size(), Kind::kEndToEnd,
             "pool construction");
  report.add("peak_rss_mb", peak_mb, "MiB", 1, Kind::kEndToEnd,
             "getrusage after the timed jobs (gates run in a child process)");
  report.add("host_probe_ms", quantile(probes, 0.5), "ms", probes.size(), Kind::kDetail,
             "fixed single-thread kernel: the host's speed during this run");
  report.add("host_drift_frac", drift, "frac", probes.size(), Kind::kDetail,
             "probe max/min - 1");
  report.set_counts(jobs.trials, jobs.failed_trials);
  if (!opt.trace) return;

  // Traced jobs: the program's obs recording on (overhead and the pool
  // histograms), then an allocation-metered pass, then one thread.
  obs::reset();
  obs::set_enabled(true);
  const Jobs traced = run_jobs(opt, *pool, opt.seconds * 0.25, job, false);
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::snapshot();
  const double traced_tps =
      static_cast<double>(traced.trials - traced.failed_trials) / traced.elapsed_s;
  report.add("obs.overhead_frac", 1.0 - traced_tps / trials_per_s, "frac", 2, Kind::kLayer,
             "trials_per_s, obs on vs off");
  report_pool_layers(snap, report);

  std::size_t metered_trials = 0;
  AllocMeter::bytes.store(0);
  AllocMeter::on.store(true);
  for (int k = 0; k < 3; ++k) {
    const CampaignConfig cfg = job_config(opt, job++);
    run_campaign(cfg, *pool);
    metered_trials += trials_of(cfg);
  }
  AllocMeter::on.store(false);
  report.add("sim.alloc_bytes_per_trial",
             static_cast<double>(AllocMeter::bytes.load()) / static_cast<double>(metered_trials),
             "B", metered_trials, Kind::kLayer, "operator new around run_campaign");

  const Jobs single = run_jobs(opt, solo, opt.seconds * 0.2, job, false, 1);
  const double single_tps =
      static_cast<double>(single.trials - single.failed_trials) / single.elapsed_s;
  report.add("parallel.scaling_eff", trials_per_s / (opt.nproc * single_tps), "ratio",
             single.trials, Kind::kLayer,
             "trials_per_s at " + std::to_string(opt.nproc) + " threads / (n x 1 thread)");

  // Decomposition of sampled trials (one per cell per job of this size).
  CampaignConfig sample = job_config(opt, job++);
  sample.trials_per_cell = opt.smoke ? 1 : 2;
  sample.wave_size = 1;
  const CampaignDecomposition d = decompose(sample);
  const Tracer& tr = d.tracer;
  const auto totals = [&](const char* name) { return tr.totals(name); };
  const Tracer::Totals deploy = totals("net.deploy"), build = totals("core.build"),
                       collect = totals("net.collect_group"), vec = totals("core.vector"),
                       scan = totals("core.scan"), loc = totals("core.localize"),
                       pm = totals("baselines.path_matching");
  const double dt = static_cast<double>(d.trials);
  const double de = static_cast<double>(d.epochs);
  report.add("net.deploy_us", deploy.self_us / dt, "us", deploy.count, Kind::kLayer);
  report.add("core.build_ms", build.self_us / dt / 1e3, "ms", build.count, Kind::kLayer,
             "reset_roster + build_into, both divisions");
  report.add("net.collect_group_us", collect.self_us / static_cast<double>(collect.count), "us",
             collect.count, Kind::kLayer);
  report.add("core.scan_us", scan.self_us / de, "us", d.epochs, Kind::kLayer,
             "similarities_into + select_from per epoch");
  report.add("core.vector_us", vec.self_us / de, "us", d.epochs, Kind::kLayer,
             "basic + extended + one-shot per epoch");
  report.add("core.localize_us", loc.self_us / de, "us", d.epochs, Kind::kDetail,
             "FtttTracker climb + fallback, both modes, per epoch");
  report.add("baselines.path_matching_us", pm.self_us / de, "us", d.epochs, Kind::kDetail);
  const double covered = deploy.self_us + build.self_us + collect.self_us + vec.self_us +
                         scan.self_us + loc.self_us + pm.self_us;
  report.add("bench.layer_cover_frac", covered / d.reference_wall_us, "frac", d.trials,
             Kind::kLayer,
             "uncovered: mobility trace, matcher/tracker setup, stats merge, wave scheduling");

  // Serve-only layers: no such work in a campaign.
  for (const char* name : {"serve.tick_ms.p50", "serve.tick_ms.p99", "serve.queue_wait_ms.p99",
                           "serve.adopt_lag_ms.p50", "bench.gen_late_ms.p99"})
    report.add(name, 0.0, "ms", 0, Kind::kLayer, "serve workloads only");
  report.add("serve.tick_frames", 0.0, "frames", 0, Kind::kLayer, "serve workloads only");
  report.add("serve.submit_us.p99", 0.0, "us", 0, Kind::kLayer, "serve workloads only");
  report.add("serve.churn_stall_us.p50", 0.0, "us", 0, Kind::kLayer, "serve workloads only");
  for (const char* name : {"core.climb_us", "core.cold_us"})
    report.add(name, 0.0, "us", 0, Kind::kLayer, "serve replay only (see core.localize_us)");
  report.add("core.climb_steps", 0.0, "steps", 0, Kind::kLayer, "serve workloads only");
  report.add("core.warm_hit_frac", 0.0, "frac", 0, Kind::kLayer, "serve workloads only");
  report.add("core.fallback_won_frac", 0.0, "frac", 0, Kind::kLayer, "serve workloads only");
  report.add("core.cold_faces_examined", 0.0, "faces", 0, Kind::kLayer, "serve workloads only");
  report.add("core.tier_ms", 0.0, "ms", 0, Kind::kLayer, "serve workloads only");
  report.add("core.rebuild_ms", 0.0, "ms", 0, Kind::kLayer, "serve workloads only");
  report.add("core.division_bytes_per_face", 0.0, "B", 0, Kind::kLayer, "serve workloads only");
}

}  // namespace perfbench
