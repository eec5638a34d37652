// Perf harness for the epoch-pipeline simulation engine.
//
// Times the serial runner (run_tracking: one epoch at a time, fresh
// face maps every trial) against run_tracking_pipelined (the TrialWorker
// of sim/trial.hpp with its epochs fanned out) on the Table 1
// sweep shape — 10 trials x 4 methods — and emits BENCH_pipeline.json
// (ns/run, runs/s, speedup vs serial). tools/fttt_perfcmp.py diffs the
// file against bench/baselines/BENCH_pipeline.json and gates CI on
// regressions; docs/perf.md has the procedure.
//
//   bench_perf_pipeline [--fast] [--json PATH] [--trials N] [--repeats R]
//                       [--threads N]
//
// Before timing, the pipelined trajectory is checked bit-identical to
// the serial runner for every method, and a full cached sweep must
// build exactly one map per unique (deployment, C, field, grid) key.
// A wrong-but-fast engine fails the bench, not just the unit suite.
//
// The gated pipeline_1t row runs on a ThreadPool(1): the speedup it
// measures is purely algorithmic — the cross-trial face-map cache and
// one SoA per-face scan of one one-shot vector per epoch, whose score
// row serves both PM and Direct MLE (BatchMatcher::select_from) — so it
// holds on a single-core CI runner. The _mt row adds precompute
// parallelism and is informational only (no baseline speedup, so
// perfcmp skips it). Deployment is the grid
// pattern: it is trial-invariant, which is exactly the fixed-deployment
// sweep shape the cache exists for (random deployments re-key per
// trial and pay one build each, like the serial path).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/facemap_cache.hpp"
#include "sim/epoch_pipeline.hpp"
#include "sim/runner.hpp"

namespace {

using namespace fttt;

struct Options {
  bool fast = false;
  std::string json_path = "BENCH_pipeline.json";
  std::size_t trials = 10;  ///< runs per timed sweep (Table 1 shape)
  std::size_t repeats = 5;  ///< timed passes; best (min) wins
  std::size_t threads = 0;  ///< _mt row pool; 0 = shared global pool
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
      opt.trials = 3;
      opt.repeats = 3;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--trials" && i + 1 < argc) {
      opt.trials = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--repeats" && i + 1 < argc) {
      opt.repeats = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      opt.threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--fast] [--json PATH] [--trials N] [--repeats R] [--threads N]\n";
      std::exit(2);
    }
  }
  if (opt.trials == 0 || opt.repeats == 0) {
    std::cerr << "bench_perf_pipeline: --trials/--repeats must be >= 1\n";
    std::exit(2);
  }
  return opt;
}

/// Best-of-R wall time of `fn` in seconds.
template <typename Fn>
double time_best(std::size_t repeats, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string name;
  std::size_t batch;
  double ns_per_run;
  double throughput_per_s;
  double speedup_vs_serial;  ///< < 0 means "not applicable" (the baseline row)
};

void fail(const std::string& message) {
  std::cerr << "bench_perf_pipeline: " << message << "\n";
  std::exit(1);
}

/// Bit-equivalence check (the executable-spec contract the unit suite
/// enforces in depth; re-verified here so timing never blesses a wrong
/// trajectory).
void expect_identical(const TrackingResult& serial, const TrackingResult& piped,
                      const std::string& what) {
  if (serial.methods.size() != piped.methods.size() ||
      serial.times.size() != piped.times.size())
    fail(what + ": shape mismatch");
  for (std::size_t m = 0; m < serial.methods.size(); ++m)
    for (std::size_t e = 0; e < serial.methods[m].errors.size(); ++e)
      if (serial.methods[m].errors[e] != piped.methods[m].errors[e] ||
          serial.methods[m].estimates[e].x != piped.methods[m].estimates[e].x ||
          serial.methods[m].estimates[e].y != piped.methods[m].estimates[e].y)
        fail(what + ": method " + std::to_string(m) + " diverges at epoch " +
             std::to_string(e));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Table 1 sweep shape: 100 x 100 m^2, n = 10, beta = 4, sigma_X = 6,
  // eps = 1 dBm, bounded channel, 2 m preprocessing grid (the bench-suite
  // default), all four methods, grid deployment (trial-invariant — the
  // fixed-deployment sweep the cache amortizes).
  ScenarioConfig cfg;
  cfg.duration = opt.fast ? 10.0 : 30.0;
  cfg.grid_cell = 2.0;
  cfg.channel = Channel::kBounded;
  cfg.deployment = DeploymentKind::kGrid;
  const std::vector<Method> methods{Method::kFttt, Method::kFtttExtended,
                                    Method::kPathMatching, Method::kDirectMle};

  ThreadPool single(1);
  ThreadPool* mt_pool_ptr = nullptr;
  std::unique_ptr<ThreadPool> owned_mt;
  if (opt.threads > 0) {
    owned_mt = std::make_unique<ThreadPool>(opt.threads);
    mt_pool_ptr = owned_mt.get();
  } else {
    mt_pool_ptr = &ThreadPool::global();
  }
  ThreadPool& mt_pool = *mt_pool_ptr;

  // Correctness gate before any timing: every trial of the sweep must be
  // bit-identical serial vs pipelined (with and without the cache), and
  // the cached sweep must build exactly one map per unique key — two
  // total here (the C-uncertainty map and the C = 1 bisector map).
  {
    FaceMapCache cache;
    for (std::uint64_t t = 0; t < opt.trials; ++t) {
      const TrackingResult serial = run_tracking(cfg, methods, t, single);
      expect_identical(serial, run_tracking_pipelined(cfg, methods, t, single),
                       "uncached trial " + std::to_string(t));
      expect_identical(serial,
                       run_tracking_pipelined(cfg, methods, t, mt_pool, &cache),
                       "cached trial " + std::to_string(t));
    }
    if (cache.stats().builds != 2)
      fail("cached sweep built " + std::to_string(cache.stats().builds) +
           " maps; expected 1 per unique key (2)");
  }

  std::vector<Row> rows;
  const double runs = static_cast<double>(opt.trials);
  volatile double sink = 0.0;  // defeat whole-loop elision

  // Serial reference: the executable spec, one epoch at a time, fresh
  // face maps every trial.
  const double serial_s = time_best(opt.repeats, [&] {
    double acc = 0.0;
    for (std::uint64_t t = 0; t < opt.trials; ++t) {
      const TrackingResult r = run_tracking(cfg, methods, t, single);
      acc += r.methods[0].errors.empty() ? 0.0 : r.methods[0].errors.back();
    }
    sink = acc;
  }) / runs;
  rows.push_back({"serial_full", 1, serial_s * 1e9, 1.0 / serial_s, -1.0});

  // Pipelined, single thread, fresh cache per sweep: the gated
  // algorithmic win. Each pass pays both map builds once and amortizes
  // them over the trials, exactly like a real sweep.
  const double pipe1_s = time_best(opt.repeats, [&] {
    FaceMapCache cache;
    double acc = 0.0;
    for (std::uint64_t t = 0; t < opt.trials; ++t) {
      const TrackingResult r = run_tracking_pipelined(cfg, methods, t, single, &cache);
      acc += r.methods[0].errors.empty() ? 0.0 : r.methods[0].errors.back();
    }
    sink = acc;
  }) / runs;
  rows.push_back({"pipeline_1t", 1, pipe1_s * 1e9, 1.0 / pipe1_s, serial_s / pipe1_s});

  // Pipelined on the shared/selected pool: adds precompute parallelism.
  // Informational (machine dependent), never gated.
  const double pipemt_s = time_best(opt.repeats, [&] {
    FaceMapCache cache;
    double acc = 0.0;
    for (std::uint64_t t = 0; t < opt.trials; ++t) {
      const TrackingResult r = run_tracking_pipelined(cfg, methods, t, mt_pool, &cache);
      acc += r.methods[0].errors.empty() ? 0.0 : r.methods[0].errors.back();
    }
    sink = acc;
  }) / runs;
  rows.push_back(
      {"pipeline_mt", 1, pipemt_s * 1e9, 1.0 / pipemt_s, serial_s / pipemt_s});
  (void)sink;

  const auto epochs = static_cast<std::size_t>(cfg.duration / cfg.localization_period);

  // Human-readable report.
  std::cout << "pipeline perf (Table 1 sweep: n=" << cfg.sensor_count
            << ", methods=" << methods.size() << ", trials=" << opt.trials
            << ", epochs/run=" << epochs
            << ", threads=" << mt_pool.thread_count() << ")\n";
  for (const Row& r : rows) {
    std::cout << "  " << r.name << ": " << r.ns_per_run / 1e6 << " ms/run, "
              << r.throughput_per_s << " runs/s";
    if (r.speedup_vs_serial > 0.0) std::cout << ", speedup " << r.speedup_vs_serial << "x";
    std::cout << "\n";
  }

  // Machine-readable trajectory point. Keys mirror BENCH_matcher.json so
  // fttt_perfcmp.py gates all three benches with one code path:
  // "ns_per_localization" here is ns per tracking run (one trial, all
  // methods), "speedup_vs_scalar" is speedup vs the serial runner.
  std::ofstream json(opt.json_path);
  if (!json) fail("cannot write " + opt.json_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"pipeline\",\n"
       << "  \"scenario\": {\"sensors\": " << cfg.sensor_count
       << ", \"methods\": " << methods.size() << ", \"trials\": " << opt.trials
       << ", \"epochs_per_run\": " << epochs
       << ", \"threads\": " << mt_pool.thread_count()
       << ", \"fast\": " << (opt.fast ? "true" : "false") << "},\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"batch\": " << r.batch
         << ", \"ns_per_localization\": " << r.ns_per_run
         << ", \"throughput_per_s\": " << r.throughput_per_s
         << ", \"threads\": " << (r.name == "pipeline_mt" ? mt_pool.thread_count() : 1);
    if (r.speedup_vs_serial > 0.0) json << ", \"speedup_vs_scalar\": " << r.speedup_vs_serial;
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << opt.json_path << "\n";
  return 0;
}
