// Perf harness for the batched SoA matching engine.
//
// Unlike the table/figure benches this one is machine-readable: it times
// scalar reference matching vs the SoA batch engine on the Table 1
// default scenario and emits BENCH_matcher.json (ns/localization,
// throughput, speedup vs scalar). tools/fttt_perfcmp.py diffs that file
// against the checked-in baseline (bench/baselines/BENCH_matcher.json)
// and gates CI on regressions; docs/perf.md has the full procedure.
//
//   bench_perf_matcher [--fast] [--json PATH] [--vectors N] [--repeats R]
//
// Basic-mode vectors (batch_soa, climb_soa) run the exact integer
// kernels; batch_soa_ext times extended-mode vectors, which keep the
// double kernels, against exhaustive_scalar_ext on the same map.
//
// Before timing, every batch result is checked against the scalar
// reference — a wrong-but-fast engine fails the bench, not just the unit
// suite.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/matcher.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace {

using namespace fttt;

struct Options {
  bool fast = false;
  std::string json_path = "BENCH_matcher.json";
  std::size_t vectors = 2048;   ///< localizations per timed pass
  std::size_t repeats = 5;      ///< timed passes; best (min) wins
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
      opt.vectors = 512;
      opt.repeats = 3;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--vectors" && i + 1 < argc) {
      opt.vectors = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--repeats" && i + 1 < argc) {
      opt.repeats = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--fast] [--json PATH] [--vectors N] [--repeats R]\n";
      std::exit(2);
    }
  }
  return opt;
}

/// Realistic workload: face signatures with a few flipped components and
/// ~10% '*' unknowns (missing reads), deterministic via RngStream. Basic
/// mode flips to trits (the exact integer kernels); `extended` flips to
/// fractions in [-1, 1], as Def. 10 values are, so the vectors take the
/// double kernels.
std::vector<SamplingVector> make_workload(const FaceMap& map, std::size_t n,
                                          bool extended) {
  RngStream rng(extended ? 20120626 : 20120625);
  std::vector<SamplingVector> vectors;
  vectors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Face& f = map.faces()[rng.uniform_index(map.face_count())];
    SamplingVector vd;
    vd.known.assign(map.dimension(), true);
    vd.value.reserve(map.dimension());
    for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
    for (int p = 0; p < 3; ++p) {
      const std::size_t c = rng.uniform_index(vd.value.size());
      vd.value[c] = extended
                        ? rng.uniform(-1.0, 1.0)
                        : static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
    }
    for (std::size_t c = 0; c < vd.known.size(); ++c)
      if (rng.bernoulli(0.1)) vd.known[c] = false;
    vectors.push_back(std::move(vd));
  }
  return vectors;
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
  double ns_per_localization;
  double throughput_per_s;
  double speedup_vs_scalar;  ///< < 0 means "not applicable" (the baseline row)
};

void fail(const std::string& message) {
  std::cerr << "bench_perf_matcher: " << message << "\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Table 1 default scenario: 100 x 100 m^2 field, n = 10 random nodes,
  // beta = 4, sigma_X = 6, eps = 1 dBm; 2 m preprocessing grid (the bench
  // suite default).
  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const std::size_t sensors = 10;
  RngStream rng(42);
  const Deployment nodes = random_deployment(field, sensors, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(nodes, C, field, 2.0));

  const std::vector<SamplingVector> workload = make_workload(*map, opt.vectors, false);
  const std::vector<SamplingVector> ext_workload = make_workload(*map, opt.vectors, true);
  const ExhaustiveMatcher scalar;
  const BatchMatcher batched(map);

  // Correctness gate before any timing, on both kernels' workloads.
  for (const std::vector<SamplingVector>* work : {&workload, &ext_workload}) {
    const std::vector<MatchResult> batch_results = batched.match(*work);
    for (std::size_t i = 0; i < work->size(); ++i) {
      const MatchResult ref = scalar.match(*map, (*work)[i]);
      if (ref.face != batch_results[i].face ||
          ref.similarity != batch_results[i].similarity ||
          ref.tied_faces != batch_results[i].tied_faces)
        fail("batch/scalar mismatch at vector " + std::to_string(i) +
             (work == &ext_workload ? " (extended)" : ""));
    }
  }

  std::vector<Row> rows;
  const double n = static_cast<double>(workload.size());

  // Scalar reference: one vector at a time against the row-of-structs map.
  volatile double sink = 0.0;  // defeat whole-loop elision
  const double scalar_s = time_best(opt.repeats, [&] {
    double acc = 0.0;
    for (const SamplingVector& vd : workload) acc += scalar.match(*map, vd).similarity;
    sink = acc;
  });
  rows.push_back({"exhaustive_scalar", 1, scalar_s / n * 1e9, n / scalar_s, -1.0});

  // SoA engine at the contract batch sizes (1 = per-query overhead floor,
  // 256 = the acceptance point with pool fan-out).
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{16}, std::size_t{256}}) {
    const double soa_s = time_best(opt.repeats, [&] {
      double acc = 0.0;
      std::vector<SamplingVector> chunk;
      for (std::size_t lo = 0; lo < workload.size(); lo += batch_size) {
        const std::size_t hi = std::min(workload.size(), lo + batch_size);
        chunk.assign(workload.begin() + static_cast<std::ptrdiff_t>(lo),
                     workload.begin() + static_cast<std::ptrdiff_t>(hi));
        for (const MatchResult& r : batched.match(chunk)) acc += r.similarity;
      }
      sink = acc;
    });
    rows.push_back({"batch_soa", batch_size, soa_s / n * 1e9, n / soa_s,
                    scalar_s / soa_s});
  }

  // Extended-mode vectors keep the double kernels; this pair gates them
  // at the pool fan-out acceptance point.
  const double scalar_ext_s = time_best(opt.repeats, [&] {
    double acc = 0.0;
    for (const SamplingVector& vd : ext_workload) acc += scalar.match(*map, vd).similarity;
    sink = acc;
  });
  rows.push_back(
      {"exhaustive_scalar_ext", 1, scalar_ext_s / n * 1e9, n / scalar_ext_s, -1.0});
  const double soa_ext_s = time_best(opt.repeats, [&] {
    double acc = 0.0;
    std::vector<SamplingVector> chunk;
    for (std::size_t lo = 0; lo < ext_workload.size(); lo += 256) {
      const std::size_t hi = std::min(ext_workload.size(), lo + 256);
      chunk.assign(ext_workload.begin() + static_cast<std::ptrdiff_t>(lo),
                   ext_workload.begin() + static_cast<std::ptrdiff_t>(hi));
      for (const MatchResult& r : batched.match(chunk)) acc += r.similarity;
    }
    sink = acc;
  });
  rows.push_back({"batch_soa_ext", 256, soa_ext_s / n * 1e9, n / soa_ext_s,
                  scalar_ext_s / soa_ext_s});

  // Heuristic path: Algorithm 2 hill climb, scalar vs SoA column walk.
  // Warm starts are the previous vector's optimum (consecutive tracking).
  std::vector<FaceId> starts(workload.size(), map->face_at(field.center()));
  {
    const std::vector<MatchResult> matches = batched.match(workload);
    for (std::size_t i = 1; i < workload.size(); ++i) starts[i] = matches[i - 1].face;
  }
  const HeuristicMatcher scalar_heuristic;
  const double climb_scalar_s = time_best(opt.repeats, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < workload.size(); ++i)
      acc += scalar_heuristic.match(*map, workload[i], starts[i]).similarity;
    sink = acc;
  });
  rows.push_back(
      {"heuristic_scalar", 1, climb_scalar_s / n * 1e9, n / climb_scalar_s, -1.0});
  const double climb_soa_s = time_best(opt.repeats, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < workload.size(); ++i)
      acc += batched.climb(workload[i], starts[i]).similarity;
    sink = acc;
  });
  rows.push_back({"climb_soa", 1, climb_soa_s / n * 1e9, n / climb_soa_s,
                  climb_scalar_s / climb_soa_s});
  (void)sink;

  // Human-readable report.
  std::cout << "matcher perf (Table 1 scenario: n=" << sensors
            << ", faces=" << map->face_count() << ", dim=" << map->dimension()
            << ", vectors=" << workload.size()
            << ", threads=" << ThreadPool::global().thread_count() << ")\n";
  for (const Row& r : rows) {
    std::cout << "  " << r.name << " batch=" << r.batch << ": "
              << r.ns_per_localization << " ns/loc, " << r.throughput_per_s
              << " loc/s";
    if (r.speedup_vs_scalar > 0.0)
      std::cout << ", speedup " << r.speedup_vs_scalar << "x";
    std::cout << "\n";
  }

  // Machine-readable trajectory point.
  std::ofstream json(opt.json_path);
  if (!json) fail("cannot write " + opt.json_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"matcher\",\n"
       << "  \"scenario\": {\"sensors\": " << sensors
       << ", \"faces\": " << map->face_count()
       << ", \"dimension\": " << map->dimension()
       << ", \"vectors\": " << workload.size()
       << ", \"threads\": " << ThreadPool::global().thread_count()
       << ", \"fast\": " << (opt.fast ? "true" : "false") << "},\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"batch\": " << r.batch
         << ", \"ns_per_localization\": " << r.ns_per_localization
         << ", \"throughput_per_s\": " << r.throughput_per_s;
    if (r.speedup_vs_scalar > 0.0)
      json << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar;
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << opt.json_path << "\n";
  return 0;
}
