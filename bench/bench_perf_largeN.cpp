// Perf harness for the sublinear large-N matching path.
//
// Times the exhaustive scalar spec, the flat SoA batch engine, and the
// hierarchical descent (coarse tier + signature index) over deployments
// of N in {16, 32, 64, 100} sensors on the Table 1 field, and emits
// BENCH_largeN.json keyed (name, batch=N). The hier rows carry
// `speedup_vs_scalar` (gated by fttt_perfcmp.py's ratio gate) and
// `bytes_per_face` — the coarse tier + index memory budget per face,
// gated lower-is-better so the footprint cannot silently grow. The
// flat-engine rows double as in-file references: `speedup_vs_batch` on
// each hier row records the headline sublinearity claim (>= 10x at 64
// sensors; docs/perf.md "Large-N matching").
//
//   bench_perf_largeN [--fast] [--json PATH] [--repeats R]
//
// Before timing, the descent's argmax is checked bit-identical to the
// exhaustive scalar spec on every deployment shape of the acceptance
// contract — random scatter, lattice, and the degenerate cross (heavy
// tie pressure) — plus an all-'*' vector per shape. A wrong-but-fast
// tier fails the bench, not just the unit suite.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/hier_facemap.hpp"
#include "core/matcher.hpp"
#include "core/signature_index.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace {

using namespace fttt;

struct Options {
  bool fast = false;
  std::string json_path = "BENCH_largeN.json";
  std::size_t repeats = 3;  ///< timed passes; best (min) wins
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
      opt.repeats = 2;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--repeats" && i + 1 < argc) {
      opt.repeats = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--json PATH] [--repeats R]\n";
      std::exit(2);
    }
  }
  return opt;
}

std::vector<SamplingVector> make_workload(const FaceMap& map, std::size_t n,
                                          std::uint64_t seed) {
  RngStream rng(seed);
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
      vd.value[c] = static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
    }
    for (std::size_t c = 0; c < vd.known.size(); ++c)
      if (rng.bernoulli(0.1)) vd.known[c] = false;
    vectors.push_back(std::move(vd));
  }
  return vectors;
}

SamplingVector all_star(const FaceMap& map) {
  SamplingVector vd;
  vd.value.assign(map.dimension(), 0.0);
  vd.known.assign(map.dimension(), false);
  return vd;
}

template <typename Fn>
double time_once(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Row {
  std::string name;
  std::size_t batch;  ///< sensor count N (the row key's second half)
  double ns_per_localization;
  double throughput_per_s;
  double speedup_vs_scalar;  ///< < 0: not applicable (the scalar row)
  double speedup_vs_batch;   ///< < 0: not applicable
  double bytes_per_face;     ///< < 0: not applicable (hier rows only)
};

void fail(const std::string& message) {
  std::cerr << "bench_perf_largeN: " << message << "\n";
  std::exit(1);
}

/// Argmax bit-equivalence of descend() vs the scalar spec on `map`.
void check_equivalence(const FaceMap& map, const BatchMatcher& hier,
                       const std::vector<SamplingVector>& vectors,
                       const char* shape) {
  const ExhaustiveMatcher spec;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const MatchResult want = spec.match(map, vectors[i]);
    const MatchResult got = hier.descend(vectors[i]);
    if (want.face != got.face || want.similarity != got.similarity ||
        want.tied_faces != got.tied_faces ||
        want.position.x != got.position.x || want.position.y != got.position.y)
      fail(std::string("descend/spec mismatch (") + shape + ", vector " +
           std::to_string(i) + ")");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const double cell = 1.0;

  // Shape gate at a moderate N: the descent must be spec-identical on
  // every deployment geometry before any large-N timing is trusted.
  {
    RngStream rng(7);
    std::vector<std::pair<const char*, Deployment>> shapes;
    shapes.emplace_back("random", random_deployment(field, 24, rng));
    shapes.emplace_back("lattice", grid_deployment(field, 25));
    shapes.emplace_back("cross", cross_deployment(field.center(), 12.0));
    for (auto& [shape, nodes] : shapes) {
      FaceMapBuilder builder(nodes, C, field, cell);
      const auto map = std::make_shared<const FaceMap>(builder.build());
      const auto hier_map =
          std::make_shared<const HierFaceMap>(builder.build_hierarchy());
      const auto table =
          std::make_shared<const SignatureTable>(builder.take_signature_table());
      BatchMatcher matcher(map, table);
      matcher.attach_hierarchy(
          hier_map, std::make_shared<const SignatureIndex>(
                        SignatureIndex::build(*hier_map)));
      std::vector<SamplingVector> gate =
          make_workload(*map, opt.fast ? 8 : 24, 11);
      gate.push_back(all_star(*map));
      check_equivalence(*map, matcher, gate, shape);
    }
  }

  std::vector<std::size_t> sizes{16, 32, 64, 100};
  if (opt.fast) sizes.pop_back();  // N=100 is a nightly/full-mode point

  std::vector<Row> rows;
  std::cout << "largeN perf (100x100 m^2, cell=" << cell
            << ", threads=" << ThreadPool::global().thread_count() << ")\n";

  for (const std::size_t sensors : sizes) {
    RngStream rng(1000 + sensors);
    const Deployment nodes = random_deployment(field, sensors, rng);
    FaceMapBuilder builder(nodes, C, field, cell);
    const auto map = std::make_shared<const FaceMap>(builder.build());
    const auto hier_map =
        std::make_shared<const HierFaceMap>(builder.build_hierarchy());
    const auto table =
        std::make_shared<const SignatureTable>(builder.take_signature_table());
    const auto index = std::make_shared<const SignatureIndex>(
        SignatureIndex::build(*hier_map));

    const BatchMatcher flat(map, table);
    BatchMatcher hier(map, table);
    hier.attach_hierarchy(hier_map, index);

    // Per-N gate: a few random vectors plus all-'*' straight against the
    // scalar spec at this exact N.
    {
      std::vector<SamplingVector> gate =
          make_workload(*map, opt.fast ? 4 : 8, 2000 + sensors);
      gate.push_back(all_star(*map));
      check_equivalence(*map, hier, gate, "timed-N");
    }

    // Scale the timed workload down as per-vector cost grows; the
    // scalar spec and the flat engine additionally cap their own
    // vector counts (a full scan costs the same for every vector, so a
    // subset estimates per-localization cost; the descent's cost
    // varies per vector, so it runs the whole workload) and all rows
    // normalize per localization.
    const std::size_t vectors =
        std::max<std::size_t>(64, (opt.fast ? 4096u : 16384u) / sensors);
    const std::vector<SamplingVector> workload =
        make_workload(*map, vectors, 3000 + sensors);
    const std::size_t scalar_cap = std::min<std::size_t>(
        workload.size(), sensors >= 64 ? (opt.fast ? 8 : 16) : 64);
    const std::size_t flat_cap = std::min<std::size_t>(workload.size(), 128);
    const std::vector<SamplingVector> flat_work(
        workload.begin(), workload.begin() + static_cast<std::ptrdiff_t>(flat_cap));

    // Each round times the three engines back to back, so a noisy
    // phase of the host machine hits them alike and the cross-engine
    // ratios stay honest; the min over rounds is each engine's floor.
    volatile double sink = 0.0;
    const ExhaustiveMatcher spec;
    double scalar_s = 1e300, flat_s = 1e300, hier_s = 1e300;
    for (std::size_t r = 0; r < opt.repeats; ++r) {
      scalar_s = std::min(scalar_s, time_once([&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < scalar_cap; ++i)
          acc += spec.match(*map, workload[i]).similarity;
        sink = acc;
      }));
      flat_s = std::min(flat_s, time_once([&] {
        double acc = 0.0;
        for (const MatchResult& m : flat.match(flat_work)) acc += m.similarity;
        sink = acc;
      }));
      hier_s = std::min(hier_s, time_once([&] {
        double acc = 0.0;
        for (const MatchResult& m : hier.match(workload)) acc += m.similarity;
        sink = acc;
      }));
    }
    (void)sink;

    const double scalar_ns = scalar_s / static_cast<double>(scalar_cap) * 1e9;
    rows.push_back({"exhaustive_scalar", sensors, scalar_ns,
                    static_cast<double>(scalar_cap) / scalar_s, -1.0, -1.0, -1.0});

    const double flat_ns = flat_s / static_cast<double>(flat_cap) * 1e9;
    rows.push_back({"batch_soa", sensors, flat_ns,
                    static_cast<double>(flat_cap) / flat_s,
                    scalar_ns / flat_ns, -1.0, -1.0});

    const double n = static_cast<double>(workload.size());
    const double hier_ns = hier_s / n * 1e9;
    const double bytes_per_face =
        static_cast<double>(hier_map->bytes() + index->bytes()) /
        static_cast<double>(map->face_count());
    rows.push_back({"hier", sensors, hier_ns, n / hier_s, scalar_ns / hier_ns,
                    flat_ns / hier_ns, bytes_per_face});

    std::cout << "  N=" << sensors << ": faces=" << map->face_count()
              << " dim=" << map->dimension() << " | scalar " << scalar_ns
              << " ns/loc, soa " << flat_ns << " ns/loc, hier " << hier_ns
              << " ns/loc (" << flat_ns / hier_ns << "x vs soa, "
              << bytes_per_face << " bytes/face)\n";
  }

  std::ofstream json(opt.json_path);
  if (!json) fail("cannot write " + opt.json_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"largeN\",\n"
       << "  \"scenario\": {\"field\": 100, \"cell\": " << cell
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
    if (r.speedup_vs_batch > 0.0)
      json << ", \"speedup_vs_batch\": " << r.speedup_vs_batch;
    if (r.bytes_per_face >= 0.0)
      json << ", \"bytes_per_face\": " << r.bytes_per_face;
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << opt.json_path << "\n";
  return 0;
}
