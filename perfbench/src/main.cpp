// fttt_perfbench — end-to-end benchmark of the serve fleet and the
// campaign engine. perfbench/run.py builds and runs it; run it directly as
//
//   fttt_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   fttt_perfbench --self-test
//   fttt_perfbench --same-tick-probe
//
// Workloads: serve_table1, serve_dense_churn, campaign_random. The last
// stdout line is the JSON result; every correctness gate runs before
// timing and exits 1 when it fails.
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"

// ---- allocation meter (sim.alloc_bytes_per_trial) ---------------------------
// Process-wide operator new interposer; bytes are counted only while
// AllocMeter::on is set. Aligned forms are not used by the metered types.

std::atomic<bool> perfbench::AllocMeter::on{false};
std::atomic<std::uint64_t> perfbench::AllocMeter::bytes{0};

void* operator new(std::size_t size) {
  if (perfbench::AllocMeter::on.load(std::memory_order_relaxed))
    perfbench::AllocMeter::bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Every pointer reaching these came from the std::malloc above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fttt_perfbench: " << why
            << "\nusage: fttt_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--smoke]\n       fttt_perfbench --self-test\n       fttt_perfbench --same-tick-probe\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--self-test") {
      const int missed = gate_self_test();
      std::cout << "gate self-test: " << (missed == 0 ? "every gate fired" : "FAILED") << "\n";
      return missed == 0 ? 0 : 1;
    } else if (arg == "--same-tick-probe") {
      const std::size_t differ = same_tick_probe();
      std::cout << "same-tick probe: " << differ
                << " updates differ from SerialReplay when a tick carries two frames of a track\n";
      return differ == 0 ? 0 : 1;
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage("unknown argument " + std::string(arg));
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  Report report(opt);
  try {
    if (opt.workload == "serve_table1") run_serve_table1(opt, report);
    else if (opt.workload == "serve_dense_churn") run_serve_dense_churn(opt, report);
    else if (opt.workload == "campaign_random") run_campaign_random(opt, report);
    else usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "fttt_perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  report.print();
  return 0;
}
