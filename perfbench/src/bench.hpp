// Shared pieces of the end-to-end benchmark: options, statistics, the
// metric report, the benchmark-side span recorder and the allocation
// meter. The workloads live in serve_workloads.cpp and
// campaign_workload.cpp; main.cpp parses the command line.
//
// Everything here sits *outside* the program under test: spans are
// recorded by the benchmark around calls into the libraries' public
// functions, never inside them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double elapsed_ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny sizes for the benchmark's own smoke test (every metric still
  /// emitted; the timing is meaningless).
  bool smoke{false};
  /// Hardware threads; the load uses at most this many threads.
  unsigned nproc{1};
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean_of(const std::vector<double>& v);

/// Process peak resident set size (getrusage), MiB.
double peak_rss_mb();

// ---- report -------------------------------------------------------------------

enum class Kind {
  kEndToEnd,  ///< result-line metric of an untraced run (BENCHMARK.json end_to_end)
  kLayer,     ///< result-line metric of a traced run (BENCHMARK.json per_layer)
  kDetail,    ///< printed with unit and sample count, not in the result line
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  std::size_t samples{0};
  Kind kind{Kind::kDetail};
  std::string note;
};

class Report {
 public:
  Report(const Options& opt) : opt_(opt) {}

  /// Record a metric. End-to-end metrics of a traced run and per-layer
  /// metrics of an untraced run are demoted to detail rows, so the result
  /// line carries exactly one metric set.
  void add(std::string name, double value, std::string unit, std::size_t samples,
           Kind kind, std::string note = {});

  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  /// Human-readable table (every metric, unit, sample count, note), then
  /// the result line: {"correct", "attempted", "failed", "metrics"}.
  void print() const;

 private:
  const Options& opt_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// parallel.task_wait_ms / task_run_ms / wait_run_ratio from the program's
/// own pool.task.wait and pool.task.run histograms (microseconds).
void report_pool_layers(const fttt::obs::MetricsSnapshot& snap, Report& report);

/// A correctness gate failed: explain on stderr and exit non-zero
/// without printing a result line.
[[noreturn]] void gate_failure(const std::string& gate, const std::string& message);

/// Run `gates` in a child process and wait for it; exit 1 when it fails
/// (the child has explained why). Call it before the process starts any
/// thread. The gates' fleets, replicas and reference runs then never
/// count toward the timed process's peak RSS.
void run_isolated(const std::function<void()>& gates);

// ---- host speed ---------------------------------------------------------------

/// Median time (ms) of a fixed single-thread kernel that uses nothing of
/// the program under test: a probe of the host's speed.
double host_probe_ms();

/// Host speed change between a run's probes above which the run warns on
/// stderr: the end-to-end bound of BENCHMARK.json. The run still reports;
/// host_drift_frac lets a reader set aside figures that mix two speeds.
constexpr double kHostDriftWarning = 0.25;

/// max/min - 1 over `probes_ms`; warns above kHostDriftWarning.
double host_drift(const std::vector<double>& probes_ms);

// ---- benchmark-side spans -------------------------------------------------------

/// In-memory span recorder for one thread. Spans nest through an explicit
/// stack (parent = the span open when this one began); self time is a
/// span's duration minus its children's. Exported only at the end.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
  };
  struct Totals {
    std::size_t count{0};
    double total_us{0.0};
    double self_us{0.0};
  };

  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  /// Count, summed duration and summed self time of the spans named `name`.
  Totals totals(const char* name) const;

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_;
  };

 private:
  static std::int64_t now_ns();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// ---- allocation meter ---------------------------------------------------------

/// Bytes requested from the global operator new while metering is on
/// (the interposer is defined in main.cpp).
struct AllocMeter {
  static std::atomic<bool> on;
  static std::atomic<std::uint64_t> bytes;
};

// ---- workloads ----------------------------------------------------------------

void run_serve_table1(const Options& opt, Report& report);
void run_serve_dense_churn(const Options& opt, Report& report);
void run_campaign_random(const Options& opt, Report& report);

/// Two frames of every track in one tick on serve_table1's fleet, against
/// SerialReplay: the number of updates that differ. The fleet promises
/// none (fleet.hpp: updates never depend on batch composition); the timed
/// loops keep one frame per track in flight, so only this probe tests it.
std::size_t same_tick_probe();

/// Feed each correctness gate a perturbed copy of a correct output and
/// require it to fire. Returns the number of gates that failed to fire.
int gate_self_test();

}  // namespace perfbench
