#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples,
                 Kind kind, std::string note) {
  if ((kind == Kind::kEndToEnd && opt_.trace) || (kind == Kind::kLayer && !opt_.trace))
    kind = Kind::kDetail;
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), samples, kind, std::move(note)});
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::cout << "perfbench " << opt_.workload << "  seed=" << opt_.seed
            << "  seconds=" << opt_.seconds << "  trace=" << (opt_.trace ? 1 : 0)
            << "  nproc=" << opt_.nproc << (opt_.smoke ? "  (smoke)" : "") << "\n";
  std::printf("  %-34s %16s  %-8s %9s  %s\n", "metric", "value", "unit", "samples", "");
  for (const Metric& m : metrics_) {
    const char* tag = m.kind == Kind::kDetail ? "" : "*";
    std::printf("  %-34s %16.6g  %-8s %9zu  %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, tag, m.note.c_str());
  }
  std::printf("  attempted %llu  failed %llu  (* = in the result line)\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  // Sample counts of the result-line metrics, machine-readable.
  std::string samples = "{";
  std::string metrics = "{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.kind == Kind::kDetail) continue;
    if (!first) {
      samples += ", ";
      metrics += ", ";
    }
    first = false;
    samples += "\"" + m.name + "\": " + std::to_string(m.samples);
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  samples += "}";
  metrics += "}";
  std::cout << "samples " << samples << "\n";
  std::cout << "{\"correct\": true, \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": " << metrics << "}"
            << std::endl;
}

void report_pool_layers(const fttt::obs::MetricsSnapshot& snap, Report& report) {
  double wait_sum = 0.0, run_sum = 0.0;
  std::size_t wait_n = 0, run_n = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "pool.task.wait") wait_sum = h.summary.sum, wait_n = h.summary.count;
    if (h.name == "pool.task.run") run_sum = h.summary.sum, run_n = h.summary.count;
  }
  report.add("parallel.task_wait_ms", wait_n ? wait_sum / static_cast<double>(wait_n) / 1e3 : 0.0,
             "ms", wait_n, Kind::kLayer, "mean, obs pool.task.wait");
  report.add("parallel.task_run_ms", run_n ? run_sum / static_cast<double>(run_n) / 1e3 : 0.0,
             "ms", run_n, Kind::kLayer, "mean, obs pool.task.run");
  report.add("parallel.wait_run_ratio", run_sum > 0.0 ? wait_sum / run_sum : 0.0, "ratio",
             run_n, Kind::kLayer);
}

void gate_failure(const std::string& gate, const std::string& message) {
  std::cout.flush();
  std::cerr << "perfbench: correctness gate '" << gate << "' failed: " << message << "\n";
  std::exit(1);
}

void run_isolated(const std::function<void()>& gates) {
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) {
    std::cerr << "perfbench: fork failed: " << std::strerror(errno) << "\n";
    std::exit(1);
  }
  if (child == 0) {
    int code = 0;
    try {
      gates();  // a failing gate exits the child with 1 itself
    } catch (const std::exception& e) {
      std::cerr << "perfbench: gates aborted: " << e.what() << "\n";
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  pid_t waited = -1;
  while ((waited = waitpid(child, &status, 0)) < 0 && errno == EINTR) {
  }
  if (waited != child || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "perfbench: correctness gates failed; no result\n";
    std::exit(1);
  }
}

double host_probe_ms() {
  std::vector<std::uint32_t> buf(1 << 16);  // 256 KiB: stays in L2
  std::vector<double> reps;
  std::uint64_t x = 1;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    for (int pass = 0; pass < 16; ++pass)
      for (std::uint32_t& b : buf) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b += static_cast<std::uint32_t>(x >> 33);
      }
    reps.push_back(elapsed_ms(t0, Clock::now()));
  }
  volatile std::uint32_t sink = buf[x % buf.size()];
  (void)sink;
  return quantile(reps, 0.5);
}

double host_drift(const std::vector<double>& probes_ms) {
  const auto [lo, hi] = std::minmax_element(probes_ms.begin(), probes_ms.end());
  const double drift = *hi / *lo - 1.0;
  if (drift > kHostDriftWarning)
    std::cerr << "perfbench: warning: the host's speed changed by " << drift * 100.0
              << "% during the run (fixed-kernel probe " << *lo << " .. " << *hi
              << " ms); its figures mix two host speeds\n";
  return drift;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

Tracer::Totals Tracer::totals(const char* name) const {
  // Child time per parent, then self = duration - children.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  Totals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::strcmp(s.name, name) != 0) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++t.count;
    t.total_us += d;
    t.self_us += d - child_us[i];
  }
  return t;
}

}  // namespace perfbench
