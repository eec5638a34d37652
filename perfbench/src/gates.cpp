#include "gates.hpp"

#include <bit>
#include <cmath>
#include <iostream>
#include <numeric>

#include "bench.hpp"
#include "common/random.hpp"

namespace perfbench {

using namespace fttt;

bool identical(const TrackUpdate& a, const TrackUpdate& b) {
  if (a.track != b.track || a.epoch != b.epoch || a.warm != b.warm ||
      a.estimate.has_value() != b.estimate.has_value())
    return false;
  if (!a.estimate) return true;
  return a.estimate->position.x == b.estimate->position.x &&
         a.estimate->position.y == b.estimate->position.y &&
         a.estimate->face == b.estimate->face &&
         a.estimate->similarity == b.estimate->similarity;
}

std::string compare_updates(const std::vector<TrackUpdate>& got,
                            const std::vector<TrackUpdate>& spec) {
  if (got.size() != spec.size())
    return std::to_string(got.size()) + " updates, spec has " + std::to_string(spec.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!identical(got[i], spec[i]))
      return "update " + std::to_string(i) + " (track " + std::to_string(got[i].track) +
             ", epoch " + std::to_string(got[i].epoch) + ") differs from the spec";
  return {};
}

std::uint64_t update_digest(const TrackUpdate& u) {
  std::uint64_t h = splitmix64((u.warm ? 2u : 0u) | (u.estimate ? 1u : 0u));
  if (!u.estimate) return h;
  const TrackEstimate& e = *u.estimate;
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(e.face), std::bit_cast<std::uint64_t>(e.similarity),
        std::bit_cast<std::uint64_t>(e.position.x), std::bit_cast<std::uint64_t>(e.position.y)})
    h = splitmix64(h ^ word);
  return h;
}

std::vector<std::size_t> digest_mismatches(std::span<const std::uint64_t> got,
                                           const std::vector<TrackUpdate>& spec) {
  std::vector<std::size_t> out;
  if (got.size() != spec.size()) {
    out.resize(std::max(got.size(), spec.size()));
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
  }
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != update_digest(spec[i])) out.push_back(i);
  return out;
}

namespace {

bool bit_equal(const RunningStats& a, const RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.variance() == b.variance() &&
         a.min() == b.min() && a.max() == b.max();
}

}  // namespace

std::string compare_cells(const CampaignResult& got,
                          const std::vector<std::vector<MonteCarloSummary>>& serial) {
  if (got.cells.size() != serial.size())
    return std::to_string(got.cells.size()) + " cells, reference has " +
           std::to_string(serial.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    const std::vector<MonteCarloSummary>& want = serial[c];
    const std::vector<MonteCarloSummary>& have = got.cells[c].summaries;
    if (have.size() != want.size()) return "cell " + std::to_string(c) + ": method count";
    for (std::size_t m = 0; m < want.size(); ++m) {
      if (have[m].method != want[m].method)
        return "cell " + std::to_string(c) + ": method order";
      if (!bit_equal(have[m].pooled, want[m].pooled))
        return "cell " + std::to_string(c) + " method " + method_name(want[m].method) +
               ": pooled statistics differ from serial monte_carlo";
      if (!bit_equal(have[m].trial_means, want[m].trial_means))
        return "cell " + std::to_string(c) + " method " + method_name(want[m].method) +
               ": trial-mean statistics differ from serial monte_carlo";
    }
  }
  return {};
}

std::string check_accounting(std::uint64_t enqueued, std::uint64_t shed,
                             std::uint64_t updates, std::size_t tracks_held,
                             std::size_t tracks_expected) {
  if (enqueued - shed != updates)
    return std::to_string(enqueued) + " accepted - " + std::to_string(shed) + " shed != " +
           std::to_string(updates) + " updates";
  if (tracks_held != tracks_expected)
    return std::to_string(tracks_expected - tracks_held) + " tracks dropped";
  return {};
}

int gate_self_test() {
  int missed = 0;
  const auto expect_fire = [&](const std::string& what, const std::string& verdict) {
    if (verdict.empty()) {
      std::cerr << "gate self-test: '" << what << "' did not fire\n";
      ++missed;
    }
  };
  const auto expect_quiet = [&](const std::string& what, const std::string& verdict) {
    if (!verdict.empty()) {
      std::cerr << "gate self-test: '" << what << "' fired on equal inputs: " << verdict
                << "\n";
      ++missed;
    }
  };

  // Serve: a perturbed update of each kind must be caught.
  std::vector<TrackUpdate> spec(3);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    spec[i].track = i;
    spec[i].epoch = 7;
    spec[i].estimate = TrackEstimate{{1.5 * static_cast<double>(i), 2.0},
                                     static_cast<FaceId>(10 + i), 0.75};
  }
  expect_quiet("updates", compare_updates(spec, spec));
  {
    auto got = spec;
    got[1].estimate->similarity = std::nextafter(got[1].estimate->similarity, 1.0);
    expect_fire("update similarity +1 ulp", compare_updates(got, spec));
  }
  {
    auto got = spec;
    got[2].estimate->face += 1;
    expect_fire("update face", compare_updates(got, spec));
  }
  {
    auto got = spec;
    got[0].estimate->position.y = std::nextafter(got[0].estimate->position.y, 0.0);
    expect_fire("update position -1 ulp", compare_updates(got, spec));
  }
  {
    auto got = spec;
    got[0].warm = true;
    expect_fire("update warm flag", compare_updates(got, spec));
  }
  {
    auto got = spec;
    got[1].estimate.reset();
    expect_fire("update estimate dropped", compare_updates(got, spec));
  }
  {
    auto got = spec;
    got.pop_back();
    expect_fire("update missing", compare_updates(got, spec));
  }
  // The timed loops' digest check: the same perturbations, one at a time.
  std::vector<std::uint64_t> digests;
  for (const TrackUpdate& u : spec) digests.push_back(update_digest(u));
  const auto digest_verdict = [&](const std::vector<TrackUpdate>& got) {
    return digest_mismatches(digests, got).empty() ? std::string{} : std::string{"fired"};
  };
  expect_quiet("digests", digest_verdict(spec));
  {
    auto got = spec;
    got[1].estimate->similarity = std::nextafter(got[1].estimate->similarity, 0.0);
    expect_fire("digest similarity -1 ulp", digest_verdict(got));
  }
  {
    auto got = spec;
    got[2].estimate->face -= 1;
    expect_fire("digest face", digest_verdict(got));
  }
  {
    auto got = spec;
    got[0].estimate->position.x = std::nextafter(got[0].estimate->position.x, 1e9);
    expect_fire("digest position +1 ulp", digest_verdict(got));
  }
  {
    auto got = spec;
    got[2].warm = true;
    expect_fire("digest warm flag", digest_verdict(got));
  }
  {
    auto got = spec;
    got[0].estimate.reset();
    expect_fire("digest estimate dropped", digest_verdict(got));
  }
  {
    auto got = spec;
    got.pop_back();
    expect_fire("digest update missing", digest_verdict(got));
  }
  expect_quiet("accounting", check_accounting(10, 2, 8, 4, 4));
  expect_fire("accounting lost update", check_accounting(10, 2, 7, 4, 4));
  expect_fire("accounting dropped track", check_accounting(10, 2, 8, 3, 4));

  // Campaign: a perturbed cell statistic must be caught.
  std::vector<std::vector<MonteCarloSummary>> serial(2, std::vector<MonteCarloSummary>(2));
  CampaignResult result;
  for (std::size_t c = 0; c < serial.size(); ++c) {
    for (std::size_t m = 0; m < serial[c].size(); ++m) {
      serial[c][m].method = m == 0 ? Method::kFttt : Method::kDirectMle;
      for (int k = 0; k < 5; ++k) serial[c][m].pooled.add(1.0 + 0.1 * k + c);
      serial[c][m].trial_means.add(serial[c][m].pooled.mean());
    }
    result.cells.push_back(CampaignCell{});
    result.cells.back().summaries = serial[c];
  }
  expect_quiet("cells", compare_cells(result, serial));
  {
    CampaignResult got = result;
    got.cells[1].summaries[0].pooled.add(1.0);
    expect_fire("cell pooled sample added", compare_cells(got, serial));
  }
  {
    CampaignResult got = result;
    RunningStats nudged;
    nudged.add(std::nextafter(serial[0][1].trial_means.mean(), 1e9));
    got.cells[0].summaries[1].trial_means = nudged;
    expect_fire("cell trial mean +1 ulp", compare_cells(got, serial));
  }
  {
    CampaignResult got = result;
    got.cells.pop_back();
    expect_fire("cell missing", compare_cells(got, serial));
  }
  return missed;
}

}  // namespace perfbench
