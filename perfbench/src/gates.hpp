// Correctness gates. Each returns an empty string when the outputs agree
// and a description of the first disagreement otherwise; the workloads
// turn a non-empty answer into gate_failure(), and gate_self_test()
// feeds them perturbed copies to prove each one fires.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/frame.hpp"
#include "sim/campaign.hpp"
#include "sim/montecarlo.hpp"

namespace perfbench {

/// Bit-exact update equality: track, epoch, warm/cold provenance, the
/// coverage gate, and the estimate's face, similarity and position.
bool identical(const fttt::TrackUpdate& a, const fttt::TrackUpdate& b);

/// First index where `got` and `spec` differ (or a length mismatch).
std::string compare_updates(const std::vector<fttt::TrackUpdate>& got,
                            const std::vector<fttt::TrackUpdate>& spec);

/// Fingerprint of an update's result: warm/cold provenance, the coverage
/// gate, and the bits of the estimate's face, similarity and position. A
/// timed loop keeps only this per frame (its track and epoch are the
/// frame's key), so checking every update costs 8 bytes a frame.
std::uint64_t update_digest(const fttt::TrackUpdate& u);

/// Indices i where got[i] != update_digest(spec[i]) (all of them when
/// the lengths differ).
std::vector<std::size_t> digest_mismatches(std::span<const std::uint64_t> got,
                                           const std::vector<fttt::TrackUpdate>& spec);

/// Every cell's per-method pooled and trial-mean statistics bit-equal to
/// the serial monte_carlo reference (`serial[c]` belongs to cell c).
std::string compare_cells(const fttt::CampaignResult& got,
                          const std::vector<std::vector<fttt::MonteCarloSummary>>& serial);

/// Free-running accounting: every accepted frame produced an update and
/// every track still owns a slot.
std::string check_accounting(std::uint64_t enqueued, std::uint64_t shed,
                             std::uint64_t updates, std::size_t tracks_held,
                             std::size_t tracks_expected);

}  // namespace perfbench
