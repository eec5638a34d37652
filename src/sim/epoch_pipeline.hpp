// Epoch-pipeline driver: one run with its epochs fanned out over a pool.
//
// run_tracking (sim/runner.hpp) interleaves per-epoch work serially. The
// sampling side of an epoch is independent of every other epoch — epoch
// e draws all its randomness from root.substream(4, e) and fault
// decisions are pure in (node, epoch) — so run_tracking_pipelined hands
// one trial to a fresh TrialWorker (sim/trial.hpp) and runs it in two
// phases:
//   1. precompute (parallel over epochs, span sim.pipeline.precompute):
//      TrialWorker::precompute for every epoch on `pool`;
//   2. consume (sequential, span sim.pipeline.consume): per method in
//      epoch order, copied into a TrackingResult.
// This driver owns epoch fan-out; run_campaign (sim/campaign.hpp) owns
// trial fan-out on the same worker.
//
// Bit-equivalence contract: run_tracking_pipelined(cfg, methods, trial)
// returns a TrackingResult *bit-identical* to run_tracking with the
// same arguments, for every method, at any thread count, with or
// without the face-map cache. tests/sim/test_epoch_pipeline.cpp enforces
// the contract across channels, vector modes, missing policies and
// methods.
//
// The optional FaceMapCache removes the other serial-bottleneck cost:
// across trials of a fixed-deployment sweep the uncertain and bisector
// maps are rebuilt identically every run; with a cache each unique
// (deployment, C, field, grid) key is built once and shared.
#pragma once

#include <cstdint>
#include <span>

#include "core/facemap_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"

namespace fttt {

/// Execute one run on the epoch pipeline. Bit-identical to
/// run_tracking(cfg, methods, trial) regardless of `pool` size. When
/// `cache` is non-null, face maps are fetched through it (content-keyed,
/// so cross-trial fixed-deployment sweeps build each map once);
/// otherwise each call builds its own maps. Defined in sim/trial.cpp.
TrackingResult run_tracking_pipelined(const ScenarioConfig& cfg,
                                      std::span<const Method> methods,
                                      std::uint64_t trial = 0,
                                      ThreadPool& pool = ThreadPool::global(),
                                      FaceMapCache* cache = nullptr);

}  // namespace fttt
