// One fleet shard: per-track warm-start state over a shared division.
//
// A shard owns the slots of the tracks routed to it and resolves one
// tick's frames through the one localization rule,
// BatchMatcher::localize (the cross-*target* sequel to the epoch
// pipeline's cross-epoch batching):
//
//   1. warm climbs — a track that localized before hill-climbs from its
//      previous face (Algorithm 2, the same SoA path
//      FtttTracker::localize(SamplingVector) uses). Most ticks, most
//      tracks move at most a face or two, so this touches a handful of
//      signature columns per track;
//   2. one exhaustive SoA pass — cold tracks and poor climbs (below the
//      fallback similarity) resolve together in a single blocked
//      plane-major sweep, and a poor climb is kept unless the sweep is
//      strictly better.
//
// A tick resolves in rounds: round r holds each track's r-th frame of
// the tick, so a track's later frame climbs from the face its earlier
// frame committed — exactly as if the frames came one tick each. A tick
// with one frame per track is one round.
//
// Per-frame results are bit-identical to a serial per-track replay of
// the same stream (replay semantics in fleet.hpp): climb is per-track
// deterministic, and match() is bit-identical to match_one() for every
// batch composition, so *how* frames are sharded and batched can never
// change an estimate — the determinism suite in tests/serve holds the
// fleet to that across 1/2/8 shards.
//
// Deployment churn: the shard serves whatever division it was last
// handed via adopt_division(). Frames stay roster-wide; the shard
// projects them onto the division's member set (the alive nodes), so
// producers are insulated from fail/revive. Face ids are not stable
// across divisions, so adopting a new one cold-starts every track's
// next climb; slots — and therefore tracks — are never dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/division.hpp"
#include "core/sampling_vector.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/frame.hpp"

namespace fttt {

class TrackShard {
 public:
  struct Config {
    VectorMode mode{VectorMode::kBasic};
    double eps{1.0};                 ///< sensing resolution (dB)
    MissingPolicy missing{MissingPolicy::kMissingReadsSmaller};
    /// A climb converging below this similarity retries exhaustively in
    /// the batch pass (FtttTracker::Config::fallback_similarity rule).
    double fallback_similarity{0.5};
    /// Frames with fewer reporting nodes carry no information and are
    /// gated out (TrackManager::Config::min_reporting semantics).
    std::size_t min_reporting{2};
    /// Resolve the exhaustive batch pass through the coarse descent tier
    /// (BatchMatcher::descend) instead of the flat SoA sweep. Argmax
    /// bit-identical either way; sublinear at large N. When
    /// adopt_division is not handed a prebuilt tier the shard derives
    /// one from the adopted table.
    bool hierarchical{false};
  };

  /// `pool` serves the exhaustive batch pass of resolve(). The shard is
  /// not usable until adopt_division() hands it a map.
  TrackShard(Config config, ThreadPool& pool);

  /// Serve `division` covering the strictly-ascending global node ids
  /// `members`. Every track's warm start resets — face ids do not
  /// survive a re-division. A tiered division's tier is shared (validated
  /// against the table by BatchMatcher::attach_hierarchy); with
  /// Config::hierarchical set and a flat division, the shard builds its
  /// own. Throws std::invalid_argument on a null map/table, a tier
  /// without its index (or the reverse), or members that do not match.
  void adopt_division(Division division, std::vector<NodeId> members);

  /// Resolve one tick's frames; out[i] is frames[i]'s update (frame
  /// order, so the fleet can scatter shard outputs into a stable
  /// drain-order result). A track's frames resolve in their order, one
  /// round each. Creates slots for unseen track ids. Contract:
  /// adopt_division() was called; every frame's grouping sampling is
  /// roster-wide (node_count > max member id).
  void resolve(std::span<const ReportFrame* const> frames, TrackUpdate* out);

  std::size_t track_count() const { return slots_.size(); }
  std::uint64_t localizations() const { return localizations_; }
  std::uint64_t climbs() const { return climbs_; }
  std::uint64_t fallbacks() const { return fallbacks_; }

  const std::vector<NodeId>& members() const { return members_; }

 private:
  struct TrackSlot {
    TrackId id{0};
    std::optional<FaceId> warm;       ///< previous face in the *current* division
    std::uint64_t localizations{0};
    std::uint64_t tick{0};            ///< last resolve() call that saw the track
    std::uint32_t tick_frames{0};     ///< its frames in that call so far
  };

  /// Find-or-create the slot of `track` and return its id (dense slot
  /// ids, creation order; the index map is lookup-only, never iterated).
  std::size_t slot_for(TrackId track);

  /// `group` restricted to members_, relabeled to local ids 0..m-1.
  /// Identity (no copy) when the division covers the whole roster.
  GroupingSampling project(const GroupingSampling& group) const;

  /// Resolve the frames of round `round` (slot[i] is frames[i]'s slot).
  void resolve_round(std::span<const ReportFrame* const> frames,
                     const std::vector<std::size_t>& slot,
                     const std::vector<std::uint32_t>& round_of, std::uint32_t round,
                     TrackUpdate* out);

  Config config_;
  ThreadPool* pool_;
  std::unique_ptr<BatchMatcher> matcher_;
  std::vector<NodeId> members_;  ///< global ids the division covers, ascending

  std::vector<TrackSlot> slots_;
  std::unordered_map<TrackId, std::size_t> index_;
  std::uint64_t ticks_{0};  ///< resolve() calls, stamps TrackSlot::tick

  /// Round scratch kept across ticks: overwriting a kept element frees
  /// its old buffers as the new ones are taken, so each round recycles
  /// the last one's memory instead of holding a second round's worth.
  std::vector<SamplingVector> vds_;
  std::vector<Localized> localized_;

  std::uint64_t localizations_{0};
  std::uint64_t climbs_{0};
  std::uint64_t fallbacks_{0};
};

}  // namespace fttt
