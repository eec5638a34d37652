// FtttTracker: the public facade of the FTTT strategy (paper Sec. 4).
//
// Owns a prebuilt FaceMap, consumes one GroupingSampling per localization
// epoch, and produces position estimates. Supports:
//   - basic / extended sampling vectors (Sec. 4.2 / Sec. 6),
//   - exhaustive or heuristic matching, with warm starts from the previous
//     localization (Algorithm 2's consecutive-tracking speedup),
//   - fault-tolerant vectors ('*' components, Sec. 4.4(3)) transparently,
//   - batched multi-target localization over the SoA signature table
//     (localize_batch; see core/batch_matcher.hpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap.hpp"
#include "core/matcher.hpp"

namespace fttt {

/// One localization outcome exposed to applications.
struct TrackEstimate {
  Vec2 position;          ///< estimated target location
  FaceId face{0};         ///< matched face
  double similarity{0.0}; ///< achieved vector similarity
};

class FtttTracker {
 public:
  struct Config {
    VectorMode mode{VectorMode::kBasic};   ///< basic or extended (Sec. 6)
    double eps{1.0};                       ///< sensing resolution (dB)
    bool use_heuristic{true};              ///< Algorithm 2 vs full scan
    /// When heuristic matching converges below this similarity the tracker
    /// reruns exhaustively (grid-approximation local maxima). Set to 0 to
    /// never fall back, +inf to always run exhaustively after the climb.
    double fallback_similarity{0.5};
    /// How pairs with one silent node are valued (Eq. 6 vs '*').
    MissingPolicy missing{MissingPolicy::kMissingReadsSmaller};
    /// Route exhaustive matching (cold starts, fallbacks, batches)
    /// through the coarse descent tier (core/hier_facemap.hpp) instead
    /// of the flat SoA sweep. Estimates are bit-identical either way;
    /// sublinear in the face count at large N.
    bool hierarchical{false};
  };

  /// Work counters for the complexity experiments.
  struct Stats {
    std::size_t localizations{0};
    /// Total across localizations; a fallback counts its climb and its
    /// exhaustive pass.
    std::size_t faces_examined{0};
    std::size_t fallbacks{0};       ///< heuristic -> exhaustive retries
  };

  /// Track over `map`. `table` shares a prebuilt signature table (a
  /// Division's, e.g. a FaceMapCache entry) instead of transposing `map`
  /// again; BatchMatcher's constructor validates both.
  FtttTracker(std::shared_ptr<const FaceMap> map, Config config,
              std::shared_ptr<const SignatureTable> table = nullptr);

  /// Localize the target from one grouping sampling; updates the warm
  /// start for the next call.
  TrackEstimate localize(const GroupingSampling& group);

  /// Localize from an already-built sampling vector (the epoch pipeline
  /// precomputes vectors in parallel; this entry consumes them in epoch
  /// order). Identical to localize(group) after its vector build — same
  /// climb, fallback, stats and warm-start behaviour. A batch of one
  /// through BatchMatcher::localize: the heuristic climbs from the
  /// previous face (the field-center face on a cold start); exhaustive
  /// mode sends no start face.
  TrackEstimate localize(const SamplingVector& vd);

  /// Localize a frame of independent sampling epochs (multi-target
  /// traffic) in one SoA batch pass. Every vector goes through the
  /// exhaustive ML matcher; the single-target warm start is unaffected.
  /// The pointer overload avoids copying k x n sampling matrices when the
  /// caller holds a scattered subset (TrackManager::process_frame).
  std::vector<TrackEstimate> localize_batch(const std::vector<GroupingSampling>& groups);
  std::vector<TrackEstimate> localize_batch(const std::vector<const GroupingSampling*>& groups);

  /// Forget the previous face (target lost / new track).
  void reset() { previous_face_.reset(); }

  const Stats& stats() const { return stats_; }
  const FaceMap& map() const { return *map_; }
  const Config& config() const { return config_; }

  /// The batched SoA matching engine (shared signature table).
  const BatchMatcher& matcher() const { return batch_; }

 private:
  std::shared_ptr<const FaceMap> map_;
  Config config_;
  BatchMatcher batch_;
  std::optional<FaceId> previous_face_;
  Stats stats_;
};

}  // namespace fttt
