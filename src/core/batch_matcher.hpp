// Batched SoA localization engine.
//
// The paper's matchers (core/matcher.hpp) localize one sampling vector at
// a time against row-of-structs signatures. Heavy multi-target traffic
// wants the transpose: BatchMatcher keeps the face signatures as a
// SignatureTable (one contiguous int8 plane per node pair) and localizes
// a whole batch of sampling vectors in one pass — blocked distance
// accumulation over the planes (unit-stride inner loop the compiler
// vectorizes), '*' wildcards lifted to per-plane skips, and the batch
// fanned out across the thread pool with one bulk submission and
// per-slot scratch.
//
// Two kernel families serve one contract. Basic-mode vectors (every
// known component in {-1, 0, +1}, Def. 4/5 with the Eq. 6 fill) against
// tables of at most kExactMaxPlanes planes take the exact integer path:
// an IntegralView (int8 values, byte known-mask) per vector, squared
// terms in {0, 1, 4} summed in uint16 lanes, selection on the integer
// distances, and one 1/sqrt for the winner — exact, because the double
// accumulation of the same terms is exact too and 1/sqrt is strictly
// decreasing and injective on those integers (docs/matching.md).
// Extended-mode vectors and wider tables keep the double kernels.
//
// Equivalence contract: match()/match_one() are *bit-identical* to
// ExhaustiveMatcher::match (same distances and similarity transform,
// the double path in the spec's accumulation order, same comparison and
// tie-break sequence), and climb() is bit-identical to
// HeuristicMatcher::match. The scalar matchers remain as the executable
// specification; tests/core/test_batch_matcher.cpp enforces the contract.
//
// Large deployments add a fourth tier: build_hierarchy() attaches a
// coarse HierFaceMap pyramid plus a SignatureIndex over its tiles, and
// match()/match_one() then run descend() — best-first coarse->fine
// search that prunes whole tiles by conservative distance bounds and
// exactly rescores only the survivors. The descent keeps every argmax
// field (face, tied_faces, similarity, position) bit-identical to the
// flat scan; only faces_examined differs, honestly counting the faces
// actually rescored. docs/matching.md is the handbook;
// tests/core/test_hier_descend.cpp enforces the descent contract.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/matcher.hpp"
#include "core/signature_table.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {

class HierFaceMap;
class SignatureIndex;

/// BatchMatcher tuning (BatchMatcher::Config). Declared at namespace
/// scope so its member initializers can feed the constructor's default
/// argument.
struct BatchMatcherConfig {
  /// Accumulator columns per block of the double kernels (the exact
  /// integer kernels use fixed 2048-column blocks): the block's doubles
  /// plus one plane segment should stay L1-resident (1024 -> 8 KiB acc
  /// + 1 KiB plane).
  std::size_t face_block{1024};
  /// Batches below this size run on the caller; pool fan-out overhead
  /// would exceed the matching work.
  std::size_t min_parallel_batch{16};
};

/// One request of BatchMatcher::localize: a sampling vector and, for a
/// track with a position to continue from, the face its climb starts at.
struct LocalizeRequest {
  const SamplingVector* vd{nullptr};
  std::optional<FaceId> start;  ///< none: cold, the exhaustive pass only
};

/// What BatchMatcher::localize kept for one request.
struct Localized {
  /// The kept match. faces_examined counts every face the request
  /// examined: the climb plus, when it fell back, the cold pass.
  MatchResult match;
  bool warm{false};       ///< the climb met the floor; no cold pass ran
  bool fell_back{false};  ///< the climb missed the floor; the cold pass ran
};

class BatchMatcher {
 public:
  using Config = BatchMatcherConfig;

  /// Largest table dimension the exact integer kernels serve: each
  /// squared term is at most 4, and 4 * 16383 = 65532 still fits a
  /// uint16 lane. Larger tables keep the double kernels.
  static constexpr std::size_t kExactMaxPlanes = 16383;

  /// Match over `map`'s faces. `table` shares an already-built SoA table
  /// (a Division's, e.g. a FaceMapCache entry or the zero-transposition
  /// product of FaceMapBuilder): several matchers over one map then pay
  /// for one transposition total. A null `table` transposes `map`.
  /// `pool` serves every subsequent match() fan-out. Throws
  /// std::invalid_argument when `map` is null or `table` disagrees with
  /// it in face count or dimension.
  explicit BatchMatcher(std::shared_ptr<const FaceMap> map,
                        std::shared_ptr<const SignatureTable> table = nullptr,
                        Config config = {}, ThreadPool& pool = ThreadPool::global());

  /// Localize every vector of `batch`; results[i] is the match of
  /// batch[i], each bit-identical to ExhaustiveMatcher::match.
  std::vector<MatchResult> match(const std::vector<SamplingVector>& batch) const;

  /// Single-vector exhaustive match over the SoA table (no pool fan-out).
  MatchResult match_one(const SamplingVector& vd) const;

  /// Algorithm 2 hill climb (steepest similarity ascent over neighbor
  /// links) consulting the SoA table; bit-identical to HeuristicMatcher.
  MatchResult climb(const SamplingVector& vd, FaceId start) const;

  /// The localization rule (Algorithm 2 with the exhaustive retry) over
  /// a batch: each request with a start face climbs from it, and a climb
  /// whose similarity is at least `fallback_similarity` is kept. The
  /// rest — cold requests and climbs below the floor — go through one
  /// match() pass (descend() when a tier is attached), and a fallen-back
  /// request keeps its climb unless the cold result is strictly better.
  /// out[i] answers requests[i] (`out` is resized; reusing it across
  /// calls recycles its buffers); no result depends on the batch's
  /// composition. Counts fallbacks into the localizer.fallback.won /
  /// localizer.fallback.kept_climb counters.
  void localize(std::span<const LocalizeRequest> requests, double fallback_similarity,
                std::vector<Localized>& out) const;

  /// Per-face similarities of `vd` in one blocked SoA pass: `out` must
  /// hold padded_faces() doubles; entries [0, face_count()) are filled
  /// with values bit-identical to the scalar
  /// similarity(vd, face.signature) of every face (pad entries are
  /// meaningless). This is the scan match() selects over, exposed so
  /// face-scan consumers (path matching) share it; on the exact path
  /// each face's integer distance^2 converts to its similarity here.
  void similarities_into(const SamplingVector& vd, std::span<double> out) const;

  /// Select the exhaustive match from an already-computed per-face
  /// similarity array (a similarities_into buffer): max scan, tie sweep
  /// and finalization over doubles — the same selection match_one makes
  /// on either kernel path, since equal integer distances are exactly
  /// the equal similarities — so
  /// when `scores` came from similarities_into(vd, ...) the result is
  /// bit-identical to match_one(vd) on the flat path. The campaign
  /// engine shares one scan between path matching and Direct MLE this
  /// way instead of issuing a second pass. `scores` must hold at least
  /// face_count() entries (throws std::invalid_argument otherwise).
  MatchResult select_from(std::span<const double> scores) const;

  /// Build the coarse descent tier (a HierFaceMap pyramid plus the
  /// SignatureIndex over its tiles) from the adopted table; every
  /// subsequent match()/match_one() routes through descend(). Idempotent.
  /// Like construction, not synchronized against concurrent matching —
  /// attach the tier before the matcher is shared.
  void build_hierarchy();

  /// Adopt prebuilt tiers (a FaceMapCache entry, or a sibling's
  /// shared_hierarchy()/shared_index()): matchers over one table then
  /// pay for one coarse build total. Throws std::invalid_argument when
  /// either pointer is null or disagrees with the table in face count,
  /// dimension, or tile count.
  void attach_hierarchy(std::shared_ptr<const HierFaceMap> hier,
                        std::shared_ptr<const SignatureIndex> index);

  bool has_hierarchy() const { return hier_ != nullptr; }

  /// Coarse->fine localization of one vector (requires a hierarchy;
  /// throws std::logic_error without one). Best-first over the pyramid:
  /// pop the node with the smallest distance bound, expand it (child
  /// bounds, or an exact tile rescore at level 0), and stop once the
  /// best rescored similarity strictly beats every remaining bound —
  /// strict, so faces tied with the maximum are never pruned. The
  /// argmax fields are bit-identical to match_one() on the flat path;
  /// faces_examined counts the faces actually rescored. climb() never
  /// consults the tier — Algorithm 2 is already sublinear.
  MatchResult descend(const SamplingVector& vd) const;

  const SignatureTable& table() const { return *table_; }

  /// The shared table handle (for cache-aware construction of siblings).
  std::shared_ptr<const SignatureTable> shared_table() const { return table_; }
  std::shared_ptr<const HierFaceMap> shared_hierarchy() const { return hier_; }
  std::shared_ptr<const SignatureIndex> shared_index() const { return index_; }
  const FaceMap& map() const { return *map_; }

 private:
  struct BatchState;
  struct Scratch;

  /// match() over borrowed vectors (the batch the localize rule gathers).
  std::vector<MatchResult> match_each(std::span<const SamplingVector* const> batch) const;

  /// Fill `view` from `vd`; true when the exact integer kernels serve
  /// the vector (integral, and the table within kExactMaxPlanes).
  bool exact(const SamplingVector& vd, IntegralView& view) const;

  /// One validated localization with caller-owned scratch (batch
  /// fan-outs reuse it across vectors): descend_into when a tier is
  /// attached, else the flat scan — exact integers or doubles — and the
  /// selection.
  void match_into(const SamplingVector& vd, Scratch& s, MatchResult& out) const;

  /// The double kernels' accumulation + similarity transform over all
  /// padded face columns into `acc` (no selection, no validation);
  /// `view` supplies the known bytes.
  void similarities_double(const SamplingVector& vd, const IntegralView& view,
                           double* acc) const;

  /// climb() with a caller-owned view buffer (localize reuses one).
  MatchResult climb_with(const SamplingVector& vd, FaceId start,
                         IntegralView& view) const;

  /// The descent body (validated input, caller-owned scratch).
  void descend_into(const SamplingVector& vd, Scratch& s, MatchResult& out) const;

  /// Throws std::invalid_argument when vd's dimension != the table's
  /// (same failure type as the scalar vector_distance path).
  void require_dimension(const SamplingVector& vd) const;

  std::shared_ptr<const FaceMap> map_;
  Config config_;
  ThreadPool* pool_;
  std::shared_ptr<const SignatureTable> table_;
  std::shared_ptr<const HierFaceMap> hier_;      ///< set => descent routing
  std::shared_ptr<const SignatureIndex> index_;  ///< set iff hier_ is
};

}  // namespace fttt
