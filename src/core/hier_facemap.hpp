// Multi-resolution coarse face map (the sublinear-matching backbone).
//
// A SignatureTable answers "what is pair c's component on face f" for
// every face; past ~50 sensors the flat scan over all faces dominates
// localization (pairs grow O(n^2), faces O(n^4)). HierFaceMap layers a
// pyramid of *coarse signature tables* on top: level 0 groups the faces
// into tiles of kTileFaces consecutive face ids, each higher level
// groups kFanout nodes of the level below, and every (level, pair,
// node) cell stores a 3-bit mask of which signature values {-1, 0, +1}
// occur among the faces the node covers. Tiles are contiguous id
// ranges on purpose: face ids are assigned in first-cell scan order
// (facemap.cpp), so consecutive ids are spatially coherent, and the
// exact rescoring of a surviving tile is a unit-stride segment of the
// fine table — ids never get renumbered, which keeps every coarse-path
// result bit-comparable with the flat matchers.
//
// The payoff is lower_bounds_into: for one sampling vector it computes,
// per coarse node, a conservative lower bound on the squared vector
// distance (Eq. 7) of *every* face under that node — summing, in
// ascending pair order, the minimum squared term the node's mask
// permits. Because each per-plane term is computed with the same
// rounding as the fine kernel (this TU compiles with -ffp-contract=off,
// see core/CMakeLists.txt) and IEEE addition is monotone, the bound
// never exceeds any covered face's exactly-accumulated distance — the
// property BatchMatcher's descent relies on to prune tiles without ever
// changing the argmax (core/batch_matcher.hpp's equivalence contract).
//
// Build cost is one streaming pass over the fine table (O(dim x faces)
// byte reads, parallelized over planes); memory is ~1/kTileFaces of the
// fine table per level. Deployment churn regroups faces wholesale —
// face *ids* do not survive — but the pair planes and the cell geometry
// do, so patched() rebuilds the tier incrementally from a DivisionDelta
// (FaceMapBuilder::delta_since): surviving planes pin most tile masks
// straight from the old tier's source-tile masks and only multi-value
// neighborhoods re-read the fine table, bit-identical to build() on the
// same table (tests/core/test_hier_patch.cpp enforces the contract).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/division_delta.hpp"
#include "core/sampling_vector.hpp"
#include "core/signature_table.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {

class HierFaceMap {
 public:
  /// Fine faces per level-0 tile. Equal to SignatureTable::kBlock so a
  /// tile is exactly one padding block: segment rescoring starts
  /// line-aligned and never straddles the pad columns.
  static constexpr std::size_t kTileFaces = SignatureTable::kBlock;

  /// Child nodes per node on every level above 0. The topmost level is
  /// the first one with at most kFanout nodes, so a descent's initial
  /// bound pass touches at most kFanout nodes per plane.
  static constexpr std::size_t kFanout = 64;

  /// Mask bits: which signature values occur under a node.
  static constexpr std::uint8_t kHasMinus = 1u << 0;  ///< some face has -1
  static constexpr std::uint8_t kHasZero = 1u << 1;   ///< some face has 0
  static constexpr std::uint8_t kHasPlus = 1u << 2;   ///< some face has +1

  /// kIntMinTerm[v + 1][mask]: smallest integer squared term `mask`
  /// permits for an integral component v in {-1, 0, +1} — min over the
  /// mask's value bits s of (v - s)^2. The whole table is a
  /// compile-time constant (the empty mask maps to 0: pad slots bound
  /// nothing), so the integral bound kernels select a row per plane
  /// instead of rebuilding a lookup table.
  static constexpr std::array<std::array<std::uint32_t, 8>, 3> kIntMinTerm =
      [] {
        std::array<std::array<std::uint32_t, 8>, 3> t{};
        for (int v = -1; v <= 1; ++v)
          for (unsigned m = 1; m < 8; ++m) {
            std::uint32_t best = ~0u;
            for (int s = -1; s <= 1; ++s)
              if (m & (1u << (s + 1)))
                best = std::min(
                    best, static_cast<std::uint32_t>((v - s) * (v - s)));
            t[static_cast<std::size_t>(v + 1)][m] = best;
          }
        return t;
      }();

  /// Build the pyramid from a fine table (one streaming pass per level,
  /// parallelized over planes). Throws std::invalid_argument on an
  /// empty table (no faces or no pairs — such maps have nothing to
  /// descend).
  static HierFaceMap build(const SignatureTable& table,
                           ThreadPool& pool = ThreadPool::global());

  /// Patch `prev` (the old division's tier) into the tier of `table`
  /// (the new division's fine table) along `delta` — bit-identical to
  /// build(table, pool), levels, strides, masks and pads included, at
  /// any thread count. Cost is proportional to what changed: a
  /// surviving plane's tile mask is pinned without touching the fine
  /// table whenever the OR of its source old-tile masks is a single
  /// value bit (the overwhelming majority — pure tiles stay pure), and
  /// only multi-bit neighborhoods re-read their <= kTileFaces fine
  /// columns; added/re-rasterized planes recompute all tiles. When the
  /// tile count is unchanged, upper levels re-propagate only the paths
  /// above changed tiles. `report` (optional) receives the effort
  /// accounting and the changed sets SignatureIndex::patched consumes.
  /// Throws std::invalid_argument when `delta` is invalid or does not
  /// connect `prev` to `table` (callers fall back to build()).
  /// Implementation: core/hier_patch.cpp.
  static HierFaceMap patched(const HierFaceMap& prev, const SignatureTable& table,
                             const DivisionDelta& delta,
                             ThreadPool& pool = ThreadPool::global(),
                             HierPatchReport* report = nullptr);

  std::size_t face_count() const { return face_count_; }
  std::size_t dimension() const { return dimension_; }

  /// Pyramid height (>= 1; level 0 is the tile tier).
  std::size_t level_count() const { return levels_.size(); }

  /// Nodes on `level`. Level 0 node t covers faces
  /// [t * kTileFaces, min(face_count(), (t + 1) * kTileFaces)); level l
  /// node i covers level l-1 nodes [i * kFanout, ...) likewise.
  std::size_t node_count(std::size_t level) const {
    return levels_[level].nodes;
  }

  /// Mask plane of node pair `pair` on `level`: node_count(level)
  /// masks in node order (pad slots past the count hold 0).
  const std::uint8_t* plane(std::size_t level, std::size_t pair) const {
    const Level& l = levels_[level];
    return l.masks.data() + pair * l.stride;
  }

  /// Distance between consecutive mask planes of `level` (node_count
  /// rounded up to kFanout; pad masks are 0).
  std::size_t plane_stride(std::size_t level) const { return levels_[level].stride; }

  /// One (level, pair, node) mask.
  std::uint8_t mask(std::size_t level, std::size_t pair, std::size_t node) const {
    return plane(level, pair)[node];
  }

  /// Conservative lower bounds on the squared vector distance (Eq. 7)
  /// of `vd` against every face covered by nodes [lo, hi) of `level`,
  /// written to out[0 .. hi-lo). Per node: sum over known pairs, in
  /// ascending pair order, of the minimum of (value[c] - s)^2 over the
  /// signature values s the node's mask holds — each term rounded
  /// exactly as the fine accumulation kernel rounds it, so
  /// out[i] <= the exact accumulated distance^2 of every covered face
  /// (monotonicity of IEEE add), with equality-only-tightening on
  /// all-'*' vectors (every bound 0: nothing prunes, the descent
  /// degrades to the full scan the spec performs). Throws
  /// std::invalid_argument on dimension mismatch or a node range
  /// outside the level.
  void lower_bounds_into(const SamplingVector& vd, std::size_t level,
                         std::size_t lo, std::size_t hi, double* out) const;

  /// The same bounds for an integral vector's view (IntegralView::integral
  /// set), summed in exact integer arithmetic: every term is one of
  /// {0, 1, 4} (kIntMinTerm), so out[i] equals the double overload's
  /// out[i] for the vector the view came from. The descent's integer
  /// path. Throws like the double overload.
  void lower_bounds_into(const IntegralView& view, std::size_t level,
                         std::size_t lo, std::size_t hi, std::uint32_t* out) const;

  /// Total mask bytes across levels (the coarse tier's memory budget;
  /// BENCH_largeN.json tracks this per face).
  std::size_t bytes() const;

 private:
  struct Level {
    std::size_t nodes{0};
    std::size_t stride{0};  ///< nodes padded to kFanout (pad masks 0)
    std::vector<std::uint8_t> masks;  ///< dimension planes of `stride`
  };

  HierFaceMap() = default;

  /// The argument checks both lower_bounds_into overloads share.
  void check_range(std::size_t dim, std::size_t level, std::size_t lo,
                   std::size_t hi) const;

  std::size_t face_count_{0};
  std::size_t dimension_{0};
  std::vector<Level> levels_;
};

}  // namespace fttt
