// Sampling vectors (paper Def. 4/5, Algorithm 1), their fault-tolerant
// widening (Sec. 4.4(3), Eq. 6) and the quantified extension (Sec. 6,
// Def. 10).
//
// For each node pair (i, j), i < j, one grouping sampling yields:
//   basic value    +1  rss_i above rss_j at every instant
//                  -1  rss_i below rss_j at every instant
//                   0  the order flipped within the group
//   extended value (N_ij - N_ji) / k in [-1, 1]  (Def. 10)
//   fault cases    one node missing -> +/-1 ("missing reads smaller",
//                  Eq. 6); both missing -> '*' (component is unknowable)
//
// An instant where |rss_i - rss_j| <= eps (the sensing resolution) cannot
// be ordered by the hardware; it breaks "ordinal at every instant" for the
// basic value and contributes 0 to the extended count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/sampling.hpp"

namespace fttt {

/// Basic (trinary) vs extended (quantified, Sec. 6) node-pair values.
enum class VectorMode { kBasic, kExtended };

/// How to value a pair when exactly one node is missing.
///
/// kMissingReadsSmaller is the paper's Eq. 6: a silent node is assumed to
/// read weaker than any reporting node — correct when silence means
/// out-of-sensing-range. kMissingUnknown marks such pairs '*' instead —
/// the right call when silence is *link-layer* loss (the mote heard the
/// target fine; the packet died), as in the outdoor testbed.
enum class MissingPolicy { kMissingReadsSmaller, kMissingUnknown };

/// A sampling vector with '*' support. Component c is meaningful iff
/// known[c]; unknown components compare as equal to anything (Eq. 7).
struct SamplingVector {
  std::vector<double> value;  ///< in [-1, 1]; basic mode uses {-1, 0, +1}
  std::vector<bool> known;    ///< false marks the '*' components

  std::size_t dimension() const { return value.size(); }

  /// Count of '*' components.
  std::size_t unknown_count() const;
};

/// The byte view of a sampling vector that the matching kernels read
/// (BatchMatcher, HierFaceMap): one int8 value and one known byte per
/// component, so hot loops touch neither doubles nor std::vector<bool>
/// bits. A basic-mode vector is *integral* — every known component is
/// -1, 0 or +1 — and its Eq. 7 squared terms are then exact small
/// integers (docs/matching.md has the exactness argument).
struct IntegralView {
  std::vector<std::int8_t> value;   ///< the component if known and integral, else 0
  std::vector<std::uint8_t> known;  ///< 1 per known component, 0 per '*'
  bool integral{false};             ///< every known component in {-1, 0, +1}

  /// Rebuild the view of `vd`, reusing capacity; returns `integral`.
  /// `known` is filled for every vector, `value` is meaningful only when
  /// the vector is integral.
  bool assign(const SamplingVector& vd);
};

/// Build the sampling vector of one grouping sampling (Algorithm 1 plus
/// the Eq. 6 fault fill). `eps` is the sensing resolution in dB.
SamplingVector build_sampling_vector(
    const GroupingSampling& group, double eps, VectorMode mode,
    MissingPolicy missing = MissingPolicy::kMissingReadsSmaller);

/// Pairwise order of two RSS readings under resolution eps:
/// +1 (a decisively above b), -1 (below), 0 (within resolution).
inline int compare_rss(double a, double b, double eps) {
  if (a > b + eps) return +1;
  if (b > a + eps) return -1;
  return 0;
}

}  // namespace fttt
