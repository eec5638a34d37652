#include "core/sampling_vector.hpp"

#include <span>

#include "common/check.hpp"
#include "core/pairs.hpp"
#include "obs/obs.hpp"

namespace fttt {

std::size_t SamplingVector::unknown_count() const {
  std::size_t c = 0;
  for (bool k : known)
    if (!k) ++c;
  return c;
}

bool IntegralView::assign(const SamplingVector& vd) {
  const std::size_t dim = vd.dimension();
  value.resize(dim);
  known.resize(dim);
  integral = true;
  for (std::size_t c = 0; c < dim; ++c) {
    const bool k = vd.known[c];
    known[c] = k ? 1 : 0;
    const double v = k ? vd.value[c] : 0.0;
    // NaN and fractional (extended-mode) values fail all three tests.
    const bool trit = v == -1.0 || v == 0.0 || v == 1.0;
    integral = integral && trit;
    value[c] = trit ? static_cast<std::int8_t>(v) : std::int8_t{0};
  }
  return integral;
}

namespace {

/// Pair value when both nodes reported: Def. 4 (basic) / Def. 10
/// (extended) over the k instants. Columns come from the SoA grouping
/// sampling, so both are contiguous k-sample runs.
double both_present_value(std::span<const double> rss_i,
                          std::span<const double> rss_j, double eps,
                          VectorMode mode) {
  FTTT_DCHECK(!rss_i.empty(), "pair value over zero sampling instants");
  const std::size_t k = rss_i.size();
  std::size_t above = 0;  // N_ij: instants with rss_i decisively above
  std::size_t below = 0;  // N_ji
  for (std::size_t t = 0; t < k; ++t) {
    const int cmp = compare_rss(rss_i[t], rss_j[t], eps);
    if (cmp > 0) ++above;
    else if (cmp < 0) ++below;
  }
  if (mode == VectorMode::kExtended)
    return (static_cast<double>(above) - static_cast<double>(below)) /
           static_cast<double>(k);
  if (above == k) return +1.0;
  if (below == k) return -1.0;
  return 0.0;  // flipped (or resolution-tied) within the group
}

}  // namespace

SamplingVector build_sampling_vector(const GroupingSampling& group, double eps,
                                     VectorMode mode, MissingPolicy missing) {
  const std::size_t n = group.node_count();

  SamplingVector vd;
  vd.value.assign(pair_count(n), 0.0);
  vd.known.assign(pair_count(n), true);

  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool has_i = group.has(i);
    const std::span<const double> col_i =
        has_i ? group.column(i) : std::span<const double>{};
    for (std::size_t j = i + 1; j < n; ++j, ++c) {
      const bool has_j = group.has(j);
      if (has_i && has_j) {
        vd.value[c] = both_present_value(col_i, group.column(j), eps, mode);
      } else if (has_i && !has_j) {
        if (missing == MissingPolicy::kMissingReadsSmaller)
          vd.value[c] = +1.0;  // Eq. 6: missing node reads smaller
        else
          vd.known[c] = false;
      } else if (!has_i && has_j) {
        if (missing == MissingPolicy::kMissingReadsSmaller)
          vd.value[c] = -1.0;
        else
          vd.known[c] = false;
      } else {
        vd.known[c] = false;  // '*': neither node participated
      }
    }
  }
  // Def. 5: exactly C(n,2) pair components were filled, in canonical
  // order, so the vector is dimension-compatible with every signature
  // built over the same n nodes.
  FTTT_DCHECK(c == pair_count(n), "filled ", c, " of ", pair_count(n),
              " pair components");
  FTTT_DCHECK(vd.dimension() == pair_count(n));
  FTTT_OBS_COUNT("vector.pairs.widened", vd.unknown_count());
  return vd;
}

}  // namespace fttt
