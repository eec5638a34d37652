#include "core/hier_facemap.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {

/// Value-presence bit of one signature component (-1 -> bit 0, 0 -> bit
/// 1, +1 -> bit 2).
inline std::uint8_t value_bit(SigValue v) {
  return static_cast<std::uint8_t>(1u << (v + 1));
}

/// Per-plane lookup tables: lut[mask] is the smallest squared term the
/// mask permits. Index 0 (pad slots; real nodes cover at least one face
/// so their mask is never empty) stays 0 — a zero bound is always
/// conservative. The double table computes each candidate exactly as
/// the fine kernel does — d = v - (double)s, then d * d, no contraction
/// (this TU compiles with -ffp-contract=off) — so min-of-candidates is
/// a bitwise lower bound on the term the covered faces accumulate.
void build_lut(double v, double out[8]) {
  double cand[3];
  for (int s = -1; s <= 1; ++s) {
    const double d = v - static_cast<double>(s);
    cand[s + 1] = d * d;
  }
  out[0] = 0.0;
  for (unsigned m = 1; m < 8; ++m) {
    double best = cand[0];
    bool seen = false;
    for (int b = 0; b < 3; ++b) {
      if (!(m & (1u << b))) continue;
      best = seen ? std::min(best, cand[b]) : cand[b];
      seen = true;
    }
    out[m] = best;
  }
}

}  // namespace

HierFaceMap HierFaceMap::build(const SignatureTable& table, ThreadPool& pool) {
  if (table.face_count() == 0 || table.dimension() == 0)
    throw std::invalid_argument("HierFaceMap: empty signature table");
  FTTT_OBS_SPAN("facemap.coarse.build");

  HierFaceMap h;
  h.face_count_ = table.face_count();
  h.dimension_ = table.dimension();

  const auto padded = [](std::size_t nodes) {
    return (nodes + kFanout - 1) / kFanout * kFanout;
  };

  // Level 0: one streaming pass over the fine planes. Only real faces
  // feed the masks — the fine table's pad columns hold 0 and would
  // otherwise leak a spurious kHasZero into every last tile.
  Level l0;
  l0.nodes = (h.face_count_ + kTileFaces - 1) / kTileFaces;
  l0.stride = padded(l0.nodes);
  l0.masks.assign(h.dimension_ * l0.stride, 0);
  parallel_for(
      0, h.dimension_,
      [&](std::size_t c) {
        const SigValue* p = table.plane(c);
        std::uint8_t* m = l0.masks.data() + c * l0.stride;
        for (std::size_t t = 0; t < l0.nodes; ++t) {
          const std::size_t f1 = std::min(h.face_count_, (t + 1) * kTileFaces);
          std::uint8_t acc = 0;
          for (std::size_t f = t * kTileFaces; f < f1; ++f) acc |= value_bit(p[f]);
          m[t] = acc;
        }
      },
      pool);
  h.levels_.push_back(std::move(l0));

  // Higher levels: OR of child masks until one fan-out holds the top.
  while (h.levels_.back().nodes > kFanout) {
    const Level& prev = h.levels_.back();
    Level next;
    next.nodes = (prev.nodes + kFanout - 1) / kFanout;
    next.stride = padded(next.nodes);
    next.masks.assign(h.dimension_ * next.stride, 0);
    parallel_for(
        0, h.dimension_,
        [&](std::size_t c) {
          const std::uint8_t* child = prev.masks.data() + c * prev.stride;
          std::uint8_t* m = next.masks.data() + c * next.stride;
          for (std::size_t i = 0; i < next.nodes; ++i) {
            const std::size_t c1 = std::min(prev.nodes, (i + 1) * kFanout);
            std::uint8_t acc = 0;
            for (std::size_t j = i * kFanout; j < c1; ++j) acc |= child[j];
            m[i] = acc;
          }
        },
        pool);
    h.levels_.push_back(std::move(next));
  }

  FTTT_OBS_GAUGE_SET("facemap.coarse.levels",
                     static_cast<std::int64_t>(h.level_count()));
  FTTT_OBS_GAUGE_SET("facemap.coarse.tiles",
                     static_cast<std::int64_t>(h.node_count(0)));
  FTTT_OBS_GAUGE_SET("facemap.coarse.bytes",
                     static_cast<std::int64_t>(h.bytes()));
  return h;
}

void HierFaceMap::check_range(std::size_t dim, std::size_t level, std::size_t lo,
                              std::size_t hi) const {
  if (dim != dimension_)
    throw std::invalid_argument("HierFaceMap: sampling vector dimension mismatch");
  if (level >= levels_.size() || lo > hi || hi > levels_[level].nodes)
    throw std::invalid_argument("HierFaceMap: node range outside level");
}

void HierFaceMap::lower_bounds_into(const SamplingVector& vd, std::size_t level,
                                    std::size_t lo, std::size_t hi,
                                    double* out) const {
  check_range(vd.dimension(), level, lo, hi);
  const std::size_t n = hi - lo;
  // Per-node sums accumulate in ascending pair order with the fine
  // kernel's rounding, so monotonicity of IEEE addition keeps every
  // bound at or below the exact accumulation it prunes against.
  std::fill(out, out + n, 0.0);
  for (std::size_t c = 0; c < dimension_; ++c) {
    if (!vd.known[c]) continue;  // '*' constrains nothing (Eq. 7)
    double lut[8];
    build_lut(vd.value[c], lut);
    const std::uint8_t* m = plane(level, c) + lo;
    for (std::size_t i = 0; i < n; ++i) out[i] += lut[m[i]];
  }
}

void HierFaceMap::lower_bounds_into(const IntegralView& view, std::size_t level,
                                    std::size_t lo, std::size_t hi,
                                    std::uint32_t* out) const {
  check_range(view.known.size(), level, lo, hi);
  FTTT_DCHECK(view.integral, "integer bounds of a non-integral vector");
  const std::size_t n = hi - lo;
  std::fill(out, out + n, 0u);
  for (std::size_t c = 0; c < dimension_; ++c) {
    if (!view.known[c]) continue;
    const std::uint32_t* lut =
        kIntMinTerm[static_cast<std::size_t>(view.value[c] + 1)].data();
    const std::uint8_t* m = plane(level, c) + lo;
    for (std::size_t i = 0; i < n; ++i) out[i] += lut[m[i]];
  }
}

std::size_t HierFaceMap::bytes() const {
  std::size_t total = 0;
  for (const Level& l : levels_) total += l.masks.size();
  return total;
}

}  // namespace fttt
