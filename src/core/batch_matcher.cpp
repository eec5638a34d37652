#include "core/batch_matcher.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_index.hpp"
#include "core/similarity.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {

const FaceMap& require_map(const std::shared_ptr<const FaceMap>& map) {
  if (!map) throw std::invalid_argument("BatchMatcher: null face map");
  return *map;
}

// Function multi-versioning for the hot kernels. The release build targets
// baseline x86-64 (SSE2); these loops are pure element-wise double math, so
// the wider AVX2/AVX-512 clones stay bit-identical to the default one: IEEE
// subtract, multiply, add, sqrt and divide are correctly rounded in every
// lane, and this TU compiles with -ffp-contract=off (see core/CMakeLists.txt)
// so no clone fuses d*d + acc into an FMA. The loader's ifunc resolver picks
// the widest ISA the CPU supports.
//
// TSan is incompatible with ifunc dispatch (the resolver runs before the
// sanitizer runtime is initialized and segfaults at load), so thread-
// sanitized builds keep the single baseline version.
#if defined(__SANITIZE_THREAD__)
#define FTTT_NO_VECTOR_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FTTT_NO_VECTOR_CLONES 1
#endif
#endif
#if defined(__x86_64__) && defined(__gnu_linux__) && \
    defined(__has_attribute) && !defined(FTTT_NO_VECTOR_CLONES)
#if __has_attribute(target_clones)
#define FTTT_VECTOR_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#define FTTT_HAS_VECTOR_CLONES 1
#endif
#endif
#ifndef FTTT_VECTOR_CLONES
#define FTTT_VECTOR_CLONES
#define FTTT_HAS_VECTOR_CLONES 0
#endif

/// acc[f] += (v - p[f])^2 over one plane segment. `__restrict` holds by
/// construction: `acc` is per-call scratch, `p` the immutable table.
FTTT_VECTOR_CLONES
void accumulate_plane(double* __restrict acc, const SigValue* __restrict p,
                      double v, std::size_t len) {
  for (std::size_t f = 0; f < len; ++f) {
    const double d = v - static_cast<double>(p[f]);
    acc[f] += d * d;
  }
}

/// In-place acc[f] -> similarity_from_distance(sqrt(acc[f])). Bit-identical
/// to the scalar transform: acc is a sum of squares, so sqrt(acc) is +0 or
/// positive, and 1.0 / +0 == +inf is exactly what similarity_from_distance
/// returns for a zero distance; for positive distances the expressions
/// agree literally.
FTTT_VECTOR_CLONES
void similarity_in_place(double* __restrict acc, std::size_t len) {
  for (std::size_t f = 0; f < len; ++f) acc[f] = 1.0 / std::sqrt(acc[f]);
}

/// Faces per block of the exact flat scan: the block's uint16
/// accumulators (4 KiB) plus one plane segment (2 KiB) stay L1-resident.
/// A multiple of SignatureTable::kBlock, so blocks never split a tile.
constexpr std::size_t kExactBlock = 2048;
static_assert(kExactBlock % SignatureTable::kBlock == 0);

/// Mixed planes the tile rescore prefetches ahead of the one it sums:
/// consecutive mixed planes sit a whole plane stride apart, a pattern
/// the hardware prefetcher does not follow.
constexpr std::size_t kPrefetchPlanes = 8;

/// Exact squared distances of one block of face columns:
/// acc[f] = sum over known planes c of (value[c] - plane_c[f])^2 for f
/// in [0, len), where plane_c starts at col + c * stride. Every term is
/// 0, 1 or 4 and the table's dimension is at most kExactMaxPlanes, so
/// the uint16 lanes never wrap and hold the exact integer the double
/// kernel rounds to (docs/matching.md).
FTTT_VECTOR_CLONES
void exact_block(std::uint16_t* __restrict acc, const SigValue* __restrict col,
                 std::size_t stride, const std::int8_t* __restrict value,
                 const std::uint8_t* __restrict known, std::size_t dim,
                 std::size_t len) {
  std::fill_n(acc, len, std::uint16_t{0});
  for (std::size_t c = 0; c < dim; ++c) {
    if (!known[c]) continue;  // Eq. 7 '*': skip the whole plane
    const SigValue* __restrict p = col + c * stride;
    const int v = value[c];
    for (std::size_t f = 0; f < len; ++f) {
      const int d = v - p[f];
      acc[f] = static_cast<std::uint16_t>(acc[f] + d * d);
    }
  }
}

/// The exact flat scan: exact_block over every block of `table`'s face
/// columns, in ascending face order, handing each block's distances to
/// consume(acc, len, first_face).
template <typename Consume>
void scan_exact(const SignatureTable& table, const IntegralView& view, Consume consume) {
  const std::size_t padded = table.padded_faces();
  alignas(64) std::array<std::uint16_t, kExactBlock> acc;
  for (std::size_t lo = 0; lo < padded; lo += kExactBlock) {
    const std::size_t len = std::min(kExactBlock, padded - lo);
    exact_block(acc.data(), table.plane(0) + lo, padded, view.value.data(),
                view.known.data(), table.dimension(), len);
    consume(acc.data(), len, lo);
  }
}

/// Smallest squared term (v - s)^2 over the signature values s a
/// HierFaceMap mask holds, for one integral component v:
/// HierFaceMap::kIntMinTerm[v + 1][mask], written as byte operations
/// the kernels below vectorize over a row of masks (a table lookup per
/// lane does not vectorize).
struct MinTerm {
  std::uint8_t own;   ///< value bit of s == v: term 0
  std::uint8_t near;  ///< value bits with |v - s| == 1: term 1
  std::uint8_t far;   ///< value bit with |v - s| == 2: term 4

  explicit constexpr MinTerm(int v)
      : own(static_cast<std::uint8_t>(1u << (v + 1))),
        near(v == 0 ? std::uint8_t{5} : std::uint8_t{2}),
        far(v == 0 ? std::uint8_t{0} : static_cast<std::uint8_t>(1u << (1 - v))) {}

  constexpr std::uint8_t operator()(std::uint8_t mask) const {
    const std::uint8_t one = (mask & near) ? 1 : 0;
    const std::uint8_t four = (mask & far) ? 4 : 0;
    const std::uint8_t keep = (mask & own) ? 0 : 0xFF;
    // one | four unless `near` matched: (one - 1) is 0 then, 0xFF else.
    return static_cast<std::uint8_t>(keep & (one | (four & static_cast<std::uint8_t>(one - 1))));
  }
};
static_assert([] {
  for (int v = -1; v <= 1; ++v)
    for (unsigned m = 0; m < 8; ++m)
      if (MinTerm(v)(static_cast<std::uint8_t>(m)) !=
          HierFaceMap::kIntMinTerm[static_cast<std::size_t>(v + 1)][m])
        return false;
  return true;
}());

/// The exact-path base of one node: its bound minus the minimum terms
/// of its own masks (masks[c * stride]) on the known `planes`. The
/// bound summed a minimum term on every known plane and the other
/// planes' terms are shared by everything under the node, so adding
/// back the per-lane terms of `planes` gives each lane's exact value.
std::uint16_t node_base(std::uint32_t bound, const std::uint8_t* masks, std::size_t stride,
                        std::span<const std::uint32_t> planes, const std::int8_t* value,
                        const std::uint8_t* known) {
  for (const std::uint32_t c : planes)
    if (known[c])
      bound -= HierFaceMap::kIntMinTerm[static_cast<std::size_t>(value[c] + 1)]
                                       [masks[c * stride]];
  return static_cast<std::uint16_t>(bound);
}

/// Delta expansion of one node on the exact path: acc[j] = base + the
/// minimum terms child j's masks (child + c * stride) permit on the
/// known `planes`, for all kFanout children (a short last node's pad
/// children read zero masks; the caller ignores them).
FTTT_VECTOR_CLONES
void exact_children(std::uint16_t* __restrict acc, std::uint16_t base,
                    const std::uint8_t* __restrict child, std::size_t stride,
                    const std::uint32_t* planes, std::size_t n,
                    const std::int8_t* __restrict value,
                    const std::uint8_t* __restrict known) {
  for (std::size_t j = 0; j < HierFaceMap::kFanout; ++j) acc[j] = base;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = planes[i];
    if (!known[c]) continue;
    const std::uint8_t* __restrict m = child + c * stride;
    const MinTerm term(value[c]);
    for (std::size_t j = 0; j < HierFaceMap::kFanout; ++j)
      acc[j] = static_cast<std::uint16_t>(acc[j] + term(m[j]));
  }
}

/// One descent tile of exact distances: acc[k] = base + the squared
/// terms of the known `planes` at face column col[k], for all kTileFaces
/// lanes (a tile is one padding block, so the lanes past a short last
/// tile read pad columns and are ignored by the caller). Same uint16
/// bound as exact_block: base plus the mixed terms is the face's full
/// distance^2.
FTTT_VECTOR_CLONES
void exact_tile(std::uint16_t* __restrict acc, std::uint16_t base,
                const SigValue* __restrict col, std::size_t stride,
                const std::uint32_t* planes, std::size_t n,
                const std::int8_t* __restrict value,
                const std::uint8_t* __restrict known) {
  for (std::size_t k = 0; k < HierFaceMap::kTileFaces; ++k) acc[k] = base;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchPlanes < n)
      __builtin_prefetch(col + planes[i + kPrefetchPlanes] * stride);
    const std::uint32_t c = planes[i];
    if (!known[c]) continue;
    const SigValue* __restrict p = col + c * stride;
    const int v = value[c];
    for (std::size_t k = 0; k < HierFaceMap::kTileFaces; ++k) {
      const int d = v - p[k];
      acc[k] = static_cast<std::uint16_t>(acc[k] + d * d);
    }
  }
}

/// Smallest of acc[0 .. len) (len >= 1).
FTTT_VECTOR_CLONES
std::uint16_t min_of(const std::uint16_t* __restrict acc, std::size_t len) {
  std::uint16_t m = acc[0];
  for (std::size_t f = 1; f < len; ++f) m = acc[f] < m ? acc[f] : m;
  return m;
}

/// out[f] = 1 / sqrt(acc[f]): the similarity of an exact distance^2,
/// bit-identical to the double kernels' transform (the conversion to
/// double is exact).
FTTT_VECTOR_CLONES
void similarity_from_exact(double* __restrict out, const std::uint16_t* __restrict acc,
                           std::size_t len) {
  for (std::size_t f = 0; f < len; ++f)
    out[f] = 1.0 / std::sqrt(static_cast<double>(acc[f]));
}

/// Similarity of one exact distance^2 (+inf for 0, like
/// similarity_from_distance).
double exact_similarity(std::uint32_t dist2) {
  return 1.0 / std::sqrt(static_cast<double>(dist2));
}

/// Merge one block of exact distances into a running (minimum, ties)
/// selection: `best` and `ties` describe the faces seen so far, the
/// block covers faces [first, first + len). Blocks must arrive in
/// ascending face order for `ties` to stay sorted.
void select_exact(const std::uint16_t* acc, std::size_t len, std::size_t first,
                  std::uint32_t& best, std::vector<FaceId>& ties) {
  const std::uint16_t m = min_of(acc, len);
  if (m > best) return;
  if (m < best) {
    best = m;
    ties.clear();
  }
  for (std::size_t f = 0; f < len; ++f)
    if (acc[f] == m) ties.push_back(static_cast<FaceId>(first + f));
}

/// Algorithm 2's steepest ascent from `start` (HeuristicMatcher::match's
/// traversal: neighbors in ascending id order, move only on a strict
/// improvement). `score(face)` rates a face and `better(a, b)` says
/// whether rating a strictly beats rating b. Returns the final face and
/// its rating; counts examined faces into `r` and moves into `steps`.
template <typename Score, typename Better>
auto ascend(const FaceMap& map, FaceId start, Score score, Better better,
            MatchResult& r, std::uint64_t& steps) {
  FaceId current = start;
  auto s_current = score(current);
  ++r.faces_examined;
  for (;;) {
    FaceId best_neighbor = current;
    auto s_best = s_current;
    for (FaceId nb : map.neighbors(current)) {
      ++r.faces_examined;
      const auto s = score(nb);
      if (better(s, s_best)) {
        s_best = s;
        best_neighbor = nb;
      }
    }
    if (best_neighbor == current) break;
    current = best_neighbor;
    s_current = s_best;
    ++steps;
  }
  return std::make_pair(current, s_current);
}

}  // namespace

/// Reusable per-worker state of one localization: the vector's integral
/// view, the flat double path's accumulators, and the descent's
/// best-first frontier, child-bound staging, tie list and one tile of
/// accumulators. Kept out of the header so HierFaceMap stays a forward
/// declaration there.
struct BatchMatcher::Scratch {
  struct Node {
    double bound;         ///< conservative lower bound on distance^2
    std::uint32_t level;  ///< pyramid level (0 = tile)
    std::uint32_t id;     ///< node id within the level
  };

  IntegralView view;
  std::vector<double> acc;  ///< flat double path: padded_faces() accumulators
  std::vector<Node> heap;
  std::vector<FaceId> ties;  ///< faces at the running best, in rescore order
  // One expansion stages at most kFanout children (the top level holds
  // at most kFanout nodes too); one tile is kTileFaces lanes.
  std::array<double, HierFaceMap::kFanout> bounds;
  alignas(64) std::array<std::uint32_t, HierFaceMap::kFanout> top;
  alignas(64) std::array<std::uint16_t, HierFaceMap::kFanout> ibounds;
  std::array<double, HierFaceMap::kTileFaces> tile;
  alignas(64) std::array<std::uint16_t, HierFaceMap::kTileFaces> tile16;
};

BatchMatcher::BatchMatcher(std::shared_ptr<const FaceMap> map,
                           std::shared_ptr<const SignatureTable> table, Config config,
                           ThreadPool& pool)
    : map_(std::move(map)), config_(config), pool_(&pool), table_(std::move(table)) {
  const FaceMap& m = require_map(map_);
  if (!table_)
    table_ = std::make_shared<const SignatureTable>(m);
  else if (table_->face_count() != m.face_count() || table_->dimension() != m.dimension())
    throw std::invalid_argument("BatchMatcher: signature table does not match map");
  FTTT_CHECK(config_.face_block > 0, "BatchMatcher: zero face_block");
  FTTT_OBS_GAUGE_SET("matcher.kernel.clones", FTTT_HAS_VECTOR_CLONES);
}

bool BatchMatcher::exact(const SamplingVector& vd, IntegralView& view) const {
  return view.assign(vd) && table_->dimension() <= kExactMaxPlanes;
}

void BatchMatcher::match_into(const SamplingVector& vd, Scratch& s,
                              MatchResult& out) const {
  FTTT_DCHECK(vd.dimension() == table_->dimension(),
              "sampling vector dimension ", vd.dimension(),
              " != face-map dimension ", table_->dimension());
  if (hier_) {
    descend_into(vd, s, out);
    return;
  }
  FTTT_OBS_COUNT("matcher.planes.skipped", vd.unknown_count());
  const std::size_t faces = table_->face_count();
  out = MatchResult{};
  out.faces_examined = faces;
  if (exact(vd, s.view)) {
    // Selection on the integers: the minimum distance^2 is the maximum
    // similarity and equal integers are equal similarities (distinct
    // ones never collide), so this is the spec's chain — max, ties in
    // ascending face order — with one 1/sqrt for the winner.
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    scan_exact(*table_, s.view,
               [&](const std::uint16_t* acc, std::size_t len, std::size_t lo) {
                 select_exact(acc, std::min(len, faces - lo), lo, best, out.tied_faces);
               });
    out.similarity = exact_similarity(best);
  } else {
    s.acc.resize(table_->padded_faces());
    similarities_double(vd, s.view, s.acc.data());
    // Selection yields exactly what ExhaustiveMatcher::match's running
    // compare chain yields — the chain computes max similarity with
    // ties in ascending face order — restructured into a vectorizable
    // transform pass followed by a max scan and a tie sweep over the
    // same values.
    const double* acc = s.acc.data();
    double best = -1.0;
    for (std::size_t f = 0; f < faces; ++f)
      if (acc[f] > best) best = acc[f];
    out.similarity = best;
    for (std::size_t f = 0; f < faces; ++f)
      if (acc[f] == best) out.tied_faces.push_back(static_cast<FaceId>(f));
  }
  detail::finalize_match(*map_, out);
}

void BatchMatcher::similarities_double(const SamplingVector& vd, const IntegralView& view,
                                       double* acc) const {
  const std::size_t padded = table_->padded_faces();
  const std::size_t dim = table_->dimension();
  std::fill(acc, acc + padded, 0.0);

  // Blocked plane-major accumulation: per column block (acc slice + one
  // plane segment L1-resident), stream every known plane. Within a face,
  // squared terms add in ascending pair order — the exact floating-point
  // operation sequence of the scalar vector_distance — so the equivalence
  // contract holds to the bit. The kernel vectorizes across faces, which
  // never reassociates a single face's sum.
  for (std::size_t lo = 0; lo < padded; lo += config_.face_block) {
    const std::size_t len = std::min(config_.face_block, padded - lo);
    for (std::size_t c = 0; c < dim; ++c) {
      if (!view.known[c]) continue;  // Eq. 7 '*': skip the whole plane
      accumulate_plane(acc + lo, table_->plane(c) + lo, vd.value[c], len);
    }
  }
  // The in-place transform covers the padded width so similarities_into
  // callers and the match selection share one kernel; pad slots transform
  // garbage accumulator values and are never read.
  similarity_in_place(acc, padded);
}

void BatchMatcher::similarities_into(const SamplingVector& vd, std::span<double> out) const {
  require_dimension(vd);
  if (out.size() < table_->padded_faces())
    throw std::invalid_argument("BatchMatcher::similarities_into: output too small");
  FTTT_OBS_COUNT("matcher.planes.skipped", vd.unknown_count());
  IntegralView view;
  if (!exact(vd, view)) {
    similarities_double(vd, view, out.data());
    return;
  }
  scan_exact(*table_, view, [&](const std::uint16_t* acc, std::size_t len, std::size_t lo) {
    similarity_from_exact(out.data() + lo, acc, len);
  });
}

MatchResult BatchMatcher::select_from(std::span<const double> scores) const {
  const std::size_t faces = table_->face_count();
  if (scores.size() < faces)
    throw std::invalid_argument("BatchMatcher::select_from: scores span too small");
  // The double path's selection sequence of match_into, verbatim, over
  // caller-supplied similarities.
  double best = -1.0;
  for (std::size_t f = 0; f < faces; ++f)
    if (scores[f] > best) best = scores[f];
  MatchResult out;
  out.similarity = best;
  out.faces_examined = faces;
  for (std::size_t f = 0; f < faces; ++f)
    if (scores[f] == best) out.tied_faces.push_back(static_cast<FaceId>(f));
  detail::finalize_match(*map_, out);
  return out;
}

void BatchMatcher::require_dimension(const SamplingVector& vd) const {
  // Public-API guard kept in release builds, mirroring the scalar path
  // (vector_distance throws the same type); the per-vector hot loop in
  // match_into keeps only a DCHECK.
  if (vd.dimension() != table_->dimension())
    throw std::invalid_argument("BatchMatcher: sampling vector dimension mismatch");
}

MatchResult BatchMatcher::match_one(const SamplingVector& vd) const {
  if (hier_) return descend(vd);
  FTTT_OBS_SPAN("matcher.match_one");
  require_dimension(vd);
  Scratch s;
  MatchResult r;
  match_into(vd, s, r);
  return r;
}

void BatchMatcher::build_hierarchy() {
  if (hier_) return;
  auto hier = std::make_shared<const HierFaceMap>(HierFaceMap::build(*table_, *pool_));
  auto index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*hier, *pool_));
  hier_ = std::move(hier);
  index_ = std::move(index);
}

void BatchMatcher::attach_hierarchy(std::shared_ptr<const HierFaceMap> hier,
                                    std::shared_ptr<const SignatureIndex> index) {
  if (!hier || !index)
    throw std::invalid_argument("BatchMatcher::attach_hierarchy: null tier");
  if (hier->face_count() != table_->face_count() ||
      hier->dimension() != table_->dimension())
    throw std::invalid_argument(
        "BatchMatcher::attach_hierarchy: hierarchy does not match table");
  if (index->tile_count() != hier->node_count(0) ||
      index->dimension() != hier->dimension() ||
      index->level_count() != hier->level_count())
    throw std::invalid_argument(
        "BatchMatcher::attach_hierarchy: index does not match hierarchy");
  hier_ = std::move(hier);
  index_ = std::move(index);
}

MatchResult BatchMatcher::descend(const SamplingVector& vd) const {
  if (!hier_)
    throw std::logic_error("BatchMatcher::descend: no hierarchy — build_hierarchy() first");
  FTTT_OBS_SPAN("matcher.index.descend");
  require_dimension(vd);
  Scratch s;
  MatchResult r;
  descend_into(vd, s, r);
  return r;
}

void BatchMatcher::descend_into(const SamplingVector& vd, Scratch& s,
                                MatchResult& out) const {
  FTTT_DCHECK(vd.dimension() == table_->dimension(),
              "sampling vector dimension ", vd.dimension(),
              " != face-map dimension ", table_->dimension());
  const HierFaceMap& hier = *hier_;
  const SignatureIndex& index = *index_;
  const std::size_t faces = table_->face_count();
  const std::size_t dim = table_->dimension();
  const std::size_t padded = table_->padded_faces();

  // Basic-mode vectors (every known component in {-1, 0, +1}) run the
  // whole descent on exact integers: bounds, pruning, tile rescores and
  // selection. Every other vector keeps the double kernels.
  const bool integral = exact(vd, s.view);
  const std::int8_t* iv = s.view.value.data();
  const std::uint8_t* known = s.view.known.data();

  // Min-heap on (bound, level, id): the bound orders the best-first
  // search, the (level, id) tail makes the pop sequence a total order —
  // one deterministic descent per vector at any thread count.
  const auto later = [](const Scratch::Node& a, const Scratch::Node& b) {
    if (a.bound != b.bound) return a.bound > b.bound;
    if (a.level != b.level) return a.level > b.level;
    return a.id > b.id;
  };
  s.heap.clear();
  s.ties.clear();
  const auto push = [&](double bound, std::uint32_t level, std::size_t id) {
    s.heap.push_back({bound, level, static_cast<std::uint32_t>(id)});
    std::push_heap(s.heap.begin(), s.heap.end(), later);
  };

  const std::uint32_t top = static_cast<std::uint32_t>(hier.level_count() - 1);
  {
    const std::size_t n = hier.node_count(top);
    FTTT_DCHECK(n <= HierFaceMap::kFanout, "top level holds ", n, " nodes");
    if (integral) {
      hier.lower_bounds_into(s.view, top, 0, n, s.top.data());
      for (std::size_t i = 0; i < n; ++i) push(s.top[i], top, i);
    } else {
      hier.lower_bounds_into(vd, top, 0, n, s.bounds.data());
      for (std::size_t i = 0; i < n; ++i) push(s.bounds[i], top, i);
    }
  }

  // The running selection: the spec's chain seed (matcher.cpp) on the
  // double path, "no face yet" on the integer path.
  double s_best = -1.0;
  std::uint32_t d_best = std::numeric_limits<std::uint32_t>::max();
  std::size_t rescored = 0;
  std::size_t pruned = 0;
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), later);
    const Scratch::Node nd = s.heap.back();
    s.heap.pop_back();

    // Subtree ceiling: every covered face's exact distance^2 accumulates
    // at or above nd.bound (monotone rounding, see hier_facemap.hpp).
    // Pruning is strict — a face tied with the running best must never
    // be dropped. On the integer path the test is bound > best distance^2
    // (1/sqrt is strictly decreasing and injective on these integers);
    // on the double path it compares similarities, since two distinct
    // distances can round to equal similarities. A zero bound (all-'*'
    // vector, or a tile containing a perfect match) never prunes.
    const bool beneath = integral
                             ? static_cast<std::uint32_t>(nd.bound) > d_best
                             : 1.0 / std::sqrt(nd.bound) < s_best;
    if (beneath) {
      // The heap holds only nodes with bounds >= nd.bound: everything
      // left is beneath the running best too.
      pruned = s.heap.size() + 1;
      break;
    }

    if (nd.level > 0) {
      const std::size_t lo = static_cast<std::size_t>(nd.id) * HierFaceMap::kFanout;
      const std::size_t hi =
          std::min(hier.node_count(nd.level - 1), lo + HierFaceMap::kFanout);
      const std::size_t n = hi - lo;
      if (integral) {
        // Delta expansion: on every plane uniform across the children,
        // each child's mask equals the parent's, so each child pays the
        // parent's minimum term — already summed into nd.bound. Strip
        // the varying planes' parent minima from the parent bound and
        // add back each child's own minima; integer arithmetic end to
        // end, so these are the very bounds a direct full-dimension
        // pass computes, at the cost of only the varying planes.
        FTTT_DCHECK(static_cast<double>(static_cast<std::uint32_t>(nd.bound)) == nd.bound,
                    "integral node bound is not integer: ", nd.bound);
        const std::span<const std::uint32_t> varying =
            index.varying_planes(nd.level, nd.id);
        const std::uint16_t base =
            node_base(static_cast<std::uint32_t>(nd.bound), hier.plane(nd.level, 0) + nd.id,
                      hier.plane_stride(nd.level), varying, iv, known);
        exact_children(s.ibounds.data(), base, hier.plane(nd.level - 1, 0) + lo,
                       hier.plane_stride(nd.level - 1), varying.data(), varying.size(), iv,
                       known);
        for (std::size_t j = 0; j < n; ++j) push(s.ibounds[j], nd.level - 1, lo + j);
      } else {
        hier.lower_bounds_into(vd, nd.level - 1, lo, hi, s.bounds.data());
        for (std::size_t j = 0; j < n; ++j) push(s.bounds[j], nd.level - 1, lo + j);
      }
      continue;
    }

    // Level 0: exact rescore of the tile's face segment, merged into the
    // running best and its tie list.
    const std::size_t f0 = static_cast<std::size_t>(nd.id) * HierFaceMap::kTileFaces;
    const std::size_t width = std::min(faces, f0 + HierFaceMap::kTileFaces) - f0;
    rescored += width;
    if (integral) {
      // The tile bound summed min terms over *all* known planes; pure
      // planes' minima are the exact terms every covered face pays, so
      // subtracting the mixed minima leaves the exact shared base, and
      // only the mixed planes need the per-face kernel.
      FTTT_DCHECK(static_cast<double>(static_cast<std::uint32_t>(nd.bound)) == nd.bound,
                  "integral tile bound is not integer: ", nd.bound);
      const std::span<const std::uint32_t> mixed = index.mixed_planes(nd.id);
      const std::uint16_t base =
          node_base(static_cast<std::uint32_t>(nd.bound), hier.plane(0, 0) + nd.id,
                    hier.plane_stride(0), mixed, iv, known);
      exact_tile(s.tile16.data(), base, table_->plane(0) + f0, padded, mixed.data(),
                 mixed.size(), iv, known);
      // Tiles pop in bound order, not face order: the ties are sorted
      // once below.
      select_exact(s.tile16.data(), width, f0, d_best, s.ties);
    } else {
      // Off the exact path (extended-mode vectors, tables past
      // kExactMaxPlanes): the flat double kernels, restricted to this
      // tile — identical per-face operation sequence, so identical
      // similarities.
      std::fill_n(s.tile.data(), width, 0.0);
      for (std::size_t c = 0; c < dim; ++c) {
        if (!known[c]) continue;
        accumulate_plane(s.tile.data(), table_->plane(c) + f0, vd.value[c], width);
      }
      similarity_in_place(s.tile.data(), width);
      for (std::size_t k = 0; k < width; ++k) {
        const double sim = s.tile[k];
        if (sim > s_best) {
          s_best = sim;
          s.ties.clear();
        }
        if (sim == s_best) s.ties.push_back(static_cast<FaceId>(f0 + k));
      }
    }
  }

  FTTT_OBS_COUNT("matcher.index.descents", 1);
  FTTT_OBS_COUNT("matcher.index.scored_faces", rescored);
  FTTT_OBS_COUNT("matcher.index.pruned_subtrees", pruned);
  if (rescored == faces) FTTT_OBS_COUNT("matcher.index.full_scans", 1);

  // The spec's selection chain (max, then ties in ascending face ids)
  // over the rescored faces. Any face the descent never rescored is
  // strictly beneath the best by the pruning rule, so the chain's
  // outcome over this subset equals its outcome over all faces.
  out = MatchResult{};
  out.faces_examined = rescored;
  out.similarity = integral ? exact_similarity(d_best) : s_best;
  std::sort(s.ties.begin(), s.ties.end());
  out.tied_faces.assign(s.ties.begin(), s.ties.end());
  detail::finalize_match(*map_, out);
}

/// Shared bookkeeping of one batch fan-out. Bulk tasks may outlive the
/// match() call (they exit as soon as every chunk is claimed), so the
/// state is reference-counted and the matcher/batch/results pointers are
/// only dereferenced while a successfully claimed chunk is in flight —
/// which the caller's completion wait orders before return.
struct BatchMatcher::BatchState {
  const BatchMatcher* matcher{nullptr};
  const SamplingVector* const* batch{nullptr};
  MatchResult* results{nullptr};
  /// The batch size, snapshotted before submission: a straggler task that
  /// loses every chunk claim must not touch the caller-owned batch at all.
  std::size_t n{0};
  std::size_t chunks{0};
  std::size_t chunk_size{0};
  /// scratch[slot] is owned by bulk task `slot` (the caller uses the
  /// last slot); a task runs on exactly one worker, so no slot is shared.
  std::vector<Scratch> scratch;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  void run(std::size_t slot) {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = std::min(n, c * chunk_size);
      const std::size_t hi = std::min(n, lo + chunk_size);
      for (std::size_t i = lo; i < hi; ++i)
        matcher->match_into(*batch[i], scratch[slot], results[i]);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks)
        done.notify_all();
    }
  }
};

std::vector<MatchResult> BatchMatcher::match(
    const std::vector<SamplingVector>& batch) const {
  std::vector<const SamplingVector*> borrowed;
  borrowed.reserve(batch.size());
  for (const SamplingVector& vd : batch) borrowed.push_back(&vd);
  return match_each(borrowed);
}

std::vector<MatchResult> BatchMatcher::match_each(
    std::span<const SamplingVector* const> batch) const {
  std::vector<MatchResult> results(batch.size());
  if (batch.empty()) return results;
  FTTT_OBS_SPAN("matcher.batch");
  FTTT_OBS_COUNT("matcher.batch.vectors", batch.size());
  FTTT_OBS_HIST("matcher.batch.size", "vectors", batch.size());
  for (const SamplingVector* vd : batch) require_dimension(*vd);

  const std::size_t n = batch.size();
  const std::size_t workers = pool_->stopped() ? 1 : pool_->thread_count();
  if (n < config_.min_parallel_batch || workers <= 1) {
    Scratch s;
    for (std::size_t i = 0; i < n; ++i) match_into(*batch[i], s, results[i]);
    return results;
  }

  auto state = std::make_shared<BatchState>();
  state->matcher = this;
  state->batch = batch.data();
  state->results = results.data();
  state->n = n;
  state->chunks = std::min(n, workers * 4);
  state->chunk_size = (n + state->chunks - 1) / state->chunks;
  const std::size_t helpers = std::min(state->chunks - 1, workers);
  state->scratch.resize(helpers + 1);

  // One bulk submission — a single queue-mutex round-trip for the whole
  // fan-out. A rejected submission (pool concurrently shut down) is
  // harmless: the caller claims every chunk below.
  (void)pool_->submit_range(helpers,
                            [state](std::size_t slot) { state->run(slot); });
  state->run(helpers);  // caller participates with the last scratch slot

  std::size_t done = state->done.load(std::memory_order_acquire);
  while (done < state->chunks) {
    state->done.wait(done, std::memory_order_acquire);
    done = state->done.load(std::memory_order_acquire);
  }
  return results;
}

MatchResult BatchMatcher::climb(const SamplingVector& vd, FaceId start) const {
  IntegralView view;
  return climb_with(vd, start, view);
}

MatchResult BatchMatcher::climb_with(const SamplingVector& vd, FaceId start,
                                     IntegralView& view) const {
  FTTT_CHECK(start < table_->face_count(), "warm-start face ", start,
             " out of range (", table_->face_count(), " faces)");
  require_dimension(vd);
  FTTT_OBS_SPAN("matcher.climb");
  MatchResult r;
  std::uint64_t steps = 0;
  // Column walks (strided by padded_faces()) over the known planes. The
  // integer walk climbs on distance^2 — a strictly lower distance is a
  // strictly higher similarity, and equal integers are equal
  // similarities — so it moves exactly where the spec's similarity
  // compare moves; the double walk adds terms in the spec's order.
  const std::size_t dim = table_->dimension();
  const std::size_t stride = table_->padded_faces();
  const SigValue* base = table_->plane(0);
  const bool integral = exact(vd, view);
  const std::uint8_t* known = view.known.data();
  if (integral) {
    const std::int8_t* iv = view.value.data();
    const auto distance = [&](FaceId face) {
      const SigValue* col = base + face;
      std::uint32_t acc = 0;
      for (std::size_t c = 0; c < dim; ++c) {
        const int d = iv[c] - col[c * stride];
        acc += known[c] * static_cast<std::uint32_t>(d * d);
      }
      return acc;
    };
    const auto [face, d2] =
        ascend(*map_, start, distance, std::less<std::uint32_t>{}, r, steps);
    r.tied_faces.assign(1, face);
    r.similarity = exact_similarity(d2);
  } else {
    const auto similarity = [&](FaceId face) {
      const SigValue* col = base + face;
      double acc = 0.0;
      for (std::size_t c = 0; c < dim; ++c) {
        if (!known[c]) continue;
        const double d = vd.value[c] - static_cast<double>(col[c * stride]);
        acc += d * d;
      }
      return similarity_from_distance(std::sqrt(acc));
    };
    const auto [face, sim] =
        ascend(*map_, start, similarity, std::greater<double>{}, r, steps);
    r.tied_faces.assign(1, face);
    r.similarity = sim;
  }

  FTTT_OBS_COUNT("matcher.climb.steps", steps);
  FTTT_OBS_COUNT("matcher.climb.faces", r.faces_examined);
  detail::finalize_match(*map_, r);
  return r;
}

void BatchMatcher::localize(std::span<const LocalizeRequest> requests,
                            double fallback_similarity, std::vector<Localized>& out) const {
  out.resize(requests.size());
  IntegralView view;  // one view buffer for every climb of the batch
  std::vector<std::size_t> cold;  // requests the exhaustive pass resolves
  std::vector<const SamplingVector*> batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const LocalizeRequest& q = requests[i];
    Localized& l = out[i];
    l.warm = false;
    l.fell_back = false;
    if (q.start) {
      l.match = climb_with(*q.vd, *q.start, view);
      if (l.match.similarity >= fallback_similarity) {
        l.warm = true;
        continue;
      }
      l.fell_back = true;
    }
    cold.push_back(i);
    batch.push_back(q.vd);
  }
  if (batch.empty()) return;

  std::vector<MatchResult> full = match_each(batch);
  std::uint64_t won = 0;
  std::uint64_t kept_climb = 0;
  for (std::size_t k = 0; k < cold.size(); ++k) {
    Localized& l = out[cold[k]];
    if (!l.fell_back) {
      l.match = std::move(full[k]);
      continue;
    }
    // The retry wins only when strictly better than the climb.
    const std::size_t examined = l.match.faces_examined + full[k].faces_examined;
    if (full[k].similarity > l.match.similarity) {
      l.match = std::move(full[k]);
      ++won;
    } else {
      ++kept_climb;
    }
    l.match.faces_examined = examined;
  }
  FTTT_OBS_COUNT("localizer.fallback.won", won);
  FTTT_OBS_COUNT("localizer.fallback.kept_climb", kept_climb);
}

}  // namespace fttt
