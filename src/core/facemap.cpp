#include "core/facemap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "common/check.hpp"
#include "core/pairs.hpp"
#include "core/similarity.hpp"

namespace fttt {

namespace facemap_detail {

void validate_build_inputs(const Deployment& nodes, double C, const char* what) {
  if (nodes.size() < 2)
    throw std::invalid_argument(std::string(what) + ": need at least two sensors");
  if (C < 1.0) throw std::invalid_argument(std::string(what) + ": C must be >= 1");
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].id != i)
      throw std::invalid_argument(std::string(what) + ": node ids must be dense 0..n-1");
}

std::vector<std::vector<FaceId>> derive_adjacency(const UniformGrid& grid,
                                                  const std::vector<FaceId>& cell_face,
                                                  std::size_t face_count) {
  // Right and up neighbors suffice to see every adjacent cell pair once.
  // Duplicate links are collected freely and deduplicated by one
  // sort+unique — far cheaper than per-link hashing on the ~O(boundary)
  // link count, and the sorted order makes every face's list come out
  // ascending without a per-face sort.
  std::vector<std::uint64_t> links;
  links.reserve(face_count * 4);
  const int cols = grid.cols();
  const int rows = grid.rows();
  for (int j = 0; j < rows; ++j) {
    const std::size_t base = grid.flatten({0, j});
    for (int i = 0; i < cols; ++i) {
      const FaceId a = cell_face[base + static_cast<std::size_t>(i)];
      if (i + 1 < cols) {
        const FaceId b = cell_face[base + static_cast<std::size_t>(i) + 1];
        if (a != b)
          links.push_back((static_cast<std::uint64_t>(std::min(a, b)) << 32) |
                          std::max(a, b));
      }
      if (j + 1 < rows) {
        const FaceId b =
            cell_face[base + static_cast<std::size_t>(cols) + static_cast<std::size_t>(i)];
        if (a != b)
          links.push_back((static_cast<std::uint64_t>(std::min(a, b)) << 32) |
                          std::max(a, b));
      }
    }
  }
  return adjacency_from_links(std::move(links), face_count);
}

std::vector<std::vector<FaceId>> adjacency_from_links(std::vector<std::uint64_t>&& links,
                                                      std::size_t face_count) {
  AdjacencyScratch scratch;
  std::vector<std::vector<FaceId>> adjacency;
  adjacency_from_links_into(links, face_count, scratch, adjacency);
  return adjacency;
}

void adjacency_from_links_into(const std::vector<std::uint64_t>& links,
                               std::size_t face_count, AdjacencyScratch& scratch,
                               std::vector<std::vector<FaceId>>& out) {
  // Counting scatter: bucket every link's larger face under its smaller
  // face. Buckets are tiny (a face borders a handful of others), so the
  // per-bucket sort below is effectively an insertion sort.
  std::vector<std::uint32_t>& starts = scratch.starts;
  std::vector<std::uint32_t>& ends = scratch.ends;
  std::vector<FaceId>& larger = scratch.larger;
  starts.assign(face_count + 1, 0);
  for (const std::uint64_t packed : links) ++starts[(packed >> 32) + 1];
  for (std::size_t f = 0; f < face_count; ++f) starts[f + 1] += starts[f];
  larger.resize(links.size());
  ends.assign(starts.begin(), starts.begin() + static_cast<std::ptrdiff_t>(face_count));
  for (const std::uint64_t packed : links)
    larger[ends[packed >> 32]++] = static_cast<FaceId>(packed & 0xFFFFFFFFULL);
  for (std::size_t f = 0; f < face_count; ++f) {
    FaceId* bucket = larger.data() + starts[f];
    FaceId* bucket_end = larger.data() + ends[f];
    std::sort(bucket, bucket_end);
    ends[f] = static_cast<std::uint32_t>(
        starts[f] + (std::unique(bucket, bucket_end) - bucket));
  }

  // Shrinking resize destroys surplus lists; growing one default-constructs
  // the new tail. Surviving lists keep their heap blocks and are refilled
  // below, so a steady-state caller reallocates nothing.
  out.resize(face_count);
  for (auto& list : out) list.clear();
  // Walking the buckets in ascending smaller-face order visits the links
  // in the (min, max)-sorted order the old global sort produced, so the
  // same two passes keep each list ascending: first every face's smaller
  // neighbors (the bucket transpose), then its larger neighbors.
  for (std::size_t f = 0; f < face_count; ++f)
    for (std::uint32_t i = starts[f]; i < ends[f]; ++i)
      out[larger[i]].push_back(static_cast<FaceId>(f));
  for (std::size_t f = 0; f < face_count; ++f)
    out[f].insert(out[f].end(), larger.data() + starts[f], larger.data() + ends[f]);
}

}  // namespace facemap_detail

FaceMap FaceMap::build(const Deployment& nodes, double C, const Aabb& field,
                       double cell_size, ThreadPool& pool) {
  facemap_detail::validate_build_inputs(nodes, C, "FaceMap::build");
  const UniformGrid grid(field, cell_size);
  const std::size_t cells = grid.cell_count();

  // Phase 1 (parallel): signature of every cell center.
  std::vector<SignatureVector> cell_sig(cells);
  parallel_for(0, cells,
               [&](std::size_t flat) {
                 cell_sig[flat] = signature_at(grid.center(flat), nodes, C);
               },
               pool);
  return from_cells(nodes, C, grid, std::move(cell_sig));
}

FaceMap FaceMap::from_cells(const Deployment& nodes, double C, UniformGrid grid,
                            std::vector<SignatureVector>&& cell_sig) {
  facemap_detail::validate_build_inputs(nodes, C, "FaceMap::from_cells");
  if (cell_sig.size() != grid.cell_count())
    throw std::invalid_argument("FaceMap::from_cells: signature count != cell count");

  FaceMap map(grid, nodes, C);
  const std::size_t cells = grid.cell_count();

  // Phase 2 (sequential): dedup signatures into faces, accumulate
  // centroids. Face ids are assigned in cell scan order, so the id
  // assignment is deterministic. The dedup table is keyed by the FNV
  // hash of a signature, with the (rare) hash-bucket candidates compared
  // against their face's stored signature — moving whole
  // SignatureVectors through an unordered_map as keys re-hashed the full
  // vector on every lookup and was the grouping hot spot.
  const std::size_t dim = pair_count(nodes.size());
  std::unordered_map<std::size_t, std::vector<FaceId>> face_of;
  face_of.reserve(cells / 4);
  map.cell_face_.resize(cells);
  std::vector<Vec2> centroid_sum;
  for (std::size_t flat = 0; flat < cells; ++flat) {
    // Defs. 4-6: every cell signature spans exactly the C(n,2) canonical
    // pairs, or face dedup would conflate vectors of different spaces.
    FTTT_DCHECK(cell_sig[flat].size() == dim, "cell ", flat,
                " signature dimension ", cell_sig[flat].size(), " != ", dim);
    SignatureVector& sig = cell_sig[flat];
    std::vector<FaceId>& bucket = face_of[signature_hash(sig)];
    FaceId id = static_cast<FaceId>(map.faces_.size());
    for (FaceId candidate : bucket) {
      if (map.faces_[candidate].signature == sig) {
        id = candidate;
        break;
      }
    }
    if (id == map.faces_.size()) {
      // Def. 6: components are trits. Checked once per emitted face —
      // every later cell of the face carries the same signature — since
      // the matchers' exact integer kernels rely on it (docs/matching.md).
      for (const SigValue v : sig)
        if (v < -1 || v > 1)
          throw std::invalid_argument(
              "FaceMap::from_cells: signature component outside {-1, 0, +1}");
      bucket.push_back(id);
      map.faces_.push_back(Face{id, std::move(sig), Vec2{}, 0});
      centroid_sum.push_back(Vec2{});
    }
    map.cell_face_[flat] = id;
    centroid_sum[id] += grid.center(flat);
    ++map.faces_[id].cell_count;
  }
  // Lemma 1: the signature -> face map is a bijection. Bucketed
  // candidates are compared on the full signature, so distinct
  // signatures never share a face; the id/count bookkeeping must have
  // stayed consistent with the bucket table.
  FTTT_CHECK(!map.faces_.empty(), "face grouping produced no faces for ",
             cells, " cells");
  for (Face& f : map.faces_) {
    FTTT_DCHECK(f.cell_count > 0, "face ", f.id, " owns no cells");
    f.centroid = centroid_sum[f.id] / static_cast<double>(f.cell_count);
  }

  // Phase 3: neighbor-face links from 4-adjacency of cells.
  map.adjacency_ = facemap_detail::derive_adjacency(grid, map.cell_face_,
                                                    map.faces_.size());

  return map;
}

FaceId FaceMap::face_at(Vec2 p) const {
  if (!grid_.extent().contains(p))
    throw std::out_of_range("FaceMap::face_at: point outside the field extent");
  return cell_face_[grid_.flatten(grid_.locate(p))];
}

std::size_t FaceMap::dimension() const { return pair_count(nodes_.size()); }

double FaceMap::theorem1_link_fraction() const {
  std::size_t links = 0;
  std::size_t unit = 0;
  for (const Face& f : faces_) {
    for (FaceId nb : adjacency_[f.id]) {
      if (nb < f.id) continue;  // count each link once
      ++links;
      const double d = vector_distance(f.signature, faces_[nb].signature);
      if (std::abs(d - 1.0) < 1e-12) ++unit;
    }
  }
  return links > 0 ? static_cast<double>(unit) / static_cast<double>(links) : 1.0;
}

std::size_t FaceMap::bytes() const {
  std::size_t total = cell_face_.size() * sizeof(FaceId);
  for (const Face& f : faces_)
    total += sizeof(Face) + f.signature.size() * sizeof(SigValue);
  for (const std::vector<FaceId>& list : adjacency_)
    total += sizeof(std::vector<FaceId>) + list.size() * sizeof(FaceId);
  return total;
}

}  // namespace fttt
