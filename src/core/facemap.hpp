// Face map: the preprocessing product of FTTT (paper Sec. 4.3).
//
// The monitored field is rasterized into square cells (the paper's
// "Approximate Grid Division"); each cell's signature vector is computed
// against the deployment, cells sharing a signature form one *face*
// (Lemma 1), and each face gets
//   - a unique id,
//   - its signature vector,
//   - a centroid = mean of member-cell centers (Eq. 5), and
//   - neighbor-face links (Def. 8): faces owning 4-adjacent cells.
//
// Building with C == 1 degenerates to the perpendicular-bisector division
// used by the certain-sequence baselines (Fig. 3(a)); C > 1 gives the
// uncertain-boundary division (Fig. 3(b)).
//
// Signature computation is embarrassingly parallel over cells and runs on
// the shared thread pool.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/vec2.hpp"
#include "core/signature.hpp"
#include "geometry/grid.hpp"
#include "net/sensor.hpp"
#include "parallel/thread_pool.hpp"

namespace fttt {

/// Face identifier, dense in [0, face_count).
using FaceId = std::uint32_t;

/// One face of the divided field.
struct Face {
  FaceId id{0};
  SignatureVector signature;
  Vec2 centroid;              ///< Eq. 5: mean of member cell centers
  std::size_t cell_count{0};  ///< grid cells carrying this signature
};

class FaceMap {
 public:
  /// Divide `field` into faces for `nodes` with ratio constant `C` using
  /// cells of side `cell_size` metres.
  static FaceMap build(const Deployment& nodes, double C, const Aabb& field,
                       double cell_size, ThreadPool& pool = ThreadPool::global());

  /// Assemble a face map from precomputed per-cell signatures (the entry
  /// point of the adaptive double-level division, core/adaptive_grid.hpp).
  /// `cell_signatures` is indexed by the grid's flat cell index and is
  /// consumed (moved from). Throws std::invalid_argument when a component
  /// lies outside {-1, 0, +1} (Def. 6) or the signature count differs
  /// from the cell count.
  static FaceMap from_cells(const Deployment& nodes, double C, UniformGrid grid,
                            std::vector<SignatureVector>&& cell_signatures);

  const std::vector<Face>& faces() const { return faces_; }
  const Face& face(FaceId id) const { return faces_[id]; }
  std::size_t face_count() const { return faces_.size(); }

  /// Neighbor faces of `id` (Def. 8 links), ascending ids.
  const std::vector<FaceId>& neighbors(FaceId id) const { return adjacency_[id]; }

  /// Face owning the cell that contains point `p`.
  ///
  /// Contract: `p` must lie inside the field extent (boundary included —
  /// boundary points clamp to the adjacent cell, matching
  /// UniformGrid::locate). A point strictly outside the extent has no
  /// face and throws std::out_of_range; the silent clamp-to-edge-cell
  /// aliasing that `grid().locate` performs is reserved for in-field
  /// boundary rounding only.
  FaceId face_at(Vec2 p) const;

  /// Face owning the cell with flat index `flat` (serialization support).
  /// Contract-checked: `flat` must be a valid flat cell index.
  FaceId face_of_cell(std::size_t flat) const {
    FTTT_CHECK(flat < cell_face_.size(), "face_of_cell: flat index ", flat,
               " >= cell count ", cell_face_.size());
    return cell_face_[flat];
  }

  const UniformGrid& grid() const { return grid_; }
  const Deployment& nodes() const { return nodes_; }
  double ratio_constant() const { return C_; }

  /// Vector-space dimension (number of node pairs).
  std::size_t dimension() const;

  /// Fraction of neighbor-face links whose signature distance is exactly 1
  /// (Theorem 1 holds exactly in the continuous arrangement; the grid
  /// approximation can merge several boundary crossings into one step).
  double theorem1_link_fraction() const;

  /// Payload bytes of the map's heap storage: face signatures, the
  /// cell -> face table, and the adjacency lists (FaceMapCache
  /// accounting; excludes container bookkeeping and slack capacity).
  std::size_t bytes() const;

 private:
  friend class FaceMapBuilder;  ///< plane-major engine assembles maps directly

  FaceMap(UniformGrid grid, Deployment nodes, double C)
      : grid_(grid), nodes_(std::move(nodes)), C_(C) {}

  UniformGrid grid_;
  Deployment nodes_;
  double C_;
  std::vector<Face> faces_;
  std::vector<FaceId> cell_face_;             ///< flat cell -> face id
  std::vector<std::vector<FaceId>> adjacency_;
};

namespace facemap_detail {

/// Shared precondition checks of every build entry point (FaceMap::build,
/// FaceMap::from_cells, FaceMapBuilder). `what` names the caller in the
/// thrown message.
void validate_build_inputs(const Deployment& nodes, double C, const char* what);

/// Phase 3 of map assembly: neighbor-face links from 4-adjacency of
/// cells, each list sorted ascending. Shared by the legacy from_cells
/// path and the plane-major builder so both derive bit-identical
/// adjacency from the same cell->face assignment.
std::vector<std::vector<FaceId>> derive_adjacency(const UniformGrid& grid,
                                                  const std::vector<FaceId>& cell_face,
                                                  std::size_t face_count);

/// Adjacency lists from packed (min << 32 | max) face links, duplicates
/// welcome: each list comes out ascending. derive_adjacency feeds it the
/// links it scans from the cell grid; the plane-major builder feeds it
/// the same link set read off its run boundaries — identical input,
/// identical output.
std::vector<std::vector<FaceId>> adjacency_from_links(std::vector<std::uint64_t>&& links,
                                                      std::size_t face_count);

/// Reusable intermediates for adjacency_from_links_into: the CSR-style
/// larger-neighbor buckets it builds before filling the output lists.
/// Steady-state rebuilds at a fixed grid keep every capacity.
struct AdjacencyScratch {
  std::vector<std::uint32_t> starts;  ///< face -> bucket start (+ total sentinel)
  std::vector<std::uint32_t> ends;    ///< face -> bucket end after dedup
  std::vector<FaceId> larger;         ///< flat larger-neighbor buckets
};

/// Same derivation writing into `out`, reusing its outer vector and every
/// inner list's capacity (the campaign rebuild loop calls this once per
/// trial; in the steady state no list reallocates). Buckets the links by
/// their smaller face instead of globally sorting them: O(links) scatter
/// plus a tiny per-face sort+dedup replaces the O(L log L) comparison
/// sort, with element-wise identical output (iterating the buckets in
/// face order visits the links in the old (min, max)-sorted order).
void adjacency_from_links_into(const std::vector<std::uint64_t>& links,
                               std::size_t face_count, AdjacencyScratch& scratch,
                               std::vector<std::vector<FaceId>>& out);

}  // namespace facemap_detail

}  // namespace fttt
