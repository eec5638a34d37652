#include "core/facemap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/similarity.hpp"
#include "net/deployment.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {20.0, 20.0}};

Deployment square_four() {
  return {{0, {5.0, 5.0}}, {1, {15.0, 5.0}}, {2, {5.0, 15.0}}, {3, {15.0, 15.0}}};
}

TEST(FaceMap, BuildValidation) {
  EXPECT_THROW(FaceMap::build({{0, {1.0, 1.0}}}, 1.2, kField, 1.0), std::invalid_argument);
  EXPECT_THROW(FaceMap::build(square_four(), 0.9, kField, 1.0), std::invalid_argument);
  Deployment bad = square_four();
  bad[2].id = 7;  // non-dense ids
  EXPECT_THROW(FaceMap::build(bad, 1.2, kField, 1.0), std::invalid_argument);
}

TEST(FaceMap, FromCellsRejectsComponentsOutsideTrits) {
  // Def. 6: every signature component is -1, 0 or +1; the matchers'
  // exact integer kernels rely on it, so assembly refuses anything else.
  const UniformGrid grid(kField, 10.0);
  const std::size_t dim = square_four().size() * (square_four().size() - 1) / 2;
  for (const SigValue bad : {SigValue{2}, SigValue{-2}, SigValue{127}}) {
    std::vector<SignatureVector> cells(grid.cell_count(), SignatureVector(dim, 1));
    cells.back()[dim - 1] = bad;  // a face of its own, emitted last
    EXPECT_THROW(FaceMap::from_cells(square_four(), 1.2, grid, std::move(cells)),
                 std::invalid_argument)
        << "component " << static_cast<int>(bad);
  }
  std::vector<SignatureVector> ok(grid.cell_count(), SignatureVector(dim, -1));
  ok.front()[0] = 0;
  EXPECT_EQ(FaceMap::from_cells(square_four(), 1.2, grid, std::move(ok)).face_count(), 2u);
}

TEST(FaceMap, EveryCellAssignedToAFace) {
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.5);
  EXPECT_GT(map.face_count(), 0u);
  std::size_t cells = 0;
  for (const Face& f : map.faces()) cells += f.cell_count;
  EXPECT_EQ(cells, map.grid().cell_count());
}

TEST(FaceMap, SignaturesAreUniquePerFace) {
  // Lemma 1: face <-> signature is a bijection.
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.5);
  std::set<SignatureVector> sigs;
  for (const Face& f : map.faces()) {
    EXPECT_TRUE(sigs.insert(f.signature).second) << "duplicate signature, face " << f.id;
    EXPECT_EQ(f.signature.size(), map.dimension());
  }
}

TEST(FaceMap, FaceAtReturnsFaceWithMatchingSignature) {
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.5);
  for (Vec2 p : {Vec2{1.0, 1.0}, Vec2{10.0, 10.0}, Vec2{17.0, 3.0}}) {
    const Face& f = map.face(map.face_at(p));
    // The cell-center signature, not the exact point signature, defines
    // the face; query via the containing cell's center.
    const Vec2 center = map.grid().center(map.grid().locate(p));
    EXPECT_EQ(f.signature, signature_at(center, map.nodes(), map.ratio_constant()));
  }
}

TEST(FaceMap, CentroidInsideFieldAndNearMembers) {
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.5);
  for (const Face& f : map.faces()) {
    EXPECT_GE(f.centroid.x, kField.lo.x);
    EXPECT_LE(f.centroid.x, kField.hi.x);
    EXPECT_GE(f.centroid.y, kField.lo.y);
    EXPECT_LE(f.centroid.y, kField.hi.y);
    EXPECT_GE(f.cell_count, 1u);
  }
}

TEST(FaceMap, UncertainDivisionHasMoreFacesThanBisector) {
  // Fig. 3: the uncertain boundaries refine the bisector division.
  const FaceMap bisector = FaceMap::build(square_four(), 1.0, kField, 0.25);
  const FaceMap uncertain = FaceMap::build(square_four(), 1.3, kField, 0.25);
  EXPECT_GT(uncertain.face_count(), bisector.face_count());
}

TEST(FaceMap, BisectorDivisionOfSquareHasAtLeastEightFaces) {
  // Four grid sensors: the bisectors divide the neighbourhood into the
  // paper's 8 central faces (plus boundary effects).
  const FaceMap map = FaceMap::build(square_four(), 1.0, kField, 0.25);
  EXPECT_GE(map.face_count(), 8u);
}

TEST(FaceMap, AdjacencyIsSymmetricAndIrreflexive) {
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.5);
  for (const Face& f : map.faces()) {
    for (FaceId nb : map.neighbors(f.id)) {
      EXPECT_NE(nb, f.id);
      const auto& back = map.neighbors(nb);
      EXPECT_TRUE(std::find(back.begin(), back.end(), f.id) != back.end());
    }
  }
}

TEST(FaceMap, FacesFormConnectedAdjacencyGraph) {
  // Every face must be reachable over neighbor links (needed for the
  // heuristic matcher to be able to walk anywhere).
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.5);
  std::vector<bool> seen(map.face_count(), false);
  std::vector<FaceId> stack{0};
  seen[0] = true;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const FaceId f = stack.back();
    stack.pop_back();
    ++visited;
    for (FaceId nb : map.neighbors(f)) {
      if (!seen[nb]) {
        seen[nb] = true;
        stack.push_back(nb);
      }
    }
  }
  EXPECT_EQ(visited, map.face_count());
}

TEST(FaceMap, Theorem1HoldsForMostLinks) {
  // Theorem 1: neighbor faces differ by exactly one unit in one
  // component. The grid approximation can occasionally jump a thin face,
  // so we assert a high fraction rather than exactness.
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 0.25);
  EXPECT_GT(map.theorem1_link_fraction(), 0.70);
}

TEST(FaceMap, FinerGridRefinesFaces) {
  const FaceMap coarse = FaceMap::build(square_four(), 1.2, kField, 2.0);
  const FaceMap fine = FaceMap::build(square_four(), 1.2, kField, 0.25);
  EXPECT_GE(fine.face_count(), coarse.face_count());
}

TEST(FaceMap, DeterministicAcrossThreadCounts) {
  ThreadPool one(1);
  ThreadPool many(8);
  const FaceMap a = FaceMap::build(square_four(), 1.2, kField, 0.5, one);
  const FaceMap b = FaceMap::build(square_four(), 1.2, kField, 0.5, many);
  ASSERT_EQ(a.face_count(), b.face_count());
  for (std::size_t i = 0; i < a.face_count(); ++i) {
    EXPECT_EQ(a.faces()[i].signature, b.faces()[i].signature);
    EXPECT_EQ(a.faces()[i].centroid, b.faces()[i].centroid);
  }
}

TEST(FaceMap, DimensionMatchesPairCount) {
  const FaceMap map = FaceMap::build(square_four(), 1.2, kField, 1.0);
  EXPECT_EQ(map.dimension(), 6u);
}

}  // namespace
}  // namespace fttt
