#include "core/batch_matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "core/matcher.hpp"
#include "core/pairs.hpp"
#include "core/similarity.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {60.0, 60.0}};

std::shared_ptr<const FaceMap> make_map(std::size_t sensors, std::uint64_t seed) {
  RngStream rng(seed);
  const Deployment nodes = random_deployment(kField, sensors, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 1.5));
}

/// Randomized sampling vector: a face signature with a few perturbed
/// components, a sprinkle of '*' unknowns, and (optionally) fractional
/// extended-mode values.
SamplingVector noisy_vector(const FaceMap& map, RngStream& rng, bool extended) {
  const Face& f = map.faces()[rng.uniform_index(map.face_count())];
  SamplingVector vd;
  vd.known.assign(map.dimension(), true);
  vd.value.reserve(map.dimension());
  for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
  for (int i = 0; i < 4; ++i) {
    const std::size_t c = rng.uniform_index(vd.value.size());
    vd.value[c] = extended ? rng.uniform(-1.0, 1.0)
                           : static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
  }
  for (std::size_t c = 0; c < vd.known.size(); ++c)
    if (rng.bernoulli(0.1)) vd.known[c] = false;  // missing-read '*'
  return vd;
}

SamplingVector all_star_vector(const FaceMap& map) {
  SamplingVector vd;
  vd.value.assign(map.dimension(), 0.0);
  vd.known.assign(map.dimension(), false);
  return vd;
}

/// The equivalence contract is exact: every field, including tie sets and
/// the floating-point similarity, must be identical.
void expect_identical(const MatchResult& scalar, const MatchResult& batch,
                      const char* what) {
  EXPECT_EQ(scalar.face, batch.face) << what;
  EXPECT_EQ(scalar.similarity, batch.similarity) << what;
  EXPECT_EQ(scalar.faces_examined, batch.faces_examined) << what;
  EXPECT_EQ(scalar.tied_faces, batch.tied_faces) << what;
  EXPECT_EQ(scalar.position.x, batch.position.x) << what;
  EXPECT_EQ(scalar.position.y, batch.position.y) << what;
}

/// A sampling vector built the production way (Algorithm 1 + Eq. 6)
/// from a synthetic grouping sampling: the target at `p`, RSS falling
/// with log distance plus noise over five instants, and about a quarter
/// of the nodes silent — so `missing` decides between the Eq. 6 fill and
/// '*' for the pairs they touch (pairs of two silent nodes are '*'
/// either way).
SamplingVector sampled_vector(const FaceMap& map, Vec2 p, RngStream& rng,
                              VectorMode mode, MissingPolicy missing) {
  const Deployment& nodes = map.nodes();
  GroupingSampling group(nodes.size(), 5);
  for (const SensorNode& n : nodes) {
    if (rng.bernoulli(0.25)) continue;  // silent this epoch
    const std::span<double> column = group.set_column(n.id);
    const double d = std::max(1.0, distance(n.position, p));
    for (double& rss : column) rss = -40.0 - 40.0 * std::log10(d) + rng.normal(0.0, 3.0);
  }
  return build_sampling_vector(group, 1.0, mode, missing);
}

/// The edge cases of the exact integer kernels, plus extended-mode
/// vectors that must stay on the double kernels: production-built basic
/// vectors under both missing policies, an all-'*' vector (every face
/// ties at +inf), exact face signatures (a zero distance), noisy basic
/// vectors with '*' components, and extended vectors (fractional
/// values — a vector misrouted to the integer kernels would lose them).
std::vector<SamplingVector> edge_vectors(const FaceMap& map, std::uint64_t seed) {
  RngStream rng(seed);
  const Aabb& field = map.grid().extent();
  std::vector<SamplingVector> out;
  for (const MissingPolicy missing :
       {MissingPolicy::kMissingReadsSmaller, MissingPolicy::kMissingUnknown})
    for (const VectorMode mode : {VectorMode::kBasic, VectorMode::kExtended})
      for (int i = 0; i < 6; ++i) {
        const Vec2 p{rng.uniform(field.lo.x, field.hi.x), rng.uniform(field.lo.y, field.hi.y)};
        out.push_back(sampled_vector(map, p, rng, mode, missing));
      }
  out.push_back(all_star_vector(map));
  for (FaceId id = 0; id < map.face_count(); id += std::max<std::size_t>(1, map.face_count() / 5)) {
    SamplingVector exact;
    exact.known.assign(map.dimension(), true);
    for (SigValue v : map.face(id).signature) exact.value.push_back(static_cast<double>(v));
    out.push_back(exact);
  }
  for (int i = 0; i < 8; ++i) out.push_back(noisy_vector(map, rng, i % 2 == 1));
  return out;
}

TEST(SignatureTable, MirrorsFaceMapWithCacheLinePadding) {
  const auto map = make_map(6, 11);
  const SignatureTable table(*map);
  EXPECT_EQ(table.face_count(), map->face_count());
  EXPECT_EQ(table.dimension(), map->dimension());
  EXPECT_EQ(table.padded_faces() % SignatureTable::kBlock, 0u);
  EXPECT_GE(table.padded_faces(), table.face_count());
  for (const Face& f : map->faces())
    for (std::size_t c = 0; c < table.dimension(); ++c)
      ASSERT_EQ(table.at(c, f.id), f.signature[c]) << "pair " << c << " face " << f.id;
  for (std::size_t c = 0; c < table.dimension(); ++c)
    for (std::size_t pad = table.face_count(); pad < table.padded_faces(); ++pad)
      ASSERT_EQ(table.plane(c)[pad], 0) << "pad column " << pad;
}

TEST(BatchMatcher, NullMapThrows) {
  EXPECT_THROW(BatchMatcher(nullptr), std::invalid_argument);
}

TEST(BatchMatcher, EmptyBatchYieldsEmptyResults) {
  const BatchMatcher matcher(make_map(5, 3));
  EXPECT_TRUE(matcher.match({}).empty());
}

TEST(BatchMatcher, DimensionMismatchThrowsLikeScalarPath) {
  const auto map = make_map(5, 3);
  const BatchMatcher matcher(map);
  SamplingVector wrong;
  wrong.value.assign(map->dimension() + 1, 0.0);
  wrong.known.assign(map->dimension() + 1, true);
  EXPECT_THROW(matcher.match_one(wrong), std::invalid_argument);
  EXPECT_THROW(matcher.match({wrong}), std::invalid_argument);
  EXPECT_THROW(matcher.climb(wrong, 0), std::invalid_argument);
}

TEST(BatchMatcher, EquivalentToExhaustiveAcrossRandomDeployments) {
  const ExhaustiveMatcher reference;
  for (const std::size_t sensors : {4u, 7u, 10u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto map = make_map(sensors, seed);
      const BatchMatcher matcher(map);
      RngStream rng(seed * 1000 + sensors);
      // All required batch sizes, including one exceeding the map size
      // and one exercising the parallel fan-out path.
      for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
        std::vector<SamplingVector> batch;
        batch.reserve(batch_size);
        for (std::size_t i = 0; i < batch_size; ++i)
          batch.push_back(noisy_vector(*map, rng, (i % 3) == 0));
        batch.front() = all_star_vector(*map);  // always cover all-'*'
        const std::vector<MatchResult> results = matcher.match(batch);
        ASSERT_EQ(results.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
          expect_identical(reference.match(*map, batch[i]), results[i], "batch item");
      }
    }
  }
}

TEST(BatchMatcher, MatchOneEquivalentToExhaustive) {
  const auto map = make_map(8, 17);
  const BatchMatcher matcher(map);
  const ExhaustiveMatcher reference;
  RngStream rng(99);
  for (int i = 0; i < 32; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
    expect_identical(reference.match(*map, vd), matcher.match_one(vd), "match_one");
  }
}

TEST(BatchMatcher, AllStarVectorTiesEveryFace) {
  const auto map = make_map(5, 7);
  const BatchMatcher matcher(map);
  const MatchResult r = matcher.match_one(all_star_vector(*map));
  EXPECT_EQ(r.tied_faces.size(), map->face_count());
  expect_identical(ExhaustiveMatcher{}.match(*map, all_star_vector(*map)), r,
                   "all-star");
}

TEST(BatchMatcher, ClimbEquivalentToHeuristicMatcher) {
  const auto map = make_map(7, 23);
  const BatchMatcher matcher(map);
  const HeuristicMatcher reference;
  RngStream rng(5);
  for (int i = 0; i < 32; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
    const FaceId start = static_cast<FaceId>(rng.uniform_index(map->face_count()));
    expect_identical(reference.match(*map, vd, start), matcher.climb(vd, start),
                     "climb");
  }
}

TEST(BatchMatcher, ClimbFromAdjacentStartFindsExactMatch) {
  const auto map = make_map(6, 29);
  const BatchMatcher matcher(map);
  for (FaceId id = 0; id < map->face_count(); id += 5) {
    if (map->neighbors(id).empty()) continue;
    SamplingVector vd;
    vd.known.assign(map->dimension(), true);
    for (SigValue v : map->face(id).signature)
      vd.value.push_back(static_cast<double>(v));
    const MatchResult r = matcher.climb(vd, map->neighbors(id).front());
    EXPECT_EQ(r.face, id);
  }
}

TEST(BatchMatcher, SelectFromSharedScoresMatchesMatchOne) {
  // The campaign engine's shared-scan contract: Direct MLE selecting
  // from a similarities_into buffer must equal its own full match_one,
  // every field, for plain / extended / all-'*' vectors.
  const auto map = make_map(8, 23);
  const BatchMatcher matcher(map);
  const std::size_t padded = SignatureTable::padded_for(map->face_count());
  std::vector<double> scores(padded);
  RngStream rng(123);
  for (int i = 0; i < 24; ++i) {
    const SamplingVector vd =
        i == 0 ? all_star_vector(*map) : noisy_vector(*map, rng, i % 2 == 0);
    matcher.similarities_into(vd, scores);
    expect_identical(matcher.match_one(vd), matcher.select_from(scores), "select_from");
  }
}

TEST(BatchMatcher, SelectFromRejectsShortSpans) {
  const auto map = make_map(5, 29);
  const BatchMatcher matcher(map);
  std::vector<double> short_scores(map->face_count() - 1, 0.0);
  EXPECT_THROW(matcher.select_from(short_scores), std::invalid_argument);
}

TEST(BatchMatcher, ExactKernelsBitIdenticalToSpecAtTheirEdges) {
  // Every entry point — match_one, batched match (serial and fanned
  // out), similarities_into and climb — against the executable spec on
  // the edge vectors; basic vectors run the integer kernels, extended
  // ones the double kernels.
  const ExhaustiveMatcher exhaustive;
  const HeuristicMatcher heuristic;
  for (const std::uint64_t seed : {5u, 6u}) {
    const auto map = make_map(9, seed);
    const BatchMatcher matcher(map);
    const std::vector<SamplingVector> vectors = edge_vectors(*map, seed * 13);
    ASSERT_GE(vectors.size(), BatchMatcher::Config{}.min_parallel_batch);
    const std::vector<MatchResult> batched = matcher.match(vectors);
    std::vector<double> scores(SignatureTable::padded_for(map->face_count()));
    RngStream rng(seed);
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      const SamplingVector& vd = vectors[i];
      const MatchResult want = exhaustive.match(*map, vd);
      expect_identical(want, matcher.match_one(vd), "match_one");
      expect_identical(want, batched[i], "batched match");
      expect_identical(want, matcher.match({vd}).front(), "serial match");
      matcher.similarities_into(vd, scores);
      for (const Face& f : map->faces())
        ASSERT_EQ(similarity(vd, f.signature), scores[f.id]) << "vector " << i << " face " << f.id;
      for (int k = 0; k < 3; ++k) {
        const FaceId start = static_cast<FaceId>(rng.uniform_index(map->face_count()));
        expect_identical(heuristic.match(*map, vd, start), matcher.climb(vd, start), "climb");
      }
    }
  }
}

/// A four-cell map over `sensors` nodes whose faces sit at squared
/// distances 4 * dim, dim, dim + 3 and dim - 1 from the all-(+1)
/// vector: once 4 * dim exceeds a uint16 lane, a table routed to the
/// integer kernels would wrap the first face's distance to a small
/// number and pick it.
std::shared_ptr<const FaceMap> wide_map(std::size_t sensors) {
  Deployment nodes;
  for (std::size_t i = 0; i < sensors; ++i)
    nodes.push_back({static_cast<NodeId>(i), {0.01 * static_cast<double>(i), 0.5}});
  const std::size_t dim = pair_count(sensors);
  const UniformGrid grid(Aabb{{0.0, 0.0}, {2.0, 2.0}}, 1.0);
  std::vector<SignatureVector> cells(grid.cell_count(), SignatureVector(dim, 0));
  std::fill(cells[0].begin(), cells[0].end(), SigValue{-1});
  cells[2][0] = -1;
  cells[3][0] = +1;
  return std::make_shared<const FaceMap>(FaceMap::from_cells(nodes, 1.5, grid, std::move(cells)));
}

TEST(BatchMatcher, ExactKernelsRouteByTableDimension) {
  // 181 sensors give 16290 planes (4 * 16290 fits a uint16 lane, the
  // integer kernels serve it); 182 give 16471, past kExactMaxPlanes, so
  // the double kernels must. The dimension kExactMaxPlanes itself is
  // not a pair count, so no FaceMap has exactly that many planes.
  for (const std::size_t sensors : {181u, 182u}) {
    const auto map = wide_map(sensors);
    ASSERT_EQ(map->face_count(), 4u);
    EXPECT_EQ(map->dimension() <= BatchMatcher::kExactMaxPlanes, sensors == 181);
    const BatchMatcher flat(map);
    BatchMatcher hier(map);
    hier.build_hierarchy();

    SamplingVector plus;
    plus.value.assign(map->dimension(), 1.0);
    plus.known.assign(map->dimension(), true);
    SamplingVector starred = plus;
    for (std::size_t c = 0; c < starred.known.size(); c += 7) starred.known[c] = false;
    for (const SamplingVector& vd : {plus, starred, all_star_vector(*map)}) {
      const MatchResult want = ExhaustiveMatcher{}.match(*map, vd);
      expect_identical(want, flat.match_one(vd), "wide match_one");
      const MatchResult got = hier.descend(vd);
      EXPECT_EQ(want.tied_faces, got.tied_faces) << "wide descend";
      EXPECT_EQ(want.similarity, got.similarity) << "wide descend";
      std::vector<double> scores(flat.table().padded_faces());
      flat.similarities_into(vd, scores);
      for (const Face& f : map->faces())
        EXPECT_EQ(similarity(vd, f.signature), scores[f.id]) << "wide face " << f.id;
      for (FaceId start = 0; start < map->face_count(); ++start)
        expect_identical(HeuristicMatcher{}.match(*map, vd, start), flat.climb(vd, start),
                         "wide climb");
    }
    EXPECT_EQ(flat.match_one(plus).face, 3u);  // distance^2 dim - 1
  }
}

}  // namespace
}  // namespace fttt
