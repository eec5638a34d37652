#include "core/sampling_vector.hpp"

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/pairs.hpp"

namespace fttt {
namespace {

/// Build a grouping sampling directly from a row-major matrix
/// (rows = instants, columns = nodes), with optional missing columns.
GroupingSampling make_group(const std::vector<std::vector<double>>& matrix,
                            const std::vector<bool>& present = {}) {
  const std::size_t nodes = matrix.empty() ? 0 : matrix[0].size();
  GroupingSampling g(nodes, matrix.size());
  for (std::size_t node = 0; node < nodes; ++node) {
    if (!present.empty() && !present[node]) continue;
    std::span<double> column = g.set_column(node);
    for (std::size_t t = 0; t < matrix.size(); ++t) column[t] = matrix[t][node];
  }
  return g;
}

TEST(CompareRss, DeadbandSemantics) {
  EXPECT_EQ(compare_rss(10.0, 5.0, 1.0), +1);
  EXPECT_EQ(compare_rss(5.0, 10.0, 1.0), -1);
  EXPECT_EQ(compare_rss(10.0, 9.5, 1.0), 0);  // within resolution
  EXPECT_EQ(compare_rss(10.0, 9.5, 0.0), +1);
}

TEST(SamplingVector, PaperFig5WorkedExample) {
  // Fig. 5: four sensors, six instants; pair (3,4) flips, all other pairs
  // are ordinal with node 2 strongest, then 1, then {3,4}:
  // sampling vector [-1, 1, 1, 1, 1, 0] over pairs
  // (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)  [1-based paper ids].
  const std::vector<std::vector<double>> matrix{
      // n1    n2    n3    n4
      {-50.0, -45.0, -60.0, -62.0},
      {-50.0, -45.0, -62.0, -60.0},  // (3,4) flips here
      {-50.0, -45.0, -60.0, -62.0},
      {-50.0, -45.0, -61.0, -63.0},
      {-50.0, -45.0, -60.0, -62.0},
      {-50.0, -45.0, -60.0, -62.0},
  };
  const SamplingVector vd = build_sampling_vector(make_group(matrix), 0.0,
                                                  VectorMode::kBasic);
  ASSERT_EQ(vd.dimension(), 6u);
  EXPECT_DOUBLE_EQ(vd.value[0], -1.0);  // (1,2): node 2 always stronger
  EXPECT_DOUBLE_EQ(vd.value[1], 1.0);   // (1,3)
  EXPECT_DOUBLE_EQ(vd.value[2], 1.0);   // (1,4)
  EXPECT_DOUBLE_EQ(vd.value[3], 1.0);   // (2,3)
  EXPECT_DOUBLE_EQ(vd.value[4], 1.0);   // (2,4)
  EXPECT_DOUBLE_EQ(vd.value[5], 0.0);   // (3,4): flipped
  EXPECT_EQ(vd.unknown_count(), 0u);
}

TEST(SamplingVector, PaperSec6ExtendedExample) {
  // Sec. 6 / Fig. 9: six instants; pair (1,2) shows 4 sequential orders
  // and 2 reverse -> extended value (4-2)/6 = 1/3 where the basic value
  // is 0; pair (n1 strongest otherwise) values stay +/-1.
  const std::vector<std::vector<double>> matrix{
      // n1    n2    n3    n4   (n1 vs n2 flips; n3, n4 well below; n4 > n3)
      {-45.0, -50.0, -70.0, -60.0},
      {-45.0, -50.0, -70.0, -60.0},
      {-50.0, -45.0, -70.0, -60.0},  // reverse
      {-45.0, -50.0, -70.0, -60.0},
      {-50.0, -45.0, -70.0, -60.0},  // reverse
      {-45.0, -50.0, -70.0, -60.0},
  };
  const SamplingVector basic = build_sampling_vector(make_group(matrix), 0.0,
                                                     VectorMode::kBasic);
  const SamplingVector ext = build_sampling_vector(make_group(matrix), 0.0,
                                                   VectorMode::kExtended);
  // Pair order: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4).
  EXPECT_DOUBLE_EQ(basic.value[0], 0.0);
  EXPECT_NEAR(ext.value[0], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(ext.value[1], 1.0);   // (1,3) ordinal
  EXPECT_DOUBLE_EQ(ext.value[5], -1.0);  // (3,4): node 4 always stronger
}

TEST(SamplingVector, PaperSec443FaultExample) {
  // Sec. 4.4(3): only n1 and n3 report, with rss_1 > rss_3. Pair values:
  // (1,2)=1, (1,3)=1, (1,4)=1, (2,3)=-1, (2,4)=*, (3,4)=1.
  const std::vector<std::vector<double>> matrix{
      {-50.0, 0.0, -60.0, 0.0},
      {-50.0, 0.0, -60.0, 0.0},
  };
  const SamplingVector vd = build_sampling_vector(
      make_group(matrix, {true, false, true, false}), 0.0, VectorMode::kBasic);
  EXPECT_DOUBLE_EQ(vd.value[0], 1.0);   // (1,2): n2 missing
  EXPECT_DOUBLE_EQ(vd.value[1], 1.0);   // (1,3): both present, 1 stronger
  EXPECT_DOUBLE_EQ(vd.value[2], 1.0);   // (1,4): n4 missing
  EXPECT_DOUBLE_EQ(vd.value[3], -1.0);  // (2,3): n2 missing, n3 present
  EXPECT_FALSE(vd.known[4]);            // (2,4): both missing -> '*'
  EXPECT_DOUBLE_EQ(vd.value[5], 1.0);   // (3,4): n4 missing
  EXPECT_EQ(vd.unknown_count(), 1u);
}

TEST(SamplingVector, ResolutionTiesForceFlip) {
  // Two nodes within eps at every instant: basic value must be 0 (the
  // hardware cannot order them), extended value 0 as well.
  const std::vector<std::vector<double>> matrix{
      {-50.0, -50.3},
      {-50.1, -50.0},
      {-50.2, -50.1},
  };
  const SamplingVector basic =
      build_sampling_vector(make_group(matrix), 1.0, VectorMode::kBasic);
  const SamplingVector ext =
      build_sampling_vector(make_group(matrix), 1.0, VectorMode::kExtended);
  EXPECT_DOUBLE_EQ(basic.value[0], 0.0);
  EXPECT_DOUBLE_EQ(ext.value[0], 0.0);
}

TEST(SamplingVector, ExtendedValueBounds) {
  // Extended values always lie in [-1, 1].
  const std::vector<std::vector<double>> matrix{
      {-40.0, -50.0}, {-60.0, -50.0}, {-40.0, -50.0}, {-40.0, -50.0}};
  const SamplingVector ext =
      build_sampling_vector(make_group(matrix), 0.0, VectorMode::kExtended);
  EXPECT_NEAR(ext.value[0], 0.5, 1e-12);  // (3 - 1) / 4
  EXPECT_GE(ext.value[0], -1.0);
  EXPECT_LE(ext.value[0], 1.0);
}

TEST(SamplingVector, AllNodesMissingAllStars) {
  const std::vector<std::vector<double>> matrix{{0.0, 0.0, 0.0}};
  const SamplingVector vd = build_sampling_vector(
      make_group(matrix, {false, false, false}), 0.0, VectorMode::kBasic);
  EXPECT_EQ(vd.unknown_count(), pair_count(3));
}

TEST(SamplingVector, SingleInstantGroupIsAlwaysOrdinal) {
  const std::vector<std::vector<double>> matrix{{-40.0, -50.0}};
  const SamplingVector vd =
      build_sampling_vector(make_group(matrix), 0.0, VectorMode::kBasic);
  EXPECT_DOUBLE_EQ(vd.value[0], 1.0);
}

TEST(SamplingVector, RaggedColumnIsUnrepresentable) {
  // The SoA store rejects the short column at insertion, so a ragged
  // grouping sampling can no longer reach build_sampling_vector at all.
  GroupingSampling g(2, 3);
  const std::vector<double> good{1.0, 2.0, 3.0};
  const std::vector<double> ragged{1.0, 2.0};  // too short
  g.set_column(0, good);
  EXPECT_THROW(g.set_column(1, ragged), std::invalid_argument);
  EXPECT_EQ(g.reporting_count(), 1u);
}

TEST(IntegralView, TritVectorsAreIntegralAndEverythingElseIsNot) {
  SamplingVector vd;
  vd.value = {1.0, -1.0, 0.0, -0.0, 0.5};
  vd.known = {true, true, true, true, false};  // '*' hides the fraction
  IntegralView view;
  EXPECT_TRUE(view.assign(vd));
  EXPECT_EQ(view.value, (std::vector<std::int8_t>{1, -1, 0, 0, 0}));
  EXPECT_EQ(view.known, (std::vector<std::uint8_t>{1, 1, 1, 1, 0}));

  vd.known[4] = true;  // a known Def. 10 fraction
  EXPECT_FALSE(view.assign(vd));
  EXPECT_FALSE(view.integral);
  EXPECT_EQ(view.known, (std::vector<std::uint8_t>{1, 1, 1, 1, 1}));

  vd.value[4] = 2.0;  // out of range is not a trit either
  EXPECT_FALSE(view.assign(vd));
  vd.value[4] = std::nan("");
  EXPECT_FALSE(view.assign(vd));
}

}  // namespace
}  // namespace fttt
