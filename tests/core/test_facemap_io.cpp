#include "core/facemap_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/deployment.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {30.0, 30.0}};

FaceMap make_map() {
  return FaceMap::build(grid_deployment(kField, 6), 1.2, kField, 1.0);
}

TEST(FaceMapIo, RoundTripPreservesEverything) {
  const FaceMap original = make_map();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_facemap(original, buffer);
  const FaceMap loaded = load_facemap(buffer);

  ASSERT_EQ(loaded.face_count(), original.face_count());
  ASSERT_EQ(loaded.nodes().size(), original.nodes().size());
  EXPECT_DOUBLE_EQ(loaded.ratio_constant(), original.ratio_constant());
  EXPECT_EQ(loaded.grid().cell_count(), original.grid().cell_count());
  for (std::size_t i = 0; i < original.face_count(); ++i) {
    EXPECT_EQ(loaded.faces()[i].signature, original.faces()[i].signature);
    EXPECT_EQ(loaded.faces()[i].centroid, original.faces()[i].centroid);
    EXPECT_EQ(loaded.faces()[i].cell_count, original.faces()[i].cell_count);
    EXPECT_EQ(loaded.neighbors(static_cast<FaceId>(i)),
              original.neighbors(static_cast<FaceId>(i)));
  }
  for (std::size_t flat = 0; flat < original.grid().cell_count(); flat += 13)
    EXPECT_EQ(loaded.face_of_cell(flat), original.face_of_cell(flat));
}

TEST(FaceMapIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "fttt_map_test.bin";
  const FaceMap original = make_map();
  save_facemap(original, path);
  const FaceMap loaded = load_facemap(path);
  EXPECT_EQ(loaded.face_count(), original.face_count());
  std::remove(path.c_str());
}

TEST(FaceMapIo, BadMagicRejected) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "NOTAMAP1-some-garbage-bytes-here-to-read";
  EXPECT_THROW(load_facemap(buffer), std::runtime_error);
}

TEST(FaceMapIo, TruncationRejected) {
  const FaceMap original = make_map();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_facemap(original, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(std::ios::in | std::ios::out | std::ios::binary);
  cut << full.substr(0, full.size() / 2);
  EXPECT_THROW(load_facemap(cut), std::runtime_error);
}

TEST(FaceMapIo, BitflipFailsChecksum) {
  const FaceMap original = make_map();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_facemap(original, buffer);
  std::string bytes = buffer.str();
  // Flip one payload byte somewhere in the face table (after the header).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  std::stringstream corrupted(std::ios::in | std::ios::out | std::ios::binary);
  corrupted << bytes;
  EXPECT_THROW(load_facemap(corrupted), std::runtime_error);
}

TEST(FaceMapIo, MissingFileThrows) {
  EXPECT_THROW(load_facemap(std::string("/nonexistent/fttt.bin")), std::runtime_error);
  EXPECT_THROW(save_facemap(make_map(), std::string("/nonexistent/fttt.bin")),
               std::runtime_error);
}

TEST(FaceMapIo, LoadedMapIsUsableForTracking) {
  const FaceMap original = make_map();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_facemap(original, buffer);
  const FaceMap loaded = load_facemap(buffer);
  // Same spatial queries on both.
  for (Vec2 p : {Vec2{3.0, 3.0}, Vec2{15.0, 22.0}, Vec2{29.0, 1.0}})
    EXPECT_EQ(loaded.face(loaded.face_at(p)).signature,
              original.face(original.face_at(p)).signature);
}

/// The fixed-size header of a FTTTMAP1 file up to the dimension field,
/// with no payload after it. Node i sits at `position` offset by i.
struct Header {
  std::uint32_t nodes{2};
  Vec2 position{1.0, 1.0};
  double C{1.2};
  Aabb field{kField};
  double cell{1.0};
  std::uint32_t faces{1};
  std::uint32_t dimension{1};

  std::string bytes() const {
    std::string out("FTTTMAP1");
    const auto put = [&out](const auto& v) {
      out.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    put(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      put(i);
      put(position.x + i);
      put(position.y);
    }
    put(C);
    put(field.lo.x);
    put(field.lo.y);
    put(field.hi.x);
    put(field.hi.y);
    put(cell);
    put(faces);
    put(dimension);
    return out;
  }
};

/// The runtime_error message load_facemap raises on `bytes`. Any other
/// exception escapes and fails the calling test.
std::string load_error(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  try {
    load_facemap(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "load_facemap accepted a hostile header";
  return {};
}

TEST(FaceMapIo, DimensionCheckDoesNotWrap) {
  // 65537 * 65536 / 2 wraps to 32768 in 32 bits.
  Header h;
  h.nodes = 65537;
  h.dimension = 32768;
  EXPECT_NE(load_error(h.bytes()).find("dimension does not match"), std::string::npos);
}

TEST(FaceMapIo, HostileCountsFailAsRuntimeErrors) {
  // Four billion faces of one byte each, but no payload.
  Header faces;
  faces.faces = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NE(load_error(faces.bytes()).find("truncated"), std::string::npos);
  // One face whose signature claims ~4.3 GB (92682 nodes), but no payload.
  Header dimension;
  dimension.nodes = 92682;
  dimension.dimension = static_cast<std::uint32_t>(92682ull * 92681ull / 2);
  EXPECT_NE(load_error(dimension.bytes()).find("truncated"), std::string::npos);
}

TEST(FaceMapIo, NonFiniteGeometryRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Header> hostile(6);
  hostile[0].C = inf;
  hostile[1].C = nan;
  hostile[2].position = Vec2{nan, 1.0};
  hostile[3].field.hi.x = inf;
  hostile[4].field = Aabb{{-1e308, 0.0}, {1e308, 30.0}};  // width overflows to inf
  hostile[5].cell = inf;
  for (std::size_t i = 0; i < hostile.size(); ++i)
    EXPECT_NE(load_error(hostile[i].bytes()).find("corrupt geometry"), std::string::npos)
        << "case " << i;
}

TEST(FaceMapIo, GridBeyondIntRangeRejected) {
  // 1e12 columns: UniformGrid would cast them to int.
  Header h;
  h.field = Aabb{{0.0, 0.0}, {1e6, 30.0}};
  h.cell = 1e-6;
  EXPECT_NE(load_error(h.bytes()).find("more columns or rows than an int"),
            std::string::npos);
}

}  // namespace
}  // namespace fttt
