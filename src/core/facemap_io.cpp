#include "core/facemap_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace fttt {

namespace {

constexpr char kMagic[8] = {'F', 'T', 'T', 'T', 'M', 'A', 'P', '1'};

/// Bytes read per step of a payload whose length the header claims.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

/// Incremental FNV-1a over the serialized payload.
class Fnv1a {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{1469598103934665603ULL};
};

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    hash_.update(data, size);
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void i8(std::int8_t v) { bytes(&v, sizeof v); }
  std::uint64_t checksum() const { return hash_.value(); }

 private:
  std::ostream& out_;
  Fnv1a hash_;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  void bytes(void* data, std::size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!in_) throw std::runtime_error("load_facemap: truncated stream");
    hash_.update(data, size);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    bytes(&v, sizeof v);
    return v;
  }
  std::uint64_t u64_nohash() {
    std::uint64_t v;
    in_.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!in_) throw std::runtime_error("load_facemap: truncated checksum");
    return v;
  }
  double f64() {
    double v;
    bytes(&v, sizeof v);
    return v;
  }
  std::uint64_t checksum() const { return hash_.value(); }

 private:
  std::istream& in_;
  Fnv1a hash_;
};

}  // namespace

void save_facemap(const FaceMap& map, std::ostream& out) {
  Writer w(out);
  w.bytes(kMagic, sizeof kMagic);

  const Deployment& nodes = map.nodes();
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const SensorNode& n : nodes) {
    w.u32(n.id);
    w.f64(n.position.x);
    w.f64(n.position.y);
  }
  w.f64(map.ratio_constant());
  const Aabb& field = map.grid().extent();
  w.f64(field.lo.x);
  w.f64(field.lo.y);
  w.f64(field.hi.x);
  w.f64(field.hi.y);
  w.f64(map.grid().cell_size());

  w.u32(static_cast<std::uint32_t>(map.face_count()));
  w.u32(static_cast<std::uint32_t>(map.dimension()));
  for (const Face& f : map.faces())
    for (SigValue v : f.signature) w.i8(v);

  const std::size_t cells = map.grid().cell_count();
  for (std::size_t flat = 0; flat < cells; ++flat)
    w.u32(map.face_of_cell(flat));

  const std::uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  if (!out) throw std::runtime_error("save_facemap: write failure");
}

void save_facemap(const FaceMap& map, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_facemap: cannot open " + path);
  save_facemap(map, out);
}

FaceMap load_facemap(std::istream& in) {
  // Every count below comes from the file. Storage grows with the bytes
  // actually read, never ahead of them, so a hostile header ends in the
  // promised runtime_error (truncated stream) instead of bad_alloc.
  Reader r(in);
  char magic[8];
  r.bytes(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("load_facemap: bad magic (not a FTTTMAP1 file)");

  const std::uint32_t node_count = r.u32();
  if (node_count < 2 || node_count > 1'000'000)
    throw std::runtime_error("load_facemap: implausible node count");
  Deployment nodes;
  for (std::uint32_t i = 0; i < node_count; ++i) {
    SensorNode n;
    n.id = r.u32();
    n.position.x = r.f64();
    n.position.y = r.f64();
    if (!std::isfinite(n.position.x) || !std::isfinite(n.position.y))
      throw std::runtime_error("load_facemap: corrupt geometry");
    nodes.push_back(n);
  }
  const double C = r.f64();
  Aabb field;
  field.lo.x = r.f64();
  field.lo.y = r.f64();
  field.hi.x = r.f64();
  field.hi.y = r.f64();
  const double cell_size = r.f64();
  const bool finite = std::isfinite(C) && std::isfinite(field.width()) &&
                      std::isfinite(field.height()) && std::isfinite(cell_size);
  if (!finite || !(cell_size > 0.0) || !(field.width() > 0.0) || !(field.height() > 0.0))
    throw std::runtime_error("load_facemap: corrupt geometry");
  // UniformGrid casts these counts to int.
  constexpr double kMaxSide = std::numeric_limits<int>::max();
  if (!(std::ceil(field.width() / cell_size - 1e-9) <= kMaxSide) ||
      !(std::ceil(field.height() / cell_size - 1e-9) <= kMaxSide))
    throw std::runtime_error("load_facemap: grid has more columns or rows than an int holds");

  const std::uint32_t face_count = r.u32();
  const std::uint32_t dimension = r.u32();
  if (dimension != std::uint64_t{node_count} * (node_count - 1) / 2)
    throw std::runtime_error("load_facemap: dimension does not match node count");
  std::vector<SignatureVector> signatures;
  for (std::uint32_t f = 0; f < face_count; ++f) {
    SignatureVector sig;
    for (std::size_t done = 0; done < dimension;) {
      const std::size_t chunk = std::min<std::size_t>(kReadChunk, dimension - done);
      sig.resize(done + chunk);
      r.bytes(sig.data() + done, chunk);
      done += chunk;
    }
    for (SigValue v : sig)
      if (v < -1 || v > 1) throw std::runtime_error("load_facemap: corrupt signature");
    signatures.push_back(std::move(sig));
  }

  const UniformGrid grid(field, cell_size);
  std::vector<std::uint32_t> cell_face;
  for (std::size_t flat = 0; flat < grid.cell_count(); ++flat) {
    cell_face.push_back(r.u32());
    if (cell_face.back() >= face_count)
      throw std::runtime_error("load_facemap: face id out of range");
  }

  const std::uint64_t computed = r.checksum();
  const std::uint64_t stored = r.u64_nohash();
  if (computed != stored) throw std::runtime_error("load_facemap: checksum mismatch");

  std::vector<SignatureVector> cell_sig;
  cell_sig.reserve(cell_face.size());
  for (std::uint32_t face : cell_face) cell_sig.push_back(signatures[face]);
  return FaceMap::from_cells(nodes, C, grid, std::move(cell_sig));
}

FaceMap load_facemap(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_facemap: cannot open " + path);
  return load_facemap(in);
}

}  // namespace fttt
