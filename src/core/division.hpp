// Division: one face division of the field, as every consumer shares it.
//
// The preprocessing step (Sec. 4.3) yields a face map; matching wants
// its SoA signature table, and hierarchical matching the coarse descent
// tier plus the index over it. Those parts travel together: a
// FaceMapCache entry, the division a serve fleet hands its shards, and
// the per-trial divisions of the epoch pipeline are all this one value.
// FaceMapBuilder::take_division is its only producer. Every part is
// immutable and shared, so a Division is cheap to copy and safe to read
// from any thread.
#pragma once

#include <cstddef>
#include <memory>

#include "core/facemap.hpp"
#include "core/hier_facemap.hpp"
#include "core/signature_index.hpp"
#include "core/signature_table.hpp"

namespace fttt {

struct Division {
  std::shared_ptr<const FaceMap> map;
  std::shared_ptr<const SignatureTable> table;
  /// Coarse descent tier over `table` and its index: both set (a tiered
  /// division) or both null (a flat one).
  std::shared_ptr<const HierFaceMap> hier;
  std::shared_ptr<const SignatureIndex> index;

  /// Payload bytes: map + table, plus tier and index when present.
  std::size_t bytes() const {
    return map->bytes() + table->bytes() + (hier ? hier->bytes() : 0) +
           (index ? index->bytes() : 0);
  }
};

}  // namespace fttt
