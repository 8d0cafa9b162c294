// The (envelope, id) entry every MBR index and MBR-join kernel works on.
//
// Indexes are used in three places mirroring the paper: per-mapper
// partition lookup (HadoopGIS), per-block local-join indexes
// (SpatialHadoop), and the broadcast right-side index (SpatialSpark). Each
// index (StrTree, DynamicRTree) answers "which entry ids have an MBR
// intersecting this query envelope?" through a templated
// for_each_intersecting, plus a query_ids convenience.
#pragma once

#include <cstdint>

#include "geom/envelope.hpp"

namespace sjc::index {

struct IndexEntry {
  geom::Envelope env;
  std::uint32_t id = 0;
};

}  // namespace sjc::index
