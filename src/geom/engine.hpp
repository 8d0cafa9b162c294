// Geometry engines: the JTS-vs-GEOS axis of the paper.
//
// The paper attributes a large share of HadoopGIS's slowness to its GEOS
// geometry library being several times slower than the JTS library used by
// SpatialHadoop/SpatialSpark (Section II.C, citing its ref [6]). We model
// that axis with two engines that return *identical answers* but differ in
// evaluation strategy:
//
//  * kSimple ("GEOS-analog"): predicates.hpp's naive functions, which
//    evaluate every predicate from scratch with full coordinate scans — no
//    caching, no indexing, fresh part decomposition per call.
//  * kPrepared ("JTS-analog"): a geom::BatchRefiner is built once per
//    anchor geometry (y-bucketed edges + segment grid + approximations) and
//    answers every probe from it.
//
// The speed gap measured between them is structural (really doing more/less
// work), not a fudge factor; bench_geom_engines reports it.
#pragma once

namespace sjc::geom {

enum class EngineKind {
  kSimple = 0,    // GEOS-analog
  kPrepared = 1,  // JTS-analog
};

constexpr const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSimple: return "simple(geos-analog)";
    case EngineKind::kPrepared: return "prepared(jts-analog)";
  }
  return "?";
}

}  // namespace sjc::geom
