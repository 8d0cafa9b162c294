// BatchRefiner: batched, SoA refinement engine for the local-join
// refinement step.
//
// A `BoundPredicate` answers one call per candidate. BatchRefiner instead
// refines a whole candidate *group* (all candidates of one indexed geometry,
// as produced by run_local_join's counting-sort group-by) against
// acceleration structures laid out for that access pattern:
//
//  1. Packed linework — ring edges flattened into contiguous x[]/y[]
//     arrays in y-bucket CSR order, so batched point-in-polygon runs a
//     branchless crossing-count loop over one bucket's edges per probe
//     while the whole table stays cache-hot across the group.
//  2. Inner/outer approximations — per areal part a *verified* maximal
//     inscribed axis-aligned rectangle (probe MBR inside it ⇒
//     intersects/contains/distance-0 without any exact test) plus
//     per-part envelopes and chunked linework envelopes (probe MBR
//     disjoint from all of them ⇒ no shared point, early reject).
//  3. Exact fallback — allocation-free mirrors of the PreparedGeometry
//     predicates, so every answer is bit-identical to the per-pair path
//     (and therefore to predicates.hpp's naive results).
//
// Every refined candidate is accounted to exactly one of
// RefineStats::{early_accepts, early_rejects, exact_tests}.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/exact_predicates.hpp"
#include "geom/geometry.hpp"
#include "geom/prepared.hpp"

namespace sjc::geom {

/// Refinement accounting: for every candidate that reaches the refiner
/// exactly one of {exact_tests, early_accepts, early_rejects} increments,
/// so those three always sum to the number of refined candidates
/// (test-enforced). Every exact test is additionally classified as
/// fast-path (all adaptive predicate filters held) or slow-path (at least
/// one escalation to expansion arithmetic), so
/// exact_fastpath + exact_slowpath == exact_tests (also test-enforced).
struct RefineStats {
  std::uint64_t exact_tests = 0;
  std::uint64_t early_accepts = 0;
  std::uint64_t early_rejects = 0;
  std::uint64_t exact_fastpath = 0;
  std::uint64_t exact_slowpath = 0;

  std::uint64_t total() const { return exact_tests + early_accepts + early_rejects; }

  /// Accounts one exact test, classified by whether the thread's adaptive
  /// escalation counter moved since `slow_before` (snapshot
  /// exact::slowpath_calls() immediately before the exact test).
  void note_exact(std::uint64_t slow_before) {
    ++exact_tests;
    if (exact::slowpath_calls() != slow_before) {
      ++exact_slowpath;
    } else {
      ++exact_fastpath;
    }
  }

  RefineStats& operator+=(const RefineStats& o) {
    exact_tests += o.exact_tests;
    early_accepts += o.early_accepts;
    early_rejects += o.early_rejects;
    exact_fastpath += o.exact_fastpath;
    exact_slowpath += o.exact_slowpath;
    return *this;
  }
};

class BatchRefiner {
 public:
  /// Prepares `anchor` (the indexed-side geometry); the reference must
  /// outlive this object, like PreparedGeometry.
  explicit BatchRefiner(const Geometry& anchor);

  const Geometry& anchor() const { return *anchor_; }
  const PreparedGeometry& prepared() const { return prepared_; }
  bool has_areal() const { return !parts_.empty(); }

  // Approximation introspection (tests + diagnostics).
  std::size_t part_count() const { return parts_.size(); }
  const Envelope& part_envelope(std::size_t i) const { return parts_[i].env; }
  /// Verified inscribed rectangle of part i; empty when none was proven.
  const Envelope& inner_rect(std::size_t i) const { return parts_[i].inner; }

  /// Same answer as intersects_naive(anchor(), probe).
  bool intersects(const Geometry& probe, RefineStats& stats) const;

  /// Same answer as contains_naive(anchor(), probe); requires areal anchor.
  bool contains(const Geometry& probe, RefineStats& stats) const;

  /// Same answer as the per-pair BoundPredicate::within_distance(probe, d).
  bool within_distance(const Geometry& probe, double d, RefineStats& stats) const;

  /// Batched hole-aware covered test: out[i] = covers(pts[i]), boundary
  /// counts as covered. For point probes against an areal anchor this
  /// equals both intersects() and contains(). Requires has_areal().
  void covers_points(std::span<const Coord> pts, std::vector<std::uint8_t>& out,
                     RefineStats& stats) const;

  /// Approximate bytes used by the acceleration structures (including the
  /// embedded PreparedGeometry).
  std::size_t index_size_bytes() const;

 private:
  // One areal part's edges in y-bucket CSR order, duplicated per bucket so
  // a probe scans one contiguous run of [ax, ay, bx, by] with no index
  // indirection.
  struct SoAPart {
    std::vector<double> ax, ay, bx, by;
    std::vector<std::uint32_t> bucket_offsets;  // size bucket_count + 1
    double y_min = 0.0;
    double y_max = 0.0;
    double y_inv_step = 0.0;
    std::uint32_t bucket_count = 0;
    Envelope env;    // envelope of all ring edges (outer approximation)
    Envelope inner;  // verified inscribed rectangle (inner approximation)

    /// Bit-identical twin of PreparedGeometry::ArealPart::point_covered.
    bool covers(const Coord& p) const;
  };

  void add_part(const Polygon& poly);
  void build_chunks();
  void build_segment_grid();
  /// Exact "does [a, b] intersect any anchor segment" over the SoA segment
  /// grid below. Boolean-identical to PreparedGeometry::linework_intersects
  /// (same exact per-segment test, candidate supersets both contain every
  /// actually-intersecting segment), but scans contiguous coordinate arrays
  /// and prunes candidates with a branchless bbox test before the exact
  /// orientation tests.
  bool segment_grid_intersects(const Coord& a, const Coord& b) const;

  bool inner_accepts(const Envelope& probe_env) const;
  /// True when probe_env overlaps no part envelope and no linework chunk
  /// envelope — i.e. it cannot share a point with the anchor.
  bool outer_rejects(const Envelope& probe_env) const;
  bool overlaps_any_part_env(const Envelope& probe_env) const;

  bool exact_intersects(const Geometry& probe) const;
  bool exact_contains(const Geometry& probe) const;

  const Geometry* anchor_;
  PreparedGeometry prepared_;  // exact fallback + linework grid
  std::vector<SoAPart> parts_;

  // Chunked linework envelopes (SoA): each chunk bounds a run of
  // consecutive segments within one coordinate path. Together with the
  // part envelopes they bound the anchor's entire point set.
  std::vector<double> chunk_min_x_, chunk_min_y_, chunk_max_x_, chunk_max_y_;

  // SoA linework segment grid for exact crossing tests: per-cell CSR with
  // endpoint and precomputed-bbox arrays duplicated per cell entry, so a
  // probe segment walks contiguous doubles with no index indirection.
  Envelope seg_env_;
  std::uint32_t seg_w_ = 0;
  std::uint32_t seg_h_ = 0;
  double seg_x_inv_ = 0.0;
  double seg_y_inv_ = 0.0;
  std::vector<std::uint32_t> seg_offsets_;  // CSR offsets, seg_w*seg_h + 1
  std::vector<double> seg_ax_, seg_ay_, seg_bx_, seg_by_;          // endpoints
  std::vector<double> seg_min_x_, seg_min_y_, seg_max_x_, seg_max_y_;  // bboxes

  // Approximations apply only when the envelopes above actually bound the
  // anchor (false only for point anchors, which have no parts/linework).
  bool approx_ = false;
};

}  // namespace sjc::geom
