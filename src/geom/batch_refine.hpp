// BatchRefiner: the Prepared (JTS-analog) engine's one prepared structure,
// in the spirit of JTS's prepared geometries, laid out for the local-join
// refinement step.
//
// A refiner is built once per indexed geometry and refines that geometry's
// whole candidate *group* (as produced by run_local_join's counting-sort
// group-by) through three layers:
//
//  1. Packed linework — per areal part, one y-bucket edge table: ring edges
//     flattened into contiguous x[]/y[] arrays in y-bucket CSR order, so
//     batched point-in-polygon runs a branchless crossing-count loop over
//     one bucket's edges per probe while the whole table stays cache-hot
//     across the group. Per anchor, one segment grid over the envelope
//     whose cells hold the same SoA endpoint (and bbox) arrays, so a probe
//     segment only visits the segments of the cells it overlaps. Every
//     array, the chunk envelopes of layer 2 included, lives in one owned
//     buffer: a counting pass over the anchor's paths sizes it, then a
//     fill pass writes it with no growth and no temporary copies.
//  2. Inner/outer approximations — per areal part a *verified* maximal
//     inscribed axis-aligned rectangle (probe MBR inside it ⇒
//     intersects/contains/distance-0 without any exact test) plus
//     per-part envelopes and chunked linework envelopes (probe MBR
//     disjoint from all of them ⇒ no shared point, early reject).
//  3. Exact fallback — allocation-free scalar predicates over the arrays
//     above (covered point, covered path with strict crossing, point on
//     linework, distance), so every answer is bit-identical to
//     predicates.hpp's naive results.
//
// Every refined candidate is accounted to exactly one of
// RefineStats::{early_accepts, early_rejects, exact_tests}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/exact_predicates.hpp"
#include "geom/geometry.hpp"
#include "geom/simd_dispatch.hpp"

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
};

class BatchRefiner {
 public:
  /// Prepares `anchor` (the indexed-side geometry); the reference must
  /// outlive this object (geometry storage in dataset vectors is stable
  /// for the duration of a join).
  explicit BatchRefiner(const Geometry& anchor);

  const Geometry& anchor() const { return *anchor_; }
  bool has_areal() const { return !parts_.empty(); }

  // Approximation introspection (tests + diagnostics).
  std::size_t part_count() const { return parts_.size(); }
  /// Verified inscribed rectangle of part i; empty when none was proven.
  const Envelope& inner_rect(std::size_t i) const { return parts_[i].inner; }

  /// Same answer as intersects_naive(anchor(), probe).
  bool intersects(const Geometry& probe, RefineStats& stats) const;

  /// Same answer as contains_naive(anchor(), probe); requires areal anchor.
  bool contains(const Geometry& probe, RefineStats& stats) const;

  /// Same answer as distance_naive(anchor(), probe) <= d, with an MBR
  /// early-out.
  bool within_distance(const Geometry& probe, double d, RefineStats& stats) const;

  /// Same answer as distance_naive(anchor(), probe).
  double distance(const Geometry& probe) const;

  /// Batched hole-aware covered test: out[i] = covers(pts[i]), boundary
  /// counts as covered. For point probes against an areal anchor this
  /// equals both intersects() and contains(). Requires has_areal().
  void covers_points(std::span<const Coord> pts, std::vector<std::uint8_t>& out,
                     RefineStats& stats) const;

 private:
  // One areal part's edges in y-bucket CSR order, duplicated per bucket so
  // a probe scans one contiguous run of [ax, ay, bx, by] with no index
  // indirection. The arrays are views into the refiner's buffer.
  struct SoAPart {
    const double* ax = nullptr;
    const double* ay = nullptr;
    const double* bx = nullptr;
    const double* by = nullptr;
    const std::uint32_t* bucket_offsets = nullptr;  // bucket_count + 1 entries
    double y_min = 0.0;
    double y_max = 0.0;
    double y_inv_step = 0.0;  // bucket_count / (y_max - y_min), 0 when flat
    std::uint32_t bucket_count = 0;
    Envelope env;    // envelope of all ring edges (outer approximation)
    Envelope inner;  // verified inscribed rectangle (inner approximation)

    std::uint32_t bucket_of(double y) const;
    /// Hole-aware covered test through the dispatched SIMD kernel (bbox
    /// prune before each exact boundary test).
    bool covers(const Coord& p) const;
    /// The same answer from a scalar scan of p's bucket that runs the
    /// exact boundary test on every edge, in bucket order, until a hit.
    bool point_covered(const Coord& p) const;
    /// True when [a, b] strictly crosses any edge of this part.
    bool strictly_crossed(const Coord& a, const Coord& b) const;
    /// Indexed twin of predicates.cpp's polygon_covers_path.
    bool covers_path(std::span<const Coord> path) const;
  };

  // Segment-grid cells [x0, x1] x [y0, y1] overlapped by a box.
  struct CellSpan {
    std::uint32_t x0, x1, y0, y1;
  };

  // Consecutive runs of one element type handed out from the buffer.
  template <typename T>
  struct Runs {
    T* next;
    T* take(std::size_t n) {
      T* run = next;
      next += n;
      return run;
    }
  };

  /// The y-bucket table's shape for `poly`: every scalar, no arrays.
  static SoAPart part_shape(const Polygon& poly);
  /// Fills `part`'s edge table from `poly` and searches its inner rectangle.
  static void fill_part(SoAPart& part, const Polygon& poly, Runs<double>& doubles,
                        Runs<std::uint32_t>& words);
  void fill_chunks(std::size_t chunk_len, Runs<double>& doubles);
  void fill_segment_grid(std::size_t entries, Runs<double>& doubles,
                         Runs<std::uint32_t>& words);
  CellSpan grid_cells(double min_x, double min_y, double max_x, double max_y) const;
  CellSpan segment_cells(const Coord& a, const Coord& b) const;
  /// Calls fn(a, b) on every grid entry in the cells the box overlaps
  /// (cells row by row, entries in path order) until fn returns true.
  template <typename Fn>
  bool any_grid_segment(double min_x, double min_y, double max_x, double max_y,
                        Fn&& fn) const;
  /// Exact "does [a, b] intersect any anchor segment" over the segment
  /// grid, pruning candidates with a branchless bbox test (dispatched
  /// kernel) before the exact orientation tests.
  bool segment_grid_intersects(const Coord& a, const Coord& b) const;
  /// The same answer without the bbox prune: the exact test runs on every
  /// candidate of the overlapped cells.
  bool linework_intersects(const Coord& a, const Coord& b) const;
  /// True when p lies on any anchor segment (grid scan).
  bool linework_touches_point(const Coord& p) const;
  /// Hole-aware covered test against the areal parts (scalar scans).
  bool covers_point(const Coord& p) const;
  /// True when at least one areal part covers the whole path.
  bool any_part_covers_path(std::span<const Coord> path) const;

  bool inner_accepts(const Envelope& probe_env) const;
  /// True when probe_env overlaps no part envelope and no linework chunk
  /// envelope — i.e. it cannot share a point with the anchor.
  bool outer_rejects(const Envelope& probe_env) const;
  bool overlaps_any_part_env(const Envelope& probe_env) const;

  /// Exact intersects; `pruned` picks segment_grid_intersects over
  /// linework_intersects for the crossing scan.
  bool exact_intersects(const Geometry& probe, bool pruned) const;
  bool exact_contains(const Geometry& probe) const;

  const Geometry* anchor_;

  // One owned buffer holds every array the refiner derives, sized exactly
  // by the constructor's counting pass: the part headers, then the doubles
  // (each part's edge table, the chunk envelopes, the segment grid's eight
  // entry arrays), then the uint32 CSR offsets (each part's, the grid's).
  // Moving the refiner keeps the buffer, and with it every view below.
  std::unique_ptr<std::byte[]> buffer_;
  std::span<const SoAPart> parts_;

  // Chunked linework envelopes (SoA): each chunk bounds a run of
  // consecutive segments within one coordinate path. Together with the
  // part envelopes they bound the anchor's entire point set.
  const double* chunk_min_x_ = nullptr;
  const double* chunk_min_y_ = nullptr;
  const double* chunk_max_x_ = nullptr;
  const double* chunk_max_y_ = nullptr;
  std::size_t chunk_count_ = 0;

  // Linework segment grid (linestring segments and ring edges): per-cell
  // CSR with endpoint and precomputed-bbox arrays duplicated per cell
  // entry, so a probe segment walks contiguous doubles with no index
  // indirection. A segment is registered in every cell its bbox overlaps.
  Envelope seg_env_;
  std::uint32_t seg_w_ = 0;
  std::uint32_t seg_h_ = 0;
  double seg_x_inv_ = 0.0;
  double seg_y_inv_ = 0.0;
  const std::uint32_t* seg_offsets_ = nullptr;  // CSR offsets, seg_w*seg_h + 1
  simd::SegSoA segs_{};                         // endpoints and bboxes

  // Approximations apply only when the envelopes above actually bound the
  // anchor (false only for point anchors, which have no parts/linework).
  bool approx_ = false;
};

}  // namespace sjc::geom
