// Runtime-dispatched SIMD kernels for the BatchRefiner hot loops.
//
// Three kernels cover the refinement engine's inner loops:
//   pip_covers_run     — branchless crossing-count point-in-polygon over one
//                        y-bucket run of SoA edges (boundary decisions are
//                        sign-exact: uncertain edges escalate through
//                        exact::orient2d_escalate),
//   seg_run_intersects — segment-grid per-cell bbox prune + exact
//                        segment-intersection tests in ascending order,
//   env_any_overlaps   — part/chunk envelope early-reject sweep.
//
// Each kernel has a scalar implementation (always built, the reference) and
// an AVX2 variant (x86-64) selected at startup by CPU detection (cpuid)
// behind per-kernel function pointers. The SJC_SIMD environment variable
// overrides detection:
//   SJC_SIMD=scalar|avx2|auto   (default auto = best available)
// An unavailable request falls back to auto with a warning on stderr.
//
// Bit-identity contract: for identical inputs both variants return the
// same boolean AND performs the same exact-predicate escalations in the
// same order as the scalar kernel (the SIMD filter comparisons are
// bitwise-equivalent to the scalar ones, uncertain lanes fall back to the
// same scalar escalation calls in ascending index order, and remainder
// elements share the scalar tail loop). Tests pin accept vectors and
// escalation counts across every available path.
#pragma once

#include <cstddef>
#include <vector>

namespace sjc::geom::simd {

enum class Path { kScalar = 0, kAvx2 = 1 };

const char* path_name(Path p);

/// One contiguous SoA run of segments with precomputed bboxes, as laid out
/// by BatchRefiner's segment-grid cells.
struct SegSoA {
  const double* ax;
  const double* ay;
  const double* bx;
  const double* by;
  const double* min_x;
  const double* min_y;
  const double* max_x;
  const double* max_y;
};

struct Kernels {
  /// Hole-aware covered test of point (px, py) against the n edges
  /// [ax, ay] -> [bx, by]: true when the point is on any edge or the
  /// crossing parity says inside.
  bool (*pip_covers_run)(const double* ax, const double* ay, const double* bx,
                         const double* by, std::size_t n, double px, double py);
  /// Does probe segment [a, b] (bbox [bx0, by0, bx1, by1]) intersect any of
  /// segs[begin, end)? Candidates whose bboxes overlap the probe's are
  /// tested exactly in ascending index order with early exit.
  bool (*seg_run_intersects)(const SegSoA& segs, std::size_t begin, std::size_t end,
                             double axp, double ayp, double bxp, double byp,
                             double bx0, double by0, double bx1, double by1);
  /// Does the closed probe rect [px0, py0, px1, py1] overlap any of the n
  /// envelopes?
  bool (*env_any_overlaps)(const double* min_x, const double* min_y,
                           const double* max_x, const double* max_y, std::size_t n,
                           double px0, double py0, double px1, double py1);
};

/// The active kernel table (lock-free read; safe to call concurrently).
const Kernels& kernels();
Path active_path();
const char* active_path_name();

/// Paths runnable on this CPU with kernels compiled in; always contains
/// kScalar, ordered scalar first.
std::vector<Path> available_paths();

/// Kernel table for a specific path, or nullptr when unavailable.
const Kernels* kernels_for(Path p);

/// Forces the active path (tests/bench). Returns false — leaving dispatch
/// unchanged — when the path is unavailable on this CPU.
bool force_path(Path p);

/// Restores the startup policy: SJC_SIMD override if set, else detection.
void reset_from_env();

}  // namespace sjc::geom::simd
