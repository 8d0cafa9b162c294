// Adaptive exact geometric predicates (Shewchuk's scheme).
//
// orient2d returns a double whose SIGN is the exact sign of the
// underlying determinant for the given double inputs — no epsilon, no
// configuration. It first evaluates the determinant in plain
// floating point together with a forward error bound; when the magnitude
// clears the bound the approximate value is returned (the fast path, one
// branch more than the naive formula). Otherwise the predicate escalates to
// staged exact evaluation with floating-point expansions (two_sum /
// two_product residual arithmetic), each stage re-testing a tighter bound
// so the common near-degenerate cases stop early and only true ties pay
// for the full expansion.
//
// The fast-path filter is written as a single branchless comparison
//   |det| > kCcwErrBoundA * (|detleft| + |detright|)   (plus detsum == 0)
// instead of Shewchuk's sign-case ladder, so the SIMD point-in-polygon
// kernels (simd_dispatch.hpp) can evaluate the identical filter vectorized
// and escalate on exactly the same inputs as the scalar code — escalation
// *counts*, not just answers, are pinned across dispatch paths.
//
// Escalations are counted in a thread-local counter (slowpath_calls) so the
// refinement layer can report its filter hit ratio
// (refine.exact_fastpath / refine.exact_slowpath).
//
// Range notes: exact for all finite inputs whose intermediate products stay
// clear of overflow and subnormal underflow. When a product overflows
// (coordinates ~1e300 and beyond) the predicate rescales all inputs by a
// power of two (exact for |c| >= 2^-472, and 0) and re-evaluates, so
// coordinates up to +-1.8e308 are decided correctly as long as they are not
// mixed with near-subnormal magnitudes in the same call. Products that
// underflow below 2^-1074 lose their residual (the classic limitation of
// the original); pure powers of two stay exact all the way down.
#pragma once

#include <cstdint>

#include "geom/envelope.hpp"

namespace sjc::geom::exact {

/// 2^-53: half an ulp of 1.0, the unit roundoff used by the error bounds.
inline constexpr double kEpsilon = 1.1102230246251565e-16;
/// 2^27 + 1: Dekker split constant for 53-bit doubles.
inline constexpr double kSplitter = 134217729.0;
inline constexpr double kResultErrBound = (3.0 + 8.0 * kEpsilon) * kEpsilon;
inline constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
inline constexpr double kCcwErrBoundB = (2.0 + 12.0 * kEpsilon) * kEpsilon;
inline constexpr double kCcwErrBoundC = (9.0 + 64.0 * kEpsilon) * kEpsilon * kEpsilon;

/// Sign-exact orientation determinant det[pa - pc, pb - pc]:
///   > 0 when (pa, pb, pc) wind counterclockwise, < 0 clockwise,
///   == 0 when the three points are exactly collinear.
/// The magnitude is only approximate on the fast path; consumers must use
/// the sign alone.
double orient2d(const Coord& pa, const Coord& pb, const Coord& pc);

/// Escalation entry point for callers that already ran the A-stage filter
/// themselves (the SIMD kernels): assumes
///   detsum = |(pax-pcx)*(pby-pcy)| + |(pay-pcy)*(pbx-pcx)|
/// did not pass the filter. Increments the slow-path counter and returns a
/// sign-exact determinant.
double orient2d_escalate(double pax, double pay, double pbx, double pby, double pcx,
                         double pcy, double detsum);

/// Thread-local count of orient2d's filter failures (adaptive escalations)
/// by this thread. Monotone; callers snapshot before
/// and after an exact test to classify it as fast-path or slow-path.
std::uint64_t slowpath_calls();

}  // namespace sjc::geom::exact
