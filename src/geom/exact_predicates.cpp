// Adaptive exact predicates: expansion arithmetic + staged escalation.
//
// The residual tricks (two_sum, two_product, Dekker splitting) and the
// zero-eliminating expansion routines require strict IEEE double semantics:
// no FMA contraction, no reassociation. sjc_geom is compiled with
// -ffp-contract=off (see src/geom/CMakeLists.txt); nothing here may be
// moved into a header that other targets compile under different flags.
#include "geom/exact_predicates.hpp"

#include <cmath>

namespace sjc::geom::exact {

namespace {

std::uint64_t& slowpath_counter() {
  thread_local std::uint64_t count = 0;
  return count;
}

// ---------------------------------------------------------------------------
// Residual primitives. Each computes fl(a op b) plus the exact rounding
// error, so (x, y) represents the exact result as x + y.
// ---------------------------------------------------------------------------

inline void fast_two_sum(double a, double b, double& x, double& y) {
  // Requires |a| >= |b| (or a == 0).
  x = a + b;
  const double bvirt = x - a;
  y = b - bvirt;
}

inline void two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  const double bvirt = x - a;
  const double avirt = x - bvirt;
  const double bround = b - bvirt;
  const double around = a - avirt;
  y = around + bround;
}

inline void two_diff(double a, double b, double& x, double& y) {
  x = a - b;
  const double bvirt = a - x;
  const double avirt = x + bvirt;
  const double bround = bvirt - b;
  const double around = a - avirt;
  y = around + bround;
}

/// Residual of an already-computed difference x = fl(a - b).
inline void two_diff_tail(double a, double b, double x, double& y) {
  const double bvirt = a - x;
  const double avirt = x + bvirt;
  const double bround = bvirt - b;
  const double around = a - avirt;
  y = around + bround;
}

inline void split(double a, double& hi, double& lo) {
  const double c = kSplitter * a;
  const double big = c - a;
  hi = c - big;
  lo = a - hi;
}

inline void two_product(double a, double b, double& x, double& y) {
  x = a * b;
  double ahi, alo, bhi, blo;
  split(a, ahi, alo);
  split(b, bhi, blo);
  const double err1 = x - ahi * bhi;
  const double err2 = err1 - alo * bhi;
  const double err3 = err2 - ahi * blo;
  y = alo * blo - err3;
}

/// (x3, x2, x1, x0) = (a1 + a0) - (b1 + b0), all components exact.
inline void two_two_diff(double a1, double a0, double b1, double b0, double& x3,
                         double& x2, double& x1, double& x0) {
  double j, r0, i;
  two_diff(a0, b0, i, x0);
  two_sum(a1, i, j, r0);
  double k;
  two_diff(r0, b1, k, x1);
  two_sum(j, k, x3, x2);
}

inline double estimate(int n, const double* e) {
  double q = e[0];
  for (int i = 1; i < n; ++i) q += e[i];
  return q;
}

// ---------------------------------------------------------------------------
// Expansion arithmetic (nonoverlapping, nonadjacent components, increasing
// magnitude; zero components elided). Bounds-checked head reads — unlike
// the classic formulation, no element past the end is ever touched, so the
// routines are clean under AddressSanitizer with stack arrays.
// ---------------------------------------------------------------------------

/// h = e + f. h must have room for elen + flen components; h may not alias
/// e or f. Returns the component count of h (>= 1).
int fast_expansion_sum_zeroelim(int elen, const double* e, int flen, const double* f,
                                double* h) {
  int eindex = 0;
  int findex = 0;
  int hindex = 0;
  double q;
  double hh;
  // Seed q with the smaller-magnitude head.
  if ((f[0] > e[0]) == (f[0] > -e[0])) {
    q = e[eindex++];
  } else {
    q = f[findex++];
  }
  if (eindex < elen && findex < flen) {
    const double enow = e[eindex];
    const double fnow = f[findex];
    double qnew;
    if ((fnow > enow) == (fnow > -enow)) {
      fast_two_sum(enow, q, qnew, hh);
      ++eindex;
    } else {
      fast_two_sum(fnow, q, qnew, hh);
      ++findex;
    }
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
    while (eindex < elen && findex < flen) {
      const double en = e[eindex];
      const double fn = f[findex];
      if ((fn > en) == (fn > -en)) {
        two_sum(q, en, qnew, hh);
        ++eindex;
      } else {
        two_sum(q, fn, qnew, hh);
        ++findex;
      }
      q = qnew;
      if (hh != 0.0) h[hindex++] = hh;
    }
  }
  while (eindex < elen) {
    double qnew;
    two_sum(q, e[eindex++], qnew, hh);
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  while (findex < flen) {
    double qnew;
    two_sum(q, f[findex++], qnew, hh);
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  if (q != 0.0 || hindex == 0) h[hindex++] = q;
  return hindex;
}

// ---------------------------------------------------------------------------
// orient2d escalation stages
// ---------------------------------------------------------------------------

/// Largest coordinate difference the expansion pipeline handles without
/// overflow: products stay <= 2^996 and Dekker splits stay finite.
constexpr double kMaxSafeDiff = 0x1p498;
/// Exact power-of-two rescue scale for near-overflow inputs; keeps rescaled
/// differences below 2^474 (2^1024 * 2^-550).
constexpr double kRescue = 0x1p-550;

/// Stages B-D: exact evaluation given the A-stage detsum. Requires all four
/// coordinate differences to be finite and <= kMaxSafeDiff in magnitude.
double orient2d_adapt(double pax, double pay, double pbx, double pby, double pcx,
                      double pcy, double detsum) {
  const double acx = pax - pcx;
  const double bcx = pbx - pcx;
  const double acy = pay - pcy;
  const double bcy = pby - pcy;

  double detleft, detlefttail, detright, detrighttail;
  two_product(acx, bcy, detleft, detlefttail);
  two_product(acy, bcx, detright, detrighttail);

  double b[4];
  two_two_diff(detleft, detlefttail, detright, detrighttail, b[3], b[2], b[1], b[0]);

  double det = estimate(4, b);
  double errbound = kCcwErrBoundB * detsum;
  if (det >= errbound || -det >= errbound) return det;

  double acxtail, acytail, bcxtail, bcytail;
  two_diff_tail(pax, pcx, acx, acxtail);
  two_diff_tail(pbx, pcx, bcx, bcxtail);
  two_diff_tail(pay, pcy, acy, acytail);
  two_diff_tail(pby, pcy, bcy, bcytail);
  if (acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0) {
    return det;  // the differences were exact: b already holds the answer
  }

  errbound = kCcwErrBoundC * detsum + kResultErrBound * std::fabs(det);
  det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
  if (det >= errbound || -det >= errbound) return det;

  // Full expansion: fold in the three remaining tail cross terms.
  double u[4];
  double s1, s0, t1, t0;
  two_product(acxtail, bcy, s1, s0);
  two_product(acytail, bcx, t1, t0);
  two_two_diff(s1, s0, t1, t0, u[3], u[2], u[1], u[0]);
  double c1[8];
  const int c1len = fast_expansion_sum_zeroelim(4, b, 4, u, c1);

  two_product(acx, bcytail, s1, s0);
  two_product(acy, bcxtail, t1, t0);
  two_two_diff(s1, s0, t1, t0, u[3], u[2], u[1], u[0]);
  double c2[12];
  const int c2len = fast_expansion_sum_zeroelim(c1len, c1, 4, u, c2);

  two_product(acxtail, bcytail, s1, s0);
  two_product(acytail, bcxtail, t1, t0);
  two_two_diff(s1, s0, t1, t0, u[3], u[2], u[1], u[0]);
  double d[16];
  const int dlen = fast_expansion_sum_zeroelim(c2len, c2, 4, u, d);

  return d[dlen - 1];
}

/// Filter + escalation without touching the slow-path counter; used for the
/// rescaled re-evaluation so one uncertain input counts once.
double orient2d_filtered(double pax, double pay, double pbx, double pby, double pcx,
                         double pcy) {
  const double detleft = (pax - pcx) * (pby - pcy);
  const double detright = (pay - pcy) * (pbx - pcx);
  const double det = detleft - detright;
  const double detsum = std::fabs(detleft) + std::fabs(detright);
  const double errbound = kCcwErrBoundA * detsum;
  if (det > errbound || -det > errbound || detsum == 0.0) return det;
  return orient2d_adapt(pax, pay, pbx, pby, pcx, pcy, detsum);
}

}  // namespace

double orient2d_escalate(double pax, double pay, double pbx, double pby, double pcx,
                         double pcy, double detsum) {
  ++slowpath_counter();
  // Overflow rescue: when any coordinate difference is too large for the
  // Dekker splits (or a product already overflowed, making detsum
  // non-finite), rescale every input by an exact power of two and rerun the
  // whole predicate. Scaling preserves the sign of the determinant.
  const double spread =
      std::max(std::max(std::fabs(pax - pcx), std::fabs(pbx - pcx)),
               std::max(std::fabs(pay - pcy), std::fabs(pby - pcy)));
  if (!(spread <= kMaxSafeDiff) || !std::isfinite(detsum)) {
    return orient2d_filtered(pax * kRescue, pay * kRescue, pbx * kRescue,
                             pby * kRescue, pcx * kRescue, pcy * kRescue);
  }
  return orient2d_adapt(pax, pay, pbx, pby, pcx, pcy, detsum);
}

double orient2d(const Coord& pa, const Coord& pb, const Coord& pc) {
  const double detleft = (pa.x - pc.x) * (pb.y - pc.y);
  const double detright = (pa.y - pc.y) * (pb.x - pc.x);
  const double det = detleft - detright;
  const double detsum = std::fabs(detleft) + std::fabs(detright);
  // A-stage filter. detsum == 0 means both products are exactly zero, so
  // det is exact; the strict comparisons route every det == 0 with nonzero
  // detsum through the exact path. NaNs (overflowed products) fail all
  // three tests and escalate into the rescue path.
  const double errbound = kCcwErrBoundA * detsum;
  if (det > errbound || -det > errbound || detsum == 0.0) return det;
  return orient2d_escalate(pa.x, pa.y, pb.x, pb.y, pc.x, pc.y, detsum);
}

std::uint64_t slowpath_calls() { return slowpath_counter(); }

}  // namespace sjc::geom::exact
