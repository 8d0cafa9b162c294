// Dispatch layer: scalar reference kernels, CPU detection, SJC_SIMD
// override and the per-kernel function-pointer table.
#include "geom/simd_dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "geom/simd_kernels_impl.hpp"

namespace sjc::geom::simd {

// Defined in simd_kernels_avx2.cpp; returns nullptr when the variant is not
// compiled for this architecture.
const Kernels* avx2_kernel_table();

namespace {

bool pip_covers_run_scalar(const double* ax, const double* ay, const double* bx,
                           const double* by, std::size_t n, double px, double py) {
  unsigned on_boundary = 0;
  unsigned inside = 0;
  detail::pip_scalar_range(ax, ay, bx, by, 0, n, px, py, on_boundary, inside);
  return (on_boundary | inside) != 0;
}

bool seg_run_intersects_scalar(const SegSoA& segs, std::size_t begin, std::size_t end,
                               double axp, double ayp, double bxp, double byp,
                               double bx0, double by0, double bx1, double by1) {
  return detail::seg_scalar_range(segs, begin, end, {axp, ayp}, {bxp, byp}, bx0, by0,
                                  bx1, by1);
}

bool env_any_overlaps_scalar(const double* min_x, const double* min_y,
                             const double* max_x, const double* max_y, std::size_t n,
                             double px0, double py0, double px1, double py1) {
  return detail::env_scalar_range(min_x, min_y, max_x, max_y, 0, n, px0, py0, px1,
                                  py1);
}

constexpr Kernels kScalarKernels{pip_covers_run_scalar, seg_run_intersects_scalar,
                                 env_any_overlaps_scalar};

struct Entry {
  Path path;
  const Kernels* kernels;
};

const Kernels* table_for(Path p) {
  switch (p) {
    case Path::kScalar:
      return &kScalarKernels;
    case Path::kAvx2:
      return avx2_kernel_table();
  }
  return nullptr;
}

/// Hardware support for a path (independent of whether its kernels were
/// compiled in).
bool cpu_supports(Path p) {
  switch (p) {
    case Path::kScalar:
      return true;
    case Path::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

bool path_available(Path p) { return cpu_supports(p) && table_for(p) != nullptr; }

Path detect_best() {
  return path_available(Path::kAvx2) ? Path::kAvx2 : Path::kScalar;
}

Path startup_policy() {
  const char* env = std::getenv("SJC_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return detect_best();
  }
  Path want = Path::kScalar;
  bool known = std::strcmp(env, "scalar") == 0;
  if (std::strcmp(env, "avx2") == 0) {
    want = Path::kAvx2;
    known = true;
  }
  if (!known) {
    std::fprintf(stderr, "SJC_SIMD=%s not recognized; using auto-detection\n", env);
    return detect_best();
  }
  if (!path_available(want)) {
    std::fprintf(stderr, "SJC_SIMD=%s unavailable on this CPU/build; using auto-detection\n",
                 env);
    return detect_best();
  }
  return want;
}

// One immutable Entry per path keeps the active selection to a single
// atomic pointer: readers on the refinement hot path pay one relaxed load.
const Entry& entry_for(Path p) {
  static const Entry entries[] = {{Path::kScalar, &kScalarKernels},
                                  {Path::kAvx2, table_for(Path::kAvx2)}};
  return entries[static_cast<int>(p)];
}

std::atomic<const Entry*>& active_entry() {
  static std::atomic<const Entry*> active{&entry_for(startup_policy())};
  return active;
}

}  // namespace

const char* path_name(Path p) {
  switch (p) {
    case Path::kScalar:
      return "scalar";
    case Path::kAvx2:
      return "avx2";
  }
  return "?";
}

const Kernels& kernels() {
  return *active_entry().load(std::memory_order_relaxed)->kernels;
}

Path active_path() { return active_entry().load(std::memory_order_relaxed)->path; }

const char* active_path_name() { return path_name(active_path()); }

std::vector<Path> available_paths() {
  std::vector<Path> out{Path::kScalar};
  if (path_available(Path::kAvx2)) out.push_back(Path::kAvx2);
  return out;
}

const Kernels* kernels_for(Path p) { return path_available(p) ? table_for(p) : nullptr; }

bool force_path(Path p) {
  if (!path_available(p)) return false;
  active_entry().store(&entry_for(p), std::memory_order_relaxed);
  return true;
}

void reset_from_env() {
  active_entry().store(&entry_for(startup_policy()), std::memory_order_relaxed);
}

}  // namespace sjc::geom::simd
