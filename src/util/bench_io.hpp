// Benchmark result export.
//
// The bench binaries print paper-style tables for humans; several also
// write a machine-readable BENCH_<name>.json (write_bench_json), so results
// can be post-processed (plots, regression tracking) without screen-scraping.
#pragma once

#include <cstdint>
#include <string>

namespace sjc {

/// Minimal JSON emitter for bench summaries (objects, arrays, scalars) —
/// just enough structure for regression tracking without a JSON dependency.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key = {});
  JsonWriter& end_array();
  /// Starts an object as an array element (no key).
  JsonWriter& begin_element();
  JsonWriter& field(const std::string& key, const std::string& value);
  JsonWriter& field(const std::string& key, const char* value);
  JsonWriter& field(const std::string& key, double value);
  JsonWriter& field(const std::string& key, std::uint64_t value);
  JsonWriter& field(const std::string& key, bool value);

  const std::string& str() const { return out_; }

 private:
  void comma();
  void indent();
  /// Starts a member: separator, indentation and `"k": `.
  void key(const std::string& k);
  std::string out_;
  int depth_ = 0;
  bool need_comma_ = false;
};

/// Writes `json` to `$SJC_BENCH_DIR/BENCH_<name>.json` (falling back to the
/// working directory when the variable is unset) and returns the path.
/// Throws SjcError on I/O failure.
std::string write_bench_json(const std::string& name, const std::string& json);

/// Converts a raw getrusage `ru_maxrss` value to bytes. POSIX leaves the
/// unit unspecified and the two hosts we run on disagree: Linux reports
/// kilobytes, macOS reports bytes. `raw_is_bytes` names the platform
/// convention explicitly so both conversions are unit-testable on any host;
/// peak_rss_bytes() passes the compile-time default for the current one.
constexpr std::uint64_t rss_bytes_from_ru_maxrss(std::uint64_t raw,
                                                 bool raw_is_bytes) {
  return raw_is_bytes ? raw : raw * 1024;
}

/// The current platform's ru_maxrss convention (see rss_bytes_from_ru_maxrss).
#if defined(__APPLE__)
inline constexpr bool kRuMaxrssIsBytes = true;
#else
inline constexpr bool kRuMaxrssIsBytes = false;
#endif

/// Process-lifetime peak resident set size in bytes (getrusage ru_maxrss,
/// unit-normalized per platform). Monotone over the process lifetime:
/// benches that compare variants must run the expected-smaller one first.
/// Returns 0 on platforms without getrusage.
std::uint64_t peak_rss_bytes();

}  // namespace sjc
