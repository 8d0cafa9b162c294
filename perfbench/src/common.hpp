// Shared types of sjc_perfbench: workload definitions, the generated
// inputs, lookup queries with their brute-force answers, and a minimal JSON
// emitter for the raw results that perfbench/analyze.py folds into metrics.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/spatial_join.hpp"
#include "workload/dataset.hpp"
#include "workload/generators.hpp"

namespace pb {

struct WorkloadSpec {
  const char* name;
  sjc::workload::DatasetId left;
  sjc::workload::DatasetId right;
  sjc::core::JoinPredicate predicate;
  double scale;   // fraction of the paper's record counts
  bool resident;  // serving::ResidentCatalog + QueryService instead of cold cells
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

struct Inputs {
  sjc::workload::Dataset left;
  sjc::workload::Dataset right;
};

/// The correct answer of the workload's join, from an independent path.
struct Reference {
  std::size_t count = 0;
  std::uint64_t hash = 0;
};

/// One range or k-NN lookup on the left (larger) dataset with its
/// brute-force answer.
struct Lookup {
  bool knn = false;
  sjc::geom::Envelope window;  // range window, or the k-NN query point
  std::size_t k = 0;
  std::vector<std::uint32_t> expected_ids;  // range: ascending; k-NN: rank order
  std::vector<double> expected_distance;    // k-NN only
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal streaming JSON writer: values inside objects must follow key().
class Json {
 public:
  Json& begin_object() {
    prefix();
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  Json& end_object() {
    out_ += '}';
    first_.pop_back();
    return *this;
  }
  Json& begin_array() {
    prefix();
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  Json& end_array() {
    out_ += ']';
    first_.pop_back();
    return *this;
  }
  Json& key(std::string_view k) {
    prefix();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& value(double v) {
    prefix();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(std::uint64_t v) {
    prefix();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(bool v) {
    prefix();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(std::string_view v) {
    prefix();
    quote(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string_view(v)); }
  /// Inserts an already serialized JSON value.
  Json& raw(std::string_view json) {
    prefix();
    out_ += json;
    return *this;
  }
  template <typename T>
  Json& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  Json& field(std::string_view k, std::size_t v) {
    return key(k).value(static_cast<std::uint64_t>(v));
  }
  Json& numbers(std::string_view k, const std::vector<double>& vs) {
    key(k).begin_array();
    for (const double v : vs) value(v);
    return end_array();
  }

  const std::string& str() const { return out_; }

 private:
  void prefix() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace pb
