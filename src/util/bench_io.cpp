#include "util/bench_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/status.hpp"

namespace sjc {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

void JsonWriter::comma() {
  if (need_comma_) out_ += ",";
  out_ += "\n";
  need_comma_ = false;
}

void JsonWriter::indent() {
  for (int i = 0; i < depth_; ++i) out_ += "  ";
}

// Pieces are appended one at a time: GCC 12's -Wrestrict misfires on
// `out_ += "literal" + std::string&&` at -O3.
void JsonWriter::key(const std::string& k) {
  comma();
  indent();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
}

JsonWriter& JsonWriter::begin_object() {
  out_ += "{";
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += "\n";
  --depth_;
  indent();
  out_ += "}";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& k) {
  if (k.empty()) {
    comma();
    indent();
  } else {
    key(k);
  }
  out_ += "[";
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += "\n";
  --depth_;
  indent();
  out_ += "]";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_element() {
  comma();
  indent();
  out_ += "{";
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const std::string& value) {
  key(k);
  out_ += '"';
  out_ += json_escape(value);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonWriter& JsonWriter::field(const std::string& k, double value) {
  key(k);
  out_ += json_number(value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::uint64_t value) {
  key(k);
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return rss_bytes_from_ru_maxrss(static_cast<std::uint64_t>(usage.ru_maxrss),
                                  kRuMaxrssIsBytes);
#else
  return 0;
#endif
}

std::string write_bench_json(const std::string& name, const std::string& json) {
  const char* dir = std::getenv("SJC_BENCH_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_" + name + ".json"
                               : "BENCH_" + name + ".json";
  std::ofstream out(path);
  require(out.good(), "write_bench_json: cannot open " + path);
  out << json << "\n";
  require(out.good(), "write_bench_json: write failed for " + path);
  return path;
}

}  // namespace sjc
