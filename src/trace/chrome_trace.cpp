#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "geom/simd_dispatch.hpp"
#include "util/status.hpp"

namespace sjc::trace {

namespace {

/// JSON string escaping for phase names (which may carry '[', '/', quotes
/// from dataset names, ...).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip double formatting (matches bench_io's JSON style).
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

constexpr double kMicrosPerSecond = 1e6;

}  // namespace

void write_chrome_trace(std::ostream& out, const TaskTimeline& timeline) {
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Metadata: one process per simulated node, one named thread per slot —
  // every slot gets a track even if no span ever landed on it, so idle
  // capacity is visible in the viewer.
  for (std::uint32_t node = 0; node < timeline.node_count; ++node) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << (node + 1)
        << ",\"tid\":0,\"args\":{\"name\":\"node" << node << "\"}}";
    for (std::uint32_t slot = 0; slot < timeline.slots_per_node; ++slot) {
      sep();
      out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << (node + 1)
          << ",\"tid\":" << (slot + 1) << ",\"args\":{\"name\":\"slot" << slot
          << "\"}}";
    }
  }

  for (const auto& span : timeline.spans) {
    const std::uint32_t node = span.slot / timeline.slots_per_node;
    const std::uint32_t local_slot = span.slot % timeline.slots_per_node;
    sep();
    out << "{\"ph\":\"X\",\"name\":\"" << json_escape(span.phase) << "\""
        << ",\"cat\":\"" << span_outcome_name(span.outcome) << "\""
        << ",\"pid\":" << (node + 1) << ",\"tid\":" << (local_slot + 1)
        << ",\"ts\":" << json_double(span.sim_start * kMicrosPerSecond)
        << ",\"dur\":"
        << json_double(std::max(0.0, span.sim_end - span.sim_start) *
                       kMicrosPerSecond)
        << ",\"args\":{\"task\":" << span.task << ",\"attempt\":" << span.attempt
        << ",\"speculative\":" << (span.speculative ? "true" : "false")
        << ",\"outcome\":\"" << span_outcome_name(span.outcome) << "\""
        << ",\"cpu_seconds\":" << json_double(span.cpu_seconds)
        << ",\"bytes_in\":" << span.bytes_in << ",\"bytes_out\":" << span.bytes_out
        << ",\"bytes_shuffled\":" << span.bytes_shuffled << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace_file(const std::string& path, const TaskTimeline& timeline) {
  std::ofstream out(path);
  if (!out) throw SjcError("write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(out, timeline);
}

std::string format_skew_table(const TaskTimeline& timeline) {
  const auto rows = skew_summary(timeline);
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "  %-40s %8s %9s %9s %9s %9s %7s %6s %5s\n",
                "phase", "attempts", "min_s", "p50_s", "p95_s", "max_s", "ratio",
                "strag", "fail");
  out << line;
  for (const auto& row : rows) {
    // max/p50 — the hotspot ratio skew-aware repartitioning targets; 0 when
    // the phase median is 0 (all-instant tasks).
    const double ratio = row.p50_s > 0.0 ? row.max_s / row.p50_s : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-40s %8zu %9.3f %9.3f %9.3f %9.3f %7.2f %6zu %5zu\n",
                  row.phase.c_str(), row.attempts, row.min_s, row.p50_s, row.p95_s,
                  row.max_s, ratio, row.stragglers, row.failed + row.spec_losers);
    out << line;
  }
  return out.str();
}

std::string format_skew_table(const TaskTimeline& timeline,
                              const std::map<std::string, std::uint64_t>& counters) {
  std::string out = format_skew_table(timeline);
  const auto value = [&counters](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const std::uint64_t candidates = value("refine.candidates");
  if (candidates != 0) {
    const auto pct = [candidates](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) / static_cast<double>(candidates);
    };
    const std::uint64_t exact = value("refine.exact_tests");
    const std::uint64_t accepts = value("refine.early_accepts");
    const std::uint64_t rejects = value("refine.early_rejects");
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  refine: %llu candidates | exact %llu (%.1f%%) | early-accept "
                  "%llu (%.1f%%) | early-reject %llu (%.1f%%)\n",
                  static_cast<unsigned long long>(candidates),
                  static_cast<unsigned long long>(exact), pct(exact),
                  static_cast<unsigned long long>(accepts), pct(accepts),
                  static_cast<unsigned long long>(rejects), pct(rejects));
    out += line;
    // Exact-predicate split and the kernel dispatch path that produced it.
    const std::uint64_t fastpath = value("refine.exact_fastpath");
    const std::uint64_t slowpath = value("refine.exact_slowpath");
    std::snprintf(line, sizeof(line),
                  "  refine-exact: fastpath %llu | slowpath %llu | simd=%s\n",
                  static_cast<unsigned long long>(fastpath),
                  static_cast<unsigned long long>(slowpath),
                  geom::simd::active_path_name());
    out += line;
  }
  // Shuffle-filter footer (present only when the map-side spatial filter is
  // on: that is when the shuffle.* trio is emitted).
  const std::uint64_t assigned = value("shuffle.assigned_records");
  if (assigned != 0) {
    const auto pct = [assigned](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) / static_cast<double>(assigned);
    };
    const std::uint64_t shuffled = value("shuffle.records");
    const std::uint64_t filtered = value("shuffle.filtered_records");
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  shuffle-filter: %llu assigned | shuffled %llu (%.1f%%) | "
                  "filtered %llu (%.1f%%) | ~%llu bytes saved\n",
                  static_cast<unsigned long long>(assigned),
                  static_cast<unsigned long long>(shuffled), pct(shuffled),
                  static_cast<unsigned long long>(filtered), pct(filtered),
                  static_cast<unsigned long long>(value("shuffle.filtered_bytes")));
    out += line;
  }
  // Repartition footer (present only when skew-aware refinement ran:
  // repartition.rounds is >= 1 whenever the probe executed, even if no cell
  // was hot enough to split). The counts are run totals over every scheme
  // the run refined (SpatialHadoop refines two).
  const std::uint64_t rounds = value("repartition.rounds");
  if (rounds != 0) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  repartition (all schemes): %llu rounds | %llu splits -> %llu cells | "
                  "migrated %llu records / %llu bytes\n",
                  static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(value("repartition.splits")),
                  static_cast<unsigned long long>(value("repartition.cells")),
                  static_cast<unsigned long long>(
                      value("repartition.migrated_records")),
                  static_cast<unsigned long long>(
                      value("repartition.migrated_bytes")));
    out += line;
  }
  // Plan footer (present only when the cost model chose the physical plan:
  // plan.chosen is 1 or 2, never 0, once a decision is recorded).
  const std::uint64_t chosen = value("plan.chosen");
  if (chosen != 0) {
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "  plan: %s | predicted %llu ms (broadcast %llu / partitioned %llu) | "
        "actual %llu ms%s\n",
        chosen == 2 ? "broadcast" : "partitioned",
        static_cast<unsigned long long>(value("plan.predicted_cost")),
        static_cast<unsigned long long>(value("plan.predicted_broadcast")),
        static_cast<unsigned long long>(value("plan.predicted_partitioned")),
        static_cast<unsigned long long>(value("plan.actual_cost")),
        value("plan.fallback") != 0 ? " | fallback" : "");
    out += line;
  }
  return out;
}

}  // namespace sjc::trace
