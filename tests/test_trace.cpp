// sjc::trace tests: collector determinism under concurrent recording,
// scheduler span emission consistency (spans are an exact decomposition of
// the schedule), Chrome trace-event export validity, and the skew summary's
// percentile arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "cluster/scheduler.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (recursive descent), enough to prove the
// exported trace is well-formed without pulling in a JSON dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// TraceCollector
// ---------------------------------------------------------------------------

trace::TaskSpan make_span(const std::string& phase, std::uint64_t task,
                          double start, double end, std::uint32_t slot = 0) {
  trace::TaskSpan s;
  s.phase = phase;
  s.task = task;
  s.slot = slot;
  s.sim_start = start;
  s.sim_end = end;
  return s;
}

TEST(TraceCollector, ConcurrentRecordingMergesDeterministically) {
  // Spans recorded from many pool threads in arbitrary order must merge
  // into exactly the same sequence every time: sorted by span content, with
  // nothing lost.
  const auto run_once = [] {
    trace::TraceCollector collector(2, 4);
    ThreadPool::shared().parallel_for(64, [&](std::size_t i) {
      for (int k = 0; k < 16; ++k) {
        collector.record(make_span("phase" + std::to_string(i % 5),
                                   i * 100 + static_cast<std::uint64_t>(k),
                                   static_cast<double>(i), static_cast<double>(i) + 1,
                                   static_cast<std::uint32_t>(i % 8)));
      }
    });
    return collector.merged();
  };
  const trace::TaskTimeline a = run_once();
  const trace::TaskTimeline b = run_once();
  ASSERT_EQ(a.spans.size(), 64u * 16u);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  EXPECT_TRUE(std::is_sorted(a.spans.begin(), a.spans.end(),
                             [](const trace::TaskSpan& x, const trace::TaskSpan& y) {
                               if (x.sim_start != y.sim_start)
                                 return x.sim_start < y.sim_start;
                               return x.phase < y.phase ||
                                      (x.phase == y.phase && x.task <= y.task);
                             }));
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].phase, b.spans[i].phase);
    EXPECT_EQ(a.spans[i].task, b.spans[i].task);
    EXPECT_EQ(a.spans[i].slot, b.spans[i].slot);
    EXPECT_EQ(a.spans[i].sim_start, b.spans[i].sim_start);
  }
}

TEST(TraceCollector, FreshCollectorDoesNotInheritThreadCaches) {
  // Two collectors used back to back from the same threads (including pool
  // workers) must keep their spans separate, even though a new collector
  // may be allocated where a destroyed one lived.
  for (int round = 0; round < 8; ++round) {
    trace::TraceCollector collector(1, 4);
    ThreadPool::shared().parallel_for(8, [&](std::size_t i) {
      collector.record(make_span("r", i, 0.0, 1.0));
    });
    EXPECT_EQ(collector.merged().spans.size(), 8u) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Scheduler span emission
// ---------------------------------------------------------------------------

TEST(TraceSchedule, CleanScheduleSpansDecomposeExactly) {
  const std::vector<double> durations{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  std::vector<cluster::ScheduledAttempt> attempts;
  const cluster::FaultInjector fault_free{cluster::FaultPlan{}};
  const double makespan =
      cluster::list_schedule_makespan(durations, 3, fault_free, 0, nullptr, &attempts)
          .makespan;
  ASSERT_EQ(attempts.size(), durations.size());
  double max_end = 0.0;
  std::vector<std::vector<std::pair<double, double>>> per_slot(3);
  for (const auto& a : attempts) {
    EXPECT_LT(a.slot, 3u);
    EXPECT_DOUBLE_EQ(a.end - a.start, durations[a.task]);
    EXPECT_EQ(a.outcome, trace::SpanOutcome::kOk);
    max_end = std::max(max_end, a.end);
    per_slot[a.slot].push_back({a.start, a.end});
  }
  EXPECT_DOUBLE_EQ(max_end, makespan);
  // No two attempts overlap on one slot.
  for (auto& intervals : per_slot) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second);
    }
  }
}

TEST(TraceSchedule, FaultyScheduleEmitsEveryAttempt) {
  cluster::FaultPlan plan;
  plan.seed = 99;
  plan.task_crash_probability = 0.3;
  plan.max_attempts = 4;
  plan.retry_backoff_s = 1.0;
  const cluster::FaultInjector faults(plan);
  const std::vector<double> durations(32, 2.0);
  std::vector<cluster::ScheduledAttempt> attempts;
  const auto outcome =
      cluster::list_schedule_makespan(durations, 8, faults, 7, nullptr, &attempts);
  ASSERT_TRUE(outcome.success);
  // One emitted span per launched attempt, exactly.
  EXPECT_EQ(attempts.size(), outcome.attempts);
  // Emission is a pure observation: rerunning without the sink gives the
  // same outcome arithmetic.
  const auto untraced = cluster::list_schedule_makespan(durations, 8, faults, 7);
  EXPECT_DOUBLE_EQ(untraced.makespan, outcome.makespan);
  EXPECT_EQ(untraced.attempts, outcome.attempts);
  EXPECT_DOUBLE_EQ(untraced.wasted_seconds, outcome.wasted_seconds);
  // Every task's final attempt succeeds; earlier ones are failures.
  double max_end = 0.0;
  std::size_t failed = 0;
  for (const auto& a : attempts) {
    max_end = std::max(max_end, a.end);
    if (a.outcome == trace::SpanOutcome::kFailed) ++failed;
  }
  EXPECT_DOUBLE_EQ(max_end, outcome.makespan);
  EXPECT_EQ(failed, outcome.attempts - durations.size());
}

TEST(TraceSchedule, SpeculationEmitsWinnerAndLoser) {
  cluster::FaultPlan plan;
  plan.seed = 5;
  plan.straggler_probability = 1.0;
  plan.straggler_slowdown = 4.0;
  plan.speculative_execution = true;
  plan.speculation_threshold = 1.5;
  const cluster::FaultInjector faults(plan);
  const std::vector<double> durations(4, 1.0);
  std::vector<cluster::ScheduledAttempt> attempts;
  const auto outcome =
      cluster::list_schedule_makespan(durations, 8, faults, 3, nullptr, &attempts);
  ASSERT_TRUE(outcome.success);
  ASSERT_EQ(outcome.speculative_clones, 4u);
  ASSERT_EQ(attempts.size(), 8u);  // 4 primaries + 4 clones
  for (std::size_t task = 0; task < 4; ++task) {
    const auto primary = std::find_if(
        attempts.begin(), attempts.end(), [task](const cluster::ScheduledAttempt& a) {
          return a.task == task && !a.speculative;
        });
    const auto clone = std::find_if(
        attempts.begin(), attempts.end(), [task](const cluster::ScheduledAttempt& a) {
          return a.task == task && a.speculative;
        });
    ASSERT_NE(primary, attempts.end());
    ASSERT_NE(clone, attempts.end());
    EXPECT_NE(primary->slot, clone->slot);
    // Exactly one of the pair wins; the clone here (full speed beats the
    // 4x-slowed primary), and the loser's span is truncated at the win.
    EXPECT_EQ(clone->outcome, trace::SpanOutcome::kOk);
    EXPECT_EQ(primary->outcome, trace::SpanOutcome::kSpeculativeLoser);
    EXPECT_DOUBLE_EQ(primary->end, clone->end);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, ExportIsValidJsonWithOneTrackPerSlot) {
  trace::TaskTimeline timeline;
  timeline.node_count = 2;
  timeline.slots_per_node = 3;
  timeline.spans.push_back(make_span("A/map \"quoted\"\\", 0, 0.0, 1.5, 0));
  timeline.spans.push_back(make_span("A/map", 1, 0.5, 2.0, 4));
  timeline.spans.back().outcome = trace::SpanOutcome::kFailed;

  std::ostringstream out;
  trace::write_chrome_trace(out, timeline);
  const std::string json = out.str();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  // One thread_name metadata event per (node, slot) — 6 tracks — plus one
  // process_name per node.
  std::size_t thread_names = 0;
  std::size_t process_names = 0;
  std::size_t complete_events = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"", pos)) != std::string::npos;
       pos += 6) {
    const char kind = json[pos + 6];
    if (kind != 'M') {
      if (kind == 'X') ++complete_events;
      continue;
    }
    const std::size_t name_pos = json.find("\"name\":\"", pos);
    if (json.compare(name_pos + 8, 11, "thread_name") == 0) ++thread_names;
    if (json.compare(name_pos + 8, 12, "process_name") == 0) ++process_names;
  }
  EXPECT_EQ(thread_names, 6u);
  EXPECT_EQ(process_names, 2u);
  EXPECT_EQ(complete_events, timeline.spans.size());

  // Slot 4 maps to node 1 (pid 2), local slot 1 (tid 2).
  EXPECT_NE(json.find("\"pid\":2,\"tid\":2,\"ts\":500000"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Skew summary
// ---------------------------------------------------------------------------

TEST(SkewSummary, PercentilesAndStragglers) {
  trace::TaskTimeline timeline;
  timeline.node_count = 1;
  timeline.slots_per_node = 4;
  // 19 one-second tasks plus one 10-second straggler.
  for (int i = 0; i < 19; ++i) {
    timeline.spans.push_back(make_span("map", static_cast<std::uint64_t>(i),
                                       0.0, 1.0));
  }
  timeline.spans.push_back(make_span("map", 19, 0.0, 10.0));
  timeline.spans.push_back(make_span("reduce", 0, 1.0, 3.0));
  timeline.spans.back().outcome = trace::SpanOutcome::kSpeculativeLoser;

  const auto rows = trace::skew_summary(timeline);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].phase, "map");  // first-appearance order
  EXPECT_EQ(rows[0].attempts, 20u);
  EXPECT_DOUBLE_EQ(rows[0].min_s, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].p50_s, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].p95_s, 1.0);   // nearest-rank: ceil(0.95*20)=19th of 20
  EXPECT_DOUBLE_EQ(rows[0].max_s, 10.0);
  EXPECT_EQ(rows[0].stragglers, 1u);      // only the 10s task exceeds 1.5*p50
  EXPECT_EQ(rows[0].failed, 0u);
  EXPECT_EQ(rows[1].phase, "reduce");
  EXPECT_EQ(rows[1].attempts, 1u);
  EXPECT_EQ(rows[1].spec_losers, 1u);
  EXPECT_DOUBLE_EQ(rows[1].p50_s, 2.0);
  EXPECT_EQ(rows[1].stragglers, 0u);

  // The formatted table carries every phase row and the max/p50 hotspot
  // ratio column (10.0 / 1.0 for the map phase).
  const std::string table = trace::format_skew_table(timeline);
  EXPECT_NE(table.find("map"), std::string::npos);
  EXPECT_NE(table.find("reduce"), std::string::npos);
  EXPECT_NE(table.find("ratio"), std::string::npos);
  EXPECT_NE(table.find("10.00"), std::string::npos) << table;
}

TEST(SkewSummary, PhaseSkewRatio) {
  std::vector<trace::PhaseSkew> rows(3);
  rows[0].phase = "local-join";
  rows[0].p50_s = 2.0;
  rows[0].max_s = 9.0;
  rows[1].phase = "parse";
  rows[1].p50_s = 0.0;
  rows[1].max_s = 1.0;
  rows[2].phase = "A.text.parse.join.local-join";
  rows[2].p50_s = 1.0;
  rows[2].max_s = 3.0;
  EXPECT_DOUBLE_EQ(trace::phase_skew_ratio(rows, "local-join"), 4.5);  // exact match wins
  EXPECT_DOUBLE_EQ(trace::phase_skew_ratio(rows, "join.local-join"), 3.0);  // suffix
  EXPECT_DOUBLE_EQ(trace::phase_skew_ratio(rows, "parse"), 0.0);  // median 0
  EXPECT_DOUBLE_EQ(trace::phase_skew_ratio(rows, "absent"), 0.0);
}

TEST(SkewSummary, RepartitionAndPlanFooters) {
  trace::TaskTimeline timeline;
  timeline.node_count = 1;
  timeline.slots_per_node = 1;
  timeline.spans.push_back(make_span("map", 0, 0.0, 1.0));

  // No adaptive counters -> no footers (the gates are the counters that are
  // >= 1 whenever the feature ran: repartition.rounds and plan.chosen).
  std::map<std::string, std::uint64_t> counters;
  std::string table = trace::format_skew_table(timeline, counters);
  EXPECT_EQ(table.find("repartition:"), std::string::npos);
  EXPECT_EQ(table.find("plan:"), std::string::npos);

  counters["repartition.rounds"] = 2;
  counters["repartition.splits"] = 3;
  counters["repartition.cells"] = 25;
  counters["repartition.migrated_records"] = 1200;
  counters["repartition.migrated_bytes"] = 56000;
  counters["plan.chosen"] = 2;
  counters["plan.predicted_cost"] = 40;
  counters["plan.predicted_broadcast"] = 40;
  counters["plan.predicted_partitioned"] = 90;
  counters["plan.actual_cost"] = 45;
  table = trace::format_skew_table(timeline, counters);
  EXPECT_NE(table.find("repartition: 2 rounds | 3 splits -> 25 cells"),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("migrated 1200 records / 56000 bytes"), std::string::npos);
  EXPECT_NE(table.find("plan: broadcast | predicted 40 ms (broadcast 40 / "
                       "partitioned 90) | actual 45 ms"),
            std::string::npos)
      << table;
  EXPECT_EQ(table.find("fallback"), std::string::npos);

  counters["plan.chosen"] = 1;
  counters["plan.fallback"] = 1;
  table = trace::format_skew_table(timeline, counters);
  EXPECT_NE(table.find("plan: partitioned"), std::string::npos) << table;
  EXPECT_NE(table.find("| fallback"), std::string::npos) << table;
}

}  // namespace
}  // namespace sjc
