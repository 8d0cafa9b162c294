#include "plan/skew_monitor.hpp"

#include <algorithm>

namespace sjc::plan {

HotspotReport SkewMonitor::analyze(const std::vector<CellLoad>& loads) const {
  HotspotReport report;
  std::vector<std::uint64_t> occupied;
  occupied.reserve(loads.size());
  for (const auto& load : loads) {
    if (load.records > 0) occupied.push_back(load.records);
    report.max_records = std::max(report.max_records, load.records);
  }
  if (occupied.empty()) return report;

  // Nearest-rank median over the non-empty cells: empty cells say nothing
  // about balance (a sparse scheme legitimately has many), and counting
  // them would drag the median to 0 and flag every occupied cell.
  const std::size_t mid = occupied.size() / 2;
  std::nth_element(occupied.begin(),
                   occupied.begin() + static_cast<std::ptrdiff_t>(mid),
                   occupied.end());
  report.median_records = static_cast<double>(occupied[mid]);
  if (report.median_records > 0.0) {
    report.max_over_median =
        static_cast<double>(report.max_records) / report.median_records;
  }

  const double factor = std::max(policy_.hotspot_factor, 1.0);
  const double threshold =
      std::max(factor * report.median_records,
               static_cast<double>(policy_.min_cell_records));
  for (std::uint32_t id = 0; id < loads.size(); ++id) {
    if (static_cast<double>(loads[id].records) > threshold) {
      report.hot_cells.push_back(id);
    }
  }
  std::sort(report.hot_cells.begin(), report.hot_cells.end(),
            [&loads](std::uint32_t a, std::uint32_t b) {
              if (loads[a].records != loads[b].records) {
                return loads[a].records > loads[b].records;
              }
              return a < b;
            });
  if (report.hot_cells.size() > policy_.max_splits_per_round) {
    report.hot_cells.resize(policy_.max_splits_per_round);
  }
  return report;
}

double phase_skew_ratio(const std::vector<trace::PhaseSkew>& rows,
                        std::string_view phase) {
  // RDD stage names carry the full lineage prefix
  // ("A.text.parse.assign.groupByKey.join.local-join"), so accept a
  // suffix-qualified match too; when several stages share the suffix, the
  // one with the most task attempts is the join stage being asked about.
  const trace::PhaseSkew* best = nullptr;
  for (const auto& row : rows) {
    const bool exact = row.phase == phase;
    const bool suffix = row.phase.size() > phase.size() + 1 &&
                        row.phase[row.phase.size() - phase.size() - 1] == '.' &&
                        row.phase.compare(row.phase.size() - phase.size(),
                                          phase.size(), phase) == 0;
    if (exact) { best = &row; break; }
    if (suffix && (!best || row.attempts > best->attempts)) best = &row;
  }
  if (!best) return 0.0;
  return best->p50_s > 0.0 ? best->max_s / best->p50_s : 0.0;
}

}  // namespace sjc::plan
