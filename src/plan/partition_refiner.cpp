#include "plan/partition_refiner.hpp"

#include <algorithm>

namespace sjc::plan {

std::vector<std::uint32_t> hot_cells(const std::vector<CellLoad>& loads) {
  std::vector<std::uint64_t> occupied;
  occupied.reserve(loads.size());
  for (const auto& load : loads) {
    if (load.records > 0) occupied.push_back(load.records);
  }
  if (occupied.empty()) return {};

  // Nearest-rank median over the non-empty cells: empty cells say nothing
  // about balance (a sparse scheme legitimately has many), and counting
  // them would drag the median to 0 and flag every occupied cell.
  const std::size_t mid = occupied.size() / 2;
  std::nth_element(occupied.begin(), occupied.begin() + static_cast<std::ptrdiff_t>(mid),
                   occupied.end());
  const double threshold = std::max(kHotspotFactor * static_cast<double>(occupied[mid]),
                                    static_cast<double>(kMinHotCellRecords));
  std::vector<std::uint32_t> hot;
  for (std::uint32_t id = 0; id < loads.size(); ++id) {
    if (static_cast<double>(loads[id].records) > threshold) hot.push_back(id);
  }
  std::sort(hot.begin(), hot.end(), [&loads](std::uint32_t a, std::uint32_t b) {
    if (loads[a].records != loads[b].records) return loads[a].records > loads[b].records;
    return a < b;
  });
  if (hot.size() > kMaxSplitsPerRound) hot.resize(kMaxSplitsPerRound);
  return hot;
}

std::vector<geom::Envelope> PartitionRefiner::split_cell(
    const geom::Envelope& cell, partition::PartitionerKind kind) {
  const double mx = 0.5 * (cell.min_x() + cell.max_x());
  const double my = 0.5 * (cell.min_y() + cell.max_y());
  // A midpoint equal to an edge means the axis is degenerate (zero width at
  // double precision) — splitting there would mint empty duplicate cells.
  const bool split_x = mx > cell.min_x() && mx < cell.max_x();
  const bool split_y = my > cell.min_y() && my < cell.max_y();
  if (!split_x && !split_y) return {cell};

  if (kind == partition::PartitionerKind::kFixedGrid && split_x && split_y) {
    // Quad-split at the midpoint, quadrant order SW, SE, NW, NE.
    return {
        {cell.min_x(), cell.min_y(), mx, my},
        {mx, cell.min_y(), cell.max_x(), my},
        {cell.min_x(), my, mx, cell.max_y()},
        {mx, my, cell.max_x(), cell.max_y()},
    };
  }
  // Node-split for STR (and the degenerate-axis grid case): halve the
  // longer splittable axis.
  const bool along_x =
      split_x && (!split_y || cell.width() >= cell.height());
  if (along_x) {
    return {{cell.min_x(), cell.min_y(), mx, cell.max_y()},
            {mx, cell.min_y(), cell.max_x(), cell.max_y()}};
  }
  return {{cell.min_x(), cell.min_y(), cell.max_x(), my},
          {cell.min_x(), my, cell.max_x(), cell.max_y()}};
}

RefineResult PartitionRefiner::refine(const partition::PartitionScheme& scheme,
                                      const LoadProbe& probe) const {
  RefineResult result{scheme, 0, 0, 0, 0};

  for (std::uint32_t round = 0; round < kMaxRefineRounds; ++round) {
    std::vector<CellLoad> loads = probe(result.scheme);
    ++result.rounds;
    const std::vector<std::uint32_t> hot = hot_cells(loads);
    if (hot.empty()) break;

    std::vector<geom::Envelope> cells = result.scheme.cells();
    std::uint64_t split_count = 0;
    for (const std::uint32_t id : hot) {
      const auto children = split_cell(cells[id], kind_);
      if (children.size() < 2) continue;  // degenerate cell, nothing to split
      ++split_count;
      result.migrated_records += loads[id].records;
      result.migrated_bytes += loads[id].bytes;
      // First child takes the parent's id slot (unsplit cells keep their
      // ids); the rest append.
      cells[id] = children[0];
      cells.insert(cells.end(), children.begin() + 1, children.end());
    }
    if (split_count == 0) break;
    result.splits += split_count;
    // Each split's children cover their parent cell, so a tiling stays one.
    result.scheme = result.scheme.tiles_extent()
                        ? partition::PartitionScheme(std::move(cells), result.scheme.extent(),
                                                     partition::PartitionScheme::TilesExtent{})
                        : partition::PartitionScheme(std::move(cells), result.scheme.extent());
  }
  return result;
}

void record_repartition_counters(const RefineResult& result,
                                 cluster::Counters& counters) {
  counters.add("repartition.rounds", result.rounds);
  counters.add("repartition.splits", result.splits);
  counters.add("repartition.cells", result.scheme.cell_count());
  counters.add("repartition.migrated_records", result.migrated_records);
  counters.add("repartition.migrated_bytes", result.migrated_bytes);
}

}  // namespace sjc::plan
