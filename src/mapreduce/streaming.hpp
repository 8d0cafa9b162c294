// Hadoop Streaming jobs — the HadoopGIS execution model, as a text-line job
// spec on the Hadoop job runner (map_reduce.hpp).
//
// Under Hadoop Streaming, mapper and reducer are external processes wired
// up with text pipes: every record crosses each stage boundary as one tab-
// separated line, is re-serialized and re-parsed on each side, and the
// framework only sees opaque lines whose key is the text before the first
// tab. The spec reproduces the three consequences the paper highlights:
//
//  * string serialization overhead — user map/reduce functions receive and
//    emit std::string lines, and the very real parse cost lands in measured
//    task CPU time;
//  * pipe copy overhead — bytes crossing a task's stdin+stdout are charged
//    at kPipeBandwidth;
//  * broken pipes — a task whose pipe volume (at paper magnitude) exceeds
//    MrConfig::pipe_capacity_bytes throws BrokenPipe, which is how HadoopGIS
//    dies on the full datasets (Table 2) and on EC2 for the samples
//    (Table 3).
//
// A line is one record everywhere: it reads, spills, shuffles and writes its
// bytes plus a newline. A reduce task sorts its lines whole and byte-wise,
// as `sort` does, and hands the whole bucket to one reducer call. Run it with
// run_map_reduce, or run_map_only for "-numReduceTasks 0".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/map_reduce.hpp"

namespace sjc::mapreduce {

/// Key of a streaming line: the text before the first tab (whole line when
/// no tab).
inline std::string_view streaming_key(std::string_view line) {
  return line.substr(0, line.find('\t'));
}

/// The reduce task, of `reducers`, that a streaming key goes to.
inline std::size_t streaming_reducer(std::string_view key, std::uint32_t reducers) {
  return std::hash<std::string_view>{}(key) % reducers;
}

/// Mapper process: one input line -> zero or more "key\tvalue" lines.
using StreamingMapFn = std::function<void(const std::string&, std::vector<std::string>&)>;

struct StreamingSpec {
  using InType = std::string;
  using SplitType = std::vector<std::string>;
  using Item = std::string;
  using OutType = std::string;
  /// Every line a task reads or writes crosses its pipes.
  static constexpr bool kPipes = true;

  std::string name;
  /// Per-task mapper factory, invoked once per map task *inside the task's
  /// timing*, so per-task setup (e.g. HadoopGIS rebuilding its partition
  /// R-tree in every mapper) is charged faithfully.
  std::function<StreamingMapFn(std::size_t task_id)> make_mapper;
  /// Reducer process: all lines of its bucket, sorted by key (whole line
  /// order, as `sort` would produce) -> output lines.
  std::function<void(const std::vector<std::string>&, std::vector<std::string>&)> reduce;
  MrConfig config;

  auto task_mapper(std::size_t task) const {
    // A full job needs its reducer too: checked here, before any phase books.
    require(static_cast<bool>(reduce), "StreamingSpec: reduce must be set");
    return [mapper = checked_mapper(task)](const std::string& line, const auto& emit) {
      // Reused per-record emit buffer: thread_local so a pool thread keeps
      // the vector's capacity across records AND tasks (lines are moved out
      // per record, so only the capacity persists).
      static thread_local std::vector<std::string> emitted;
      emitted.clear();
      mapper(line, emitted);
      for (auto& out : emitted) emit(std::move(out));
    };
  }
  void map_split(std::size_t task, const std::vector<std::string>& lines,
                 std::vector<std::string>& out) const {
    const StreamingMapFn mapper = checked_mapper(task);
    for (const auto& line : lines) mapper(line, out);
  }
  void reduce_bucket(std::vector<std::string>& lines, std::vector<std::string>& out) const {
    std::sort(lines.begin(), lines.end());
    reduce(lines, out);
  }
  static std::uint64_t input_bytes(const std::string& line) { return line.size() + 1; }
  static std::uint64_t item_bytes(const std::string& line) { return line.size() + 1; }
  static std::uint64_t output_bytes(const std::string& line) { return line.size() + 1; }
  static std::uint64_t split_bytes(const std::vector<std::string>& lines) {
    std::uint64_t bytes = 0;
    for (const auto& line : lines) bytes += line.size() + 1;
    return bytes;
  }
  static std::size_t reducer_of(const std::string& line, std::uint32_t reducers) {
    return streaming_reducer(streaming_key(line), reducers);
  }

 private:
  StreamingMapFn checked_mapper(std::size_t task) const {
    require(static_cast<bool>(make_mapper), "StreamingSpec: make_mapper must be set");
    return make_mapper(task);
  }
};

}  // namespace sjc::mapreduce
