// Hadoop-style named counters.
//
// Jobs accumulate counts (records read, duplicates removed, candidate
// pairs, refined pairs) that the paper's analysis reasons about
// qualitatively; counters make them measurable per run.
//
// One writer: a report's Counters is written only by the thread that drives
// its run, between the run's jobs, so it holds no lock. Work done on pool
// threads is tallied where it runs (core::ShuffleTally's shards, each local
// join task's core::LocalJoinScratch) and written here once its job's tasks
// are done.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace sjc::cluster {

class Counters {
 public:
  void add(const std::string& name, std::uint64_t delta) { values_[name] += delta; }

  std::uint64_t get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  std::map<std::string, std::uint64_t> snapshot() const { return values_; }

  void merge(const Counters& other) {
    for (const auto& [name, value] : other.values_) values_[name] += value;
  }

 private:
  std::map<std::string, std::uint64_t> values_;
};

}  // namespace sjc::cluster
