// sjc_perfbench: generates one workload from a seed, computes its
// reference answers, runs the timed client loop (and, with --trace 1, a
// traced loop plus the layer replays), and prints one JSON document of raw
// results on stdout. perfbench/run.py builds this binary and folds the
// document into the benchmark's metrics.
//
//   sjc_perfbench --workload cold-taxi-nycb --seed 1 --seconds 20 --trace 0
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "common.hpp"
#include "loops.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "util/bench_io.hpp"

namespace pb {

namespace {

using sjc::core::JoinPredicate;
using sjc::workload::DatasetId;

constexpr WorkloadSpec kWorkloads[] = {
    {"cold-taxi-nycb", DatasetId::kTaxi, DatasetId::kNycb, JoinPredicate::kWithin, 1e-3, false},
    {"cold-edge-linearwater", DatasetId::kEdges, DatasetId::kLinearwater,
     JoinPredicate::kIntersects, 1e-3, false},
    {"resident-serving", DatasetId::kEdges, DatasetId::kLinearwater,
     JoinPredicate::kIntersects, 1e-3, true},
};

// The seed names kDatasets datasets, each with its own hotspot layout; the
// timed loops give each an equal share of the run, so that one layout's
// skew moves the figures less.
constexpr std::size_t kDatasets = 4;
constexpr std::size_t kLookupPool = 1024;  // per dataset
constexpr int kReplayReps = 3;
constexpr std::size_t kSetups = 11;  // set-up repetitions; setup_s is their median

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.spec = find_workload(value);
      if (opt.spec == nullptr) return false;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return opt.spec != nullptr && argc % 2 == 1 && opt.seconds > 0.0;
}

void emit_lookups(Json& j, const LoopResult& loop, bool knn) {
  std::vector<double> us;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  for (const auto& s : loop.lookups[knn].kept) {
    us.push_back(s.latency_us);
    queue_ms.push_back(s.queue_ms);
    service_ms.push_back(s.service_ms);
  }
  j.key(knn ? "knn" : "range").begin_object().field("count", loop.lookups[knn].seen);
  j.numbers("us", us).numbers("queue_ms", queue_ms).numbers("service_ms", service_ms);
  j.end_object();
}

void emit_loop(Json& j, const LoopResult& loop) {
  j.begin_object()
      .field("traced", loop.traced)
      .field("elapsed_s", loop.elapsed_s)
      .field("ops", loop.ops)
      .field("wrong", loop.wrong)
      .field("rejected", loop.rejected);
  j.key("usage")
      .begin_object()
      .field("user_s", loop.usage.user_s)
      .field("sys_s", loop.usage.sys_s)
      .field("voluntary_ctx", loop.usage.voluntary_ctx)
      .field("involuntary_ctx", loop.usage.involuntary_ctx)
      .end_object();
  j.key("cache").begin_object();
  for (const auto& [entry, c] : loop.cache) {
    j.key(entry)
        .begin_object()
        .field("hits", c.hits)
        .field("misses", c.misses)
        .field("evictions", c.evictions)
        .end_object();
  }
  j.end_object();
  j.numbers("peak_rss_bytes", loop.peak_rss_bytes);
  j.numbers("join_queue_ms", loop.join_queue_ms).numbers("join_service_ms", loop.join_service_ms);
  j.key("lookups").begin_object();
  emit_lookups(j, loop, false);
  emit_lookups(j, loop, true);
  j.end_object();
  j.key("joins").begin_array();
  for (const auto& record : loop.joins) j.raw(record);
  j.end_array();
  j.end_object();
}

void emit_replay(Json& j, const ReplayResult& r, const LookupTiming& lookups) {
  j.key("replay")
      .begin_object()
      .field("sample_scheme_cpu_s", r.sample_scheme_cpu_s)
      .field("assign_cpu_s", r.assign_cpu_s)
      .field("assign_ns_per_record", r.assign_ns_per_record)
      .field("dup_ratio", r.dup_ratio)
      .field("mbr_ns_per_candidate", r.mbr_ns_per_candidate)
      .field("candidates_per_result", r.candidates_per_result)
      .field("refine_ns_per_candidate", r.refine_ns_per_candidate)
      .field("dedup_ratio", r.dedup_ratio)
      .field("cache_acquire_ns", r.cache_acquire_ns)
      .field("cache_hits", r.cache_hits)
      .field("cache_misses", r.cache_misses)
      .field("cache_evictions", r.cache_evictions)
      .field("pairs_match_reference", r.pairs_match_reference)
      .field("range_us", lookups.range_us)
      .field("knn_us", lookups.knn_us)
      .field("lookups_match", lookups.answers_match)
      .end_object();
}

int run(const Options& opt) {
  const WorkloadSpec& spec = *opt.spec;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  Json j;
  j.begin_object()
      .field("workload", spec.name)
      .field("seed", opt.seed)
      .field("trace", opt.trace)
      .field("seconds", opt.seconds)
      .field("scale", spec.scale)
      .field("datasets", kDatasets);

  // ---- set-up: generate dataset d (and install its resident catalog) ------
  // Set-ups for the untraced loop are timed. Generation is memory-bound and
  // the host's speed for it drifts over seconds, so on the cold workloads a
  // set-up also runs between passes (outside their timing); more run after
  // the loop until there are kSetups of them.
  std::unique_ptr<sjc::serving::ResidentCatalog> catalog;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  const auto dataset_seed = [&](std::size_t d) { return opt.seed * kDatasets + d; };
  const auto set_up = [&](std::size_t d, bool traced) {
    const double t0 = now_s();
    sjc::workload::WorkloadConfig wc;
    wc.scale = spec.scale;
    wc.seed = dataset_seed(d);
    Inputs fresh{sjc::workload::generate(spec.left, wc), sjc::workload::generate(spec.right, wc)};
    const double generated = now_s() - t0;
    if (spec.resident) {
      catalog.reset();
      catalog = std::make_unique<sjc::serving::ResidentCatalog>();
      install_resident(*catalog, spec, fresh, traced);
    }
    if (!traced) {
      generate_s.push_back(generated);
      setup_s.push_back(now_s() - t0);
    }
    return fresh;
  };

  // ---- reference answers per dataset (outside every timed region) ---------
  std::vector<Reference> refs;
  std::vector<std::vector<Lookup>> lookups;
  double ref_seconds = 0.0;
  const auto reference = [&](std::size_t d, const Inputs& inputs) {
    if (d < refs.size()) return;
    const double t0 = now_s();
    refs.push_back(reference_join(inputs, spec.predicate, threads));
    if (spec.resident) {
      lookups.push_back(make_lookups(inputs, dataset_seed(d), kLookupPool, threads));
    }
    ref_seconds += now_s() - t0;
  };

  // ---- timed loops: one equal share of the seconds per dataset -------------
  Inputs inputs;
  const auto run_loop = [&](bool traced) {
    LoopResult loop;
    loop.traced = traced;
    for (std::size_t d = 0; d < kDatasets; ++d) {
      inputs = set_up(d, traced);
      reference(d, inputs);
      const double share = opt.seconds / kDatasets;
      if (spec.resident) {
        warm_resident(*catalog, spec);
        run_resident(spec, d, *catalog, refs[d], lookups[d], share, loop);
      } else {
        for (double elapsed = 0.0; elapsed < share;) {
          elapsed += run_cold_pass(spec, inputs, d, refs[d], loop);
          if (!traced && elapsed < share && setup_s.size() < kSetups) (void)set_up(d, false);
        }
      }
    }
    return loop;
  };
  std::vector<LoopResult> loops;
  loops.push_back(run_loop(false));
  j.field("left_records", inputs.left.size()).field("right_records", inputs.right.size());
  for (std::size_t d = 0; setup_s.size() < kSetups; ++d) (void)set_up(d % kDatasets, false);
  j.numbers("setup_s", setup_s).numbers("generate_s", generate_s);
  if (opt.trace) loops.push_back(run_loop(true));
  j.key("loops").begin_array();
  for (const auto& loop : loops) emit_loop(j, loop);
  j.end_array();
  j.key("reference").begin_object().key("counts").begin_array();
  for (const auto& ref : refs) j.value(static_cast<std::uint64_t>(ref.count));
  j.end_array().field("seconds", ref_seconds).end_object();

  // ---- layer replays on the last dataset (traced run only) -----------------
  if (opt.trace) {
    const std::size_t last = kDatasets - 1;
    const auto cluster =
        spec.resident ? resident_cluster() : sjc::cluster::ClusterSpec::ec2(10);
    const ReplayResult replay = replay_layers(spec, inputs, cluster, refs[last], kReplayReps);
    const LookupTiming timing =
        spec.resident
            ? time_entry_lookups(*catalog->find("SpatialHadoop"), lookups[last])
            : time_tree_lookups(inputs,
                                make_lookups(inputs, dataset_seed(last), kLookupPool, threads));
    emit_replay(j, replay, timing);
  }

  j.field("peak_rss_bytes", sjc::peak_rss_bytes());
  j.end_object();
  std::cout << j.str() << '\n';
  return 0;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  if (!pb::parse(argc, argv, opt)) {
    std::cerr << "usage: sjc_perfbench --workload <cold-taxi-nycb|cold-edge-linearwater|"
                 "resident-serving> --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  try {
    return pb::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "sjc_perfbench: " << e.what() << '\n';
    return 1;
  }
}
