"""Folds the raw document printed by sjc_perfbench into the benchmark's metrics.

End-to-end metrics come from the untraced loop; per-layer metrics from the
traced loop, the layer replays and the rusage of the untraced loop. Also
checks the outputs: operation outcomes (counted by the binary), the
deterministic counter class, the phase->layer fold, and reports the
schedule-dependent and measured spreads plus the paper-shape diagnostic.
"""

import math
import re
import statistics
from collections import defaultdict

# Systems with a join_ms end-to-end metric. HadoopGIS never completes a
# join (every cell ends in the paper's broken pipe), so its time to that
# failure is the per-layer mapreduce.hadoopgis_fail_ms.
JOIN_SYSTEMS = ("SpatialHadoop", "SpatialSpark")
CLUSTER_ORDER = ("EC2-10", "EC2-8", "EC2-6", "WS")  # expected SpatialHadoop ordering
# Tail percentile cap: at p99 a microsecond lookup's tail is set by whether a
# timer interrupt lands in it, which differs from run to run.
TAIL_CAP = 95.0

# Every PhaseReport / TaskSpan name the three systems emit maps to exactly one
# module layer. A name matching no rule, or more than one, fails the run.
FOLD = (
    ("workload", r"[AB]/1-convert/map|[AB]\.text\.parse"),
    ("dfs", r"[AB]\.read|dfs/re-replicate\[node\d+\]"),
    ("partition", r"[AB]/2-sample/map|[AB]/3-extent/(map|reduce)|[AB]/4-normalize/map"
                  r"|[AB]/5-local-partition|[AB]/6-assign/map|join/a-joint-partition"
                  r"|[AB]/sample/map|[AB]/master-partition|[AB]/partition/map"
                  r"|[AB]\.text\.parse\.sample(\.collect)?|driver\.partition|scheme"
                  r"|[AB]\.(text\.parse|resident)\.assign"),
    ("plan", r"[AB]/skew-refine|join/a1-skew-refine|driver\.skew-refine"),
    ("geom", r"[AB]/filter-build|join/a2-filter-build|filter\.build|sfilter\.[AB]"),
    ("mapreduce", r"[AB]/6-assign/reduce|[AB]/partition/reduce"),
    ("rdd", r"[AB]\.(text\.parse|resident)\.assign\.groupByKey(\.join)?|result\.aggregate"
            r"|.+\.recompute\[node\d+\]"),
    ("index", r"join/getSplits|driver\.build-right-index|right-index"),
    ("core", r"join/local/map|join/b-distributed-join/(map|reduce)|join/c-dedup/(map|reduce)"
             r"|.+\.local-join|local-join\.aggregate|.*broadcast-join(\.aggregate)?"),
)
LAYERS = tuple(layer for layer, _ in FOLD)
_FOLD_RE = tuple((layer, re.compile(pattern)) for layer, pattern in FOLD)

# Counter determinism classes; every counter not listed here is deterministic.
SCHEDULE_DEPENDENT = ("join.prepared_cache_hits", "join.prepared_cache_misses")
MEASURED = ("plan.predicted_cost", "plan.actual_cost")


class CheckFailed(Exception):
    pass


def layer_of(phase):
    hits = [layer for layer, rx in _FOLD_RE if rx.fullmatch(phase)]
    if len(hits) != 1:
        raise CheckFailed(f"phase {phase!r} maps to {len(hits)} layers {hits}")
    return hits[0]


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it, capped at TAIL_CAP, and never below the median (too few samples)."""
    n = len(values)
    if n == 0:
        return 50.0, 0.0
    pct = min(TAIL_CAP, max(50.0, math.floor(100.0 * (n - 10) / n)))
    if pct == 50.0:
        return pct, median(values)
    index = max(0, math.ceil(pct / 100.0 * n) - 1)  # nearest rank
    return pct, sorted(values)[index]


def dataset_mean(joins, value):
    """Mean over the run's datasets of value(the joins on one dataset). Each
    dataset has its own hotspot layout, so a median over all joins would
    jump between datasets as the mix of passes shifts."""
    groups = defaultdict(list)
    for j in joins:
        groups[j["dataset"]].append(j)
    return statistics.fmean(value(g) for _, g in sorted(groups.items())) if groups else 0.0


def by_pass(joins):
    passes = defaultdict(list)
    for j in joins:
        passes[j["pass"]].append(j)
    return [passes[p] for p in sorted(passes)]


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def deterministic_signature(j):
    counters = tuple(sorted((k, v) for k, v in j["counters"].items()
                            if k not in SCHEDULE_DEPENDENT and k not in MEASURED))
    phases = tuple((p["name"], p["read"], p["written"], p["shuffled"], p["tasks"], p["attempts"])
                   for p in j["phases"])
    return (j["status"], j["count"], j["hash"], j["attempts"], counters, phases)


def check_determinism(loops, lines):
    """Deterministic-class values must repeat exactly for every operation on
    the same cell of the same dataset, across passes and between traced and
    untraced loops."""
    groups = defaultdict(list)
    for loop in loops:
        for j in loop["joins"]:
            groups[(j["system"], j["cluster"], j["dataset"])].append(j)
    violations = []
    for key, joins in sorted(groups.items()):
        first = deterministic_signature(joins[0])
        for j in joins[1:]:
            if deterministic_signature(j) != first:
                violations.append(f"{key[0]}/{key[1]} dataset {key[2]} pass {j['pass']} "
                                  f"traced={j['traced']}")
    lines.append(f"determinism: {sum(len(v) for v in groups.values())} join records over "
                 f"{len(groups)} cell x dataset groups, {len(violations)} deterministic-class "
                 f"mismatches")
    for v in violations:
        lines.append(f"  mismatch: {v}")

    # Schedule-dependent and measured classes: reported with their spread.
    for key, joins in sorted(groups.items()):
        ok = [j for j in joins if j["status"] == "OK"]
        if not ok:
            continue
        parts = []
        for name in SCHEDULE_DEPENDENT:
            vals = [j["counters"].get(name, 0) for j in ok]
            parts.append(f"{name.split('.')[-1]} {min(vals)}..{max(vals)}")
        sims = [j["sim_s"] for j in ok]
        parts.append(f"sim_s {min(sims):.1f}..{max(sims):.1f}")
        lines.append(f"  spread {key[0]}/{key[1]} dataset {key[2]} (n={len(ok)}): "
                     + ", ".join(parts))
    return len(violations)


def shape_diagnostic(joins, lines):
    """Report-only: SpatialHadoop EC2-10 < EC2-8 < EC2-6 < WS, and
    SpatialSpark < SpatialHadoop on EC2-10 (median sim seconds per cell)."""
    cell = defaultdict(list)
    for j in joins:
        if j["status"] == "OK":
            cell[(j["system"], j["cluster"])].append(j["sim_s"])
    sim = {k: median(v) for k, v in cell.items()}
    violations = []
    for lo, hi in zip(CLUSTER_ORDER, CLUSTER_ORDER[1:]):
        a, b = sim.get(("SpatialHadoop", lo)), sim.get(("SpatialHadoop", hi))
        if a is not None and b is not None and not a < b:
            violations.append(f"SpatialHadoop {lo} {a:,.0f} >= {hi} {b:,.0f} sim-s")
    a, b = sim.get(("SpatialSpark", "EC2-10")), sim.get(("SpatialHadoop", "EC2-10"))
    if a is not None and b is not None and not a < b:
        violations.append(f"SpatialSpark EC2-10 {a:,.0f} >= SpatialHadoop EC2-10 {b:,.0f} sim-s")
    lines.append(f"shape_violations: {len(violations)} (report-only)")
    for v in violations:
        lines.append(f"  {v}")


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced loop)
# ---------------------------------------------------------------------------

def sim_seconds(joins, system, resident):
    """Modeled seconds of a system, the median per dataset averaged over the
    datasets: per resident join, or summed over a cold pass's successful
    cells (one Table-2 row)."""
    def per_dataset(group):
        if resident:
            return median([j["sim_s"] for j in group
                           if j["system"] == system and j["status"] == "OK"])
        return median([sum(j["sim_s"] for j in p if j["system"] == system and j["status"] == "OK")
                       for p in by_pass(group)])
    return dataset_mean(joins, per_dataset)


def system_ms(joins, system):
    """Host milliseconds of a system's joins: the median per dataset,
    averaged over the datasets (0 when the system did not run)."""
    return dataset_mean(joins, lambda g: median(
        [j["host_ms"] for j in g if j["system"] == system]))


def end_to_end(doc, loop, resident, lines):
    joins = loop["joins"]
    passes = by_pass(joins)
    m = {}
    m["setup_s"] = (median(doc["setup_s"]), "s")
    m["ops_per_s"] = (loop["ops"] / loop["elapsed_s"], "1/s")
    # Peak RSS of each pass (cold) or round (resident), from VmHWM reset
    # before it: the median per dataset, averaged over the datasets.
    pass_rss = loop["peak_rss_bytes"]  # indexed by pass
    m["peak_rss_mb"] = (dataset_mean(
        [p[0] for p in passes],
        lambda g: median([pass_rss[j["pass"]] for j in g])) / 2**20, "MB")
    for system in JOIN_SYSTEMS:
        m[f"join_ms.{system}"] = (system_ms(joins, system), "ms")
    tail_ms = [j["host_ms"] for j in joins]
    pct, value = tail(tail_ms)
    m["join_tail_ms"] = (value, "ms")
    lines.append(f"join_tail_ms is p{pct:g} of n={len(tail_ms)} joins")
    m["sim_s.SpatialHadoop"] = (sim_seconds(joins, "SpatialHadoop", resident), "s")
    lines.append(f"passes: {len(passes)} in {loop['elapsed_s']:.2f} s, ops: {loop['ops']}")
    rss = ", ".join(f"{b / 2**20:.1f}" for b in loop["peak_rss_bytes"])
    lines.append(f"peak RSS per pass: {rss} MB; process peak {doc['peak_rss_bytes'] / 2**20:.1f} MB")
    return m


# ---------------------------------------------------------------------------
# Per-layer metrics (traced loop + replays)
# ---------------------------------------------------------------------------

def is_mr_phase(system, name):
    return system in ("HadoopGIS", "SpatialHadoop") and "/" in name


def pass_layers(joins):
    """Per-layer sums over one pass of traced joins: task CPU from the spans
    (one entry per phase name), modeled bytes and seconds from the phases."""
    s = defaultdict(float)
    layer_cpu = defaultdict(float)
    for j in joins:
        for phase, span in j.get("spans", {}).items():
            layer_cpu[layer_of(phase)] += span["cpu_s"]
            if is_mr_phase(j["system"], phase):
                if phase.endswith("/map"):
                    s["mapreduce.map_cpu_s"] += span["cpu_s"]
                elif phase.endswith("/reduce"):
                    s["mapreduce.reduce_cpu_s"] += span["cpu_s"]
            if j["system"] == "SpatialSpark":
                s["rdd.stage_cpu_s"] += span["cpu_s"]
        for p in j["phases"]:
            name = p["name"]
            if layer_of(name) == "geom":
                s["geom.filter_build_sim_s"] += p["sim_s"]
            s["dfs.bytes_read"] += p["read"]
            s["dfs.bytes_written"] += p["written"]
            if is_mr_phase(j["system"], name):
                s["mapreduce.shuffle_bytes"] += p["shuffled"]
                if not name.endswith(("/map", "/reduce")):
                    s["mapreduce.master_sim_s"] += p["sim_s"]
            if j["system"] == "SpatialSpark":
                s["rdd.shuffle_bytes"] += p["shuffled"]
        s["cluster.task_attempts"] += j["attempts"]
    return s, layer_cpu


def per_layer(doc, loops, resident, lines):
    untraced, traced = loops[0], loops[1]
    replay = doc["replay"]
    joins = traced["joins"]
    m = {}
    sums = defaultdict(list)
    fold_cpu = defaultdict(float)
    for p in by_pass(joins):
        s, layer_cpu = pass_layers(p)
        for key in ("dfs.bytes_read", "dfs.bytes_written", "mapreduce.shuffle_bytes",
                    "mapreduce.map_cpu_s", "mapreduce.reduce_cpu_s", "mapreduce.master_sim_s",
                    "rdd.stage_cpu_s", "rdd.shuffle_bytes", "cluster.task_attempts",
                    "geom.filter_build_sim_s"):
            sums[key].append(s[key])
        sums["workload.parse_cpu_s"].append(layer_cpu["workload"])
        sums["geom.filter_build_cpu_s"].append(layer_cpu["geom"])
        sums["core.local_join_cpu_s"].append(layer_cpu["core"])
        for layer in LAYERS:
            fold_cpu[layer] += layer_cpu[layer]
    fold_total = sum(fold_cpu.values())

    m["workload.generate_s"] = (median(doc["generate_s"]), "s")
    m["workload.parse_cpu_s"] = (median(sums["workload.parse_cpu_s"]), "s")
    m["partition.assign_cpu_s"] = (replay["assign_cpu_s"], "s")
    m["partition.assign_ns_per_record"] = (replay["assign_ns_per_record"], "ns")
    m["partition.sample_scheme_cpu_s"] = (replay["sample_scheme_cpu_s"], "s")
    m["partition.dup_ratio"] = (replay["dup_ratio"], "ratio")
    m["geom.filter_build_cpu_s"] = (median(sums["geom.filter_build_cpu_s"]), "s")
    m["geom.filter_build_sim_s"] = (median(sums["geom.filter_build_sim_s"]), "s")

    ok = [j for j in joins if j["status"] == "OK"]
    def total_counter(name):
        return sum(j["counters"].get(name, 0) for j in ok)
    assigned = total_counter("shuffle.assigned_records")
    m["geom.filter_prune_ratio"] = (
        total_counter("shuffle.filtered_records") / assigned if assigned else 0.0, "ratio")

    # PreparedCache: resident entries report their own cache; cold runs
    # report hits/misses as counters and the replay gives evictions.
    if resident:
        n_joins = max(1, len(ok))
        hits = sum(c["hits"] for c in traced["cache"].values()) / n_joins
        misses = sum(c["misses"] for c in traced["cache"].values()) / n_joins
        evictions = sum(c["evictions"] for c in traced["cache"].values()) / n_joins
    else:
        n_pass = max(1, len(by_pass(joins)))
        hits = total_counter("join.prepared_cache_hits") / n_pass
        misses = total_counter("join.prepared_cache_misses") / n_pass
        evictions = replay["cache_evictions"]
    m["geom.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["geom.cache_misses"] = (misses, "count")
    m["geom.cache_evictions"] = (evictions, "count")
    m["geom.cache_acquire_ns"] = (replay["cache_acquire_ns"], "ns")

    m["geom.refine_ns_per_candidate"] = (replay["refine_ns_per_candidate"], "ns")
    candidates = total_counter("refine.candidates")
    early = total_counter("refine.early_accepts") + total_counter("refine.early_rejects")
    exact = total_counter("refine.exact_tests")
    m["geom.refine_early_ratio"] = (early / candidates if candidates else 0.0, "ratio")
    m["geom.exact_slowpath_ratio"] = (
        total_counter("refine.exact_slowpath") / exact if exact else 0.0, "ratio")

    m["index.mbr_ns_per_candidate"] = (replay["mbr_ns_per_candidate"], "ns")
    m["index.candidates_per_result"] = (replay["candidates_per_result"], "ratio")
    m["index.range_us"] = (replay["range_us"], "us")
    m["index.knn_us"] = (replay["knn_us"], "us")

    m["core.local_join_cpu_s"] = (median(sums["core.local_join_cpu_s"]), "s")
    m["core.dedup_ratio"] = (replay["dedup_ratio"], "ratio")

    m["mapreduce.map_cpu_s"] = (median(sums["mapreduce.map_cpu_s"]), "s")
    m["mapreduce.reduce_cpu_s"] = (median(sums["mapreduce.reduce_cpu_s"]), "s")
    m["mapreduce.shuffle_bytes"] = (median(sums["mapreduce.shuffle_bytes"]), "bytes")
    m["mapreduce.master_sim_s"] = (median(sums["mapreduce.master_sim_s"]), "s")
    m["mapreduce.hadoopgis_fail_ms"] = (system_ms(untraced["joins"], "HadoopGIS"), "ms")
    m["mapreduce.max_pipe_bytes"] = (
        max((j["max_pipe_bytes"] for j in joins if j["system"] == "HadoopGIS"), default=0), "bytes")

    m["rdd.stage_cpu_s"] = (median(sums["rdd.stage_cpu_s"]), "s")
    m["rdd.shuffle_bytes"] = (median(sums["rdd.shuffle_bytes"]), "bytes")
    m["rdd.sim_s"] = (sim_seconds(joins, "SpatialSpark", resident), "s")
    m["rdd.peak_memory_bytes"] = (
        max((j["peak_memory_bytes"] for j in joins if j["system"] == "SpatialSpark"), default=0),
        "bytes")

    m["dfs.bytes_read"] = (median(sums["dfs.bytes_read"]), "bytes")
    m["dfs.bytes_written"] = (median(sums["dfs.bytes_written"]), "bytes")

    m["cluster.task_attempts"] = (median(sums["cluster.task_attempts"]), "count")
    ratios = []
    for j in ok:
        for phase, row in j.get("skew", {}).items():
            if layer_of(phase) == "core" and row["p50_s"] > 0:
                ratios.append(row["max_s"] / row["p50_s"])
    m["cluster.local_join_tail_ratio"] = (median(ratios), "ratio")

    # Serving: resident workload only (empty, so 0, on the cold ones). Lookup
    # latency is client-side, submit to result, from the untraced loop.
    lookups = traced["lookups"]
    serving = {"join": (traced["join_queue_ms"], traced["join_service_ms"]),
               "range": (lookups["range"]["queue_ms"], lookups["range"]["service_ms"]),
               "knn": (lookups["knn"]["queue_ms"], lookups["knn"]["service_ms"])}
    for kind, (queue, service) in serving.items():
        m[f"serving.queue_ms_p50.{kind}"] = (median(queue), "ms")
        m[f"serving.service_ms_p50.{kind}"] = (median(service), "ms")
    for kind in ("range", "knn"):
        us = untraced["lookups"][kind]["us"]
        pct, value = tail(us)
        m[f"serving.{kind}_p50_us"] = (median(us), "us")
        m[f"serving.{kind}_tail_us"] = (value, "us")
        lines.append(f"serving.{kind}_tail_us is p{pct:g} of a {len(us)}-lookup sample "
                     f"(n={untraced['lookups'][kind]['count']})")
    m["serving.rejected"] = (traced["rejected"], "count")

    usage = untraced["usage"]
    m["proc.user_cpu_s"] = (usage["user_s"], "s")
    m["proc.sys_cpu_s"] = (usage["sys_s"], "s")
    m["proc.voluntary_ctx_switches"] = (usage["voluntary_ctx"], "count")
    m["proc.involuntary_ctx_switches"] = (usage["involuntary_ctx"], "count")

    m["trace.overhead_ratio"] = ((traced["ops"] / traced["elapsed_s"]) /
                                 (untraced["ops"] / untraced["elapsed_s"]), "ratio")

    lines.append(f"layer fold over {fold_total:.3f} task CPU-s (traced loop):")
    for layer in LAYERS:
        share = fold_cpu[layer] / fold_total if fold_total else 0.0
        m[f"fold.{layer}.cpu_share"] = (share, "ratio")
        lines.append(f"  {layer:<10} {fold_cpu[layer]:9.3f} s  {100 * share:5.1f}%")
    if not replay["pairs_match_reference"]:
        raise CheckFailed("layer replay's distinct refined pairs differ from the reference")
    if not replay["lookups_match"]:
        raise CheckFailed("a replayed lookup differs from its brute-force answer")
    return m


def analyze(doc):
    """Returns (human-readable lines, result dict for the last output line)."""
    counts = ", ".join(f"{c:,}" for c in doc["reference"]["counts"])
    lines = [f"workload {doc['workload']} seed {doc['seed']} scale {doc['scale']:g}: "
             f"{doc['datasets']} datasets of {doc['left_records']:,} x "
             f"{doc['right_records']:,} records, reference {counts} pairs"]
    loops = doc["loops"]
    resident = doc["workload"].startswith("resident")
    attempted = sum(loop["ops"] for loop in loops)
    failed = sum(loop["wrong"] for loop in loops)
    correct = failed == 0
    try:
        if check_determinism(loops, lines):
            correct = False
        if not resident:
            shape_diagnostic(loops[0]["joins"], lines)
        e2e = end_to_end(doc, loops[0], resident, lines)
        metrics = per_layer(doc, loops, resident, lines) if doc["trace"] else e2e
        if doc["trace"]:
            lines.append("per-layer metrics:")
        else:
            lines.append("end-to-end metrics:")
    except CheckFailed as err:
        lines.append(f"check failed: {err}")
        correct = False
        metrics = {}
    lines.append(f"error_share: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result
