"""Shared definitions of the CHARISMA benchmark: workloads, metrics, output
checks, span arithmetic and spread statistics.

run.py measures one workload; steadiness.py runs every workload many times
and compares sets of runs.  Both read their definitions from here, and the
tests in tests/ exercise this module alone (no build needed).
"""

import hashlib
import re
import statistics

# Workloads.  A NAS study's size depends on its seed: at scale 0.2 its
# trace holds 0.76-1.6 M records and its peak RSS runs 144-228 MiB.  If a
# run measured --seed alone, the spread across runs would be the spread of
# the inputs.  So a NAS run measures one seed derived from --seed and picked
# by size: `candidates` derived seeds are sized by three counts of the
# generated (not simulated) workload, and the one nearest to `size` in all
# of them is measured (size_distance).  `ops` counts every op of every job;
# simulation time and nas-replay's log follow it.  `traced_data_ops` counts
# the reads and writes of traced jobs; the trace and peak RSS follow it.
# `traced_data_bytes` counts the bytes they move; the cache sweep's block
# accesses follow it (at matched ops and data ops, 64-109 M accesses and a
# 1.4-2.6 s sweep).  Matching fewer counts leaves the others spread.
# `size` holds each count's median over 800 seeds (640 for nas-campaign's
# four studies), so every run measures a typical input.  --seed itself is
# still run and checked, untimed.  checkpoint-sweep's size does not depend
# on its seed, so it measures --seed.
# `pool` is the parallel width the per-layer efficiencies divide by.
# `gated` workloads are the ones BENCHMARK.json lists; checkpoint-sweep and
# nas-replay run by hand only (README.md, "Workloads", says why).
WORKLOADS = {
    "nas-study": {
        "why": "the paper end to end: streamed NAS study, every analyzer "
               "and fidelity band, then the 28-point cache sweep on a "
               "4-thread pool",
        "size": {"ops": 2_477_000, "traced_data_ops": 1_077_000,
                 "traced_data_bytes": 8_774_000_000},
        "candidates": 80,
        "pool": 4,
        "gated": True,
    },
    "nas-campaign": {
        "why": "four seeds through CampaignRunner on one worker with an 8 MiB "
               "spill budget: core, the spill disk tier and figure export",
        "size": {"ops": 4_864_000, "traced_data_ops": 2_119_000,
                 "traced_data_bytes": 18_007_000_000},
        "candidates": 32,
        "pool": 1,
        "gated": True,
    },
    "checkpoint-sweep": {
        "why": "Daly checkpoint writes that miss every I/O-node cache: the "
               "single-thread sweep's miss/evict path is ~90% of the run",
        "pool": 1,
        "gated": False,
    },
    "nas-replay": {
        "why": "the same workload replayed from a chwl log: the workload "
               "module's load and re-parse dominate, the cache does nothing",
        "size": {"ops": 2_477_000, "traced_data_ops": 1_077_000,
                 "traced_data_bytes": 8_774_000_000},
        "candidates": 80,
        "pool": 1,
        "gated": False,
    },
}
GATED = [w for w, spec in WORKLOADS.items() if spec["gated"]]

# A run repeats the iteration of its measured seed until --seconds have
# passed (preparation included), but at least MIN_REPEATS and at most
# MAX_ITERATIONS times, and reports medians over them.  The host's speed
# moves by ~10 % from one iteration to the next and in phases of tens of
# seconds (README.md, "Host noise"); the median of a run held steadier than
# its fastest iteration, which jumps with the odd lucky one.
MIN_REPEATS = 3
MAX_ITERATIONS = 200

# (name, unit, better, bound).  A bound is the share of the parent's median
# by which a change may worsen the metric.  The time bounds are wide because
# the host's slow phases move whole runs, and nas-campaign's peak RSS moves
# with which two studies happen to run together (README.md, "Steadiness").
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("outputs_ok", "bool", "higher", 0.01),
]

# (name, unit, better).  Times are self times of the traced run's spans.
PER_LAYER = [
    ("workload.load_s", "s", "lower"),
    ("workload.drain_s", "s", "lower"),
    ("workload.jobs", "count", "lower"),
    ("workload.ops", "count", "lower"),
    ("workload.retries", "count", "lower"),
    ("workload.io_errors", "count", "lower"),
    ("workload.input_bytes", "B", "lower"),
    ("workload.input_gen_s", "s", "lower"),
    ("ipsc.build_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.end_us", "us", "lower"),
    ("cfs.ionode_requests", "count", "lower"),
    ("cfs.ionode_hits", "count", "higher"),
    ("cfs.ionode_hit_ratio", "ratio", "higher"),
    ("cfs.disk_reads", "count", "lower"),
    ("cfs.disk_writes", "count", "lower"),
    ("cfs.files", "count", "lower"),
    ("disk.requests", "count", "lower"),
    ("disk.bytes", "B", "lower"),
    ("disk.busy_fraction", "ratio", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.collector_messages", "count", "lower"),
    ("trace.bytes", "B", "lower"),
    ("trace.digest_s", "s", "lower"),
    ("trace.merge_s", "s", "lower"),
    ("trace.merge_read_s", "s", "lower"),
    ("trace.spill_write_s", "s", "lower"),
    ("trace.append_stall_s", "s", "lower"),
    ("trace.spill_bytes_written", "B", "lower"),
    ("trace.spill_bytes_read", "B", "lower"),
    ("trace.blocks_mem", "count", "higher"),
    ("trace.blocks_disk", "count", "lower"),
    ("trace.peak_rss_mb", "MiB", "lower"),
    ("analysis.sessions_s", "s", "lower"),
    ("analysis.rate_sinks_s", "s", "lower"),
    ("analysis.analyzers_s", "s", "lower"),
    ("analysis.figures_s", "s", "lower"),
    ("analysis.fidelity_s", "s", "lower"),
    ("analysis.sessions", "count", "lower"),
    ("analysis.fidelity_outside", "count", "lower"),
    ("cache.ops_sink_s", "s", "lower"),
    ("cache.log_build_s", "s", "lower"),
    ("cache.replay_ops", "count", "lower"),
    ("cache.sweep_s", "s", "lower"),
    ("cache.fig8_s", "s", "lower"),
    ("cache.fig9_lru_s", "s", "lower"),
    ("cache.fig9_fifo_s", "s", "lower"),
    ("cache.fig9_topology_s", "s", "lower"),
    ("cache.sec48_s", "s", "lower"),
    ("cache.sweep_serial_s", "s", "lower"),
    ("cache.sweep_parallel_eff", "ratio", "higher"),
    ("cache.passes", "count", "lower"),
    ("cache.io_block_accesses", "count", "lower"),
    ("cache.io_block_hit_ratio", "ratio", "higher"),
    ("cache.io_request_hit_ratio", "ratio", "higher"),
    ("cache.compute_hit_ratio", "ratio", "higher"),
    ("cache.peak_rss_mb", "MiB", "lower"),
    ("core.campaign_run_s", "s", "lower"),
    ("core.study_serial_s", "s", "lower"),
    ("core.parallel_eff", "ratio", "higher"),
    ("core.summarize_s", "s", "lower"),
    ("core.fold_s", "s", "lower"),
    ("core.export_s", "s", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
]

DEFAULT_SEED = 42
# Chosen before any of the benchmark's code was tuned, and not used while
# writing it; checked exactly like the default seed.
HELD_OUT_SEED = 1994

# Outputs pinned at the default and the held-out seed (the first, un-derived
# sub-seed of a run).  Campaign digests are for seeds s .. s+3 at scale 0.1.
# The held-out NAS study has 2 of its fidelity bands outside today; that is
# pinned as measured, not tuned away.
PINNED = {
    "nas-study": {
        42: {"digests": ["0x5d6c862d0a86afe1"], "fidelity_outside": 0},
        1994: {"digests": ["0x07833a31d92a6f81"], "fidelity_outside": 2},
    },
    "nas-replay": {
        42: {"digests": ["0x5d6c862d0a86afe1"], "fidelity_outside": 0},
        1994: {"digests": ["0x07833a31d92a6f81"], "fidelity_outside": 2},
    },
    "checkpoint-sweep": {
        42: {"digests": ["0xec99b0606f1167e3"]},
        1994: {"digests": ["0x78dbd42ae2957700"]},
    },
    "nas-campaign": {
        42: {"digests": ["0x22b4c23a996ccfed", "0x87520f3273d9da2a",
                         "0xed2cff7569fcd2e5", "0xe9bb25b29cd725dc"]},
        1994: {"digests": ["0xb5aa7af8bdb80e9f", "0xa8dbcc1fac7bf4a7",
                           "0x0adbd4d1f4b427b5", "0xbc25502fd41c68dc"]},
    },
}

# What every iteration's identity must carry: (fidelity bands, has sweep).
# nas-replay collects no replay ops, so the two fig8 cache bands are absent.
EXPECTED_SHAPE = {
    "nas-study": (33, True),
    "nas-replay": (31, False),
    "checkpoint-sweep": (None, True),
    "nas-campaign": (None, True),
}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_name(name):
    """Metric and workload names: a letter or digit, then at most 63 of
    letters, digits, '_', '.', '-'."""
    return bool(_NAME.match(name))


def valid_unit(unit):
    return bool(_UNIT.match(unit))


def subseeds(seed, count):
    """The seeds one run measures: `seed` itself, then seeds derived from it
    by hashing, so neighbouring --seed values share no inputs."""
    out = [seed]
    i = 1
    while len(out) < count:
        digest = hashlib.sha256(f"{seed}/{i}".encode()).digest()
        derived = int.from_bytes(digest[:4], "little") & 0x7FFFFFFF
        if derived not in out:
            out.append(derived)
        i += 1
    return out


def size_distance(size, target):
    """The largest relative miss of `size` over the counts `target` names."""
    return max(abs(size[k] - v) / v for k, v in target.items())


def sized_subseed(seed, target, candidates, size_of):
    """Of `candidates` seeds derived from `seed`, the one nearest to
    `target` by size_distance.  `size_of(seeds)` returns each seed's counts
    as a dict."""
    pool = subseeds(seed, candidates + 1)[1:]
    size = dict(zip(pool, size_of(pool)))
    return min(pool, key=lambda s: (size_distance(size[s], target), s))


def end_to_end_metrics(samples, outputs_ok):
    """The end-to-end metrics of one run from its iterations' (wall s,
    CPU s, peak RSS MiB, set-up s) samples: the median of each."""
    return {
        "wall_s": statistics.median(x[0] for x in samples),
        "cpu_s": statistics.median(x[1] for x in samples),
        "peak_rss_mb": statistics.median(x[2] for x in samples),
        "setup_s": statistics.median(x[3] for x in samples),
        "outputs_ok": 1 if outputs_ok else 0,
    }


# --- Span arithmetic ------------------------------------------------------

def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo >= end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = _union_length(
            (max(spans[c]["start"], start), min(spans[c]["end"], end))
            for c in children.get(i, []))
        out.append((end - start) - covered)
    return out


def totals_by_name(spans):
    """{name: (summed self time, summed duration)} over every span."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        self_sum, dur_sum = totals.get(span["name"], (0.0, 0.0))
        totals[span["name"]] = (self_sum + own,
                                dur_sum + span["end"] - span["start"])
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(workload, traced, traced_wall_s, untraced_wall_s,
                      input_bytes=0, input_gen_s=0.0):
    """The per-layer metrics of one traced iteration.  A layer the workload
    does not exercise reads 0."""
    totals = totals_by_name(traced["spans"])
    c = traced["counters"]

    def own(name):
        return totals.get(name, (0.0, 0.0))[0]

    def count(name):
        return c.get(name, 0)

    bare_merge = own("trace.merge")
    has_bare = "trace.merge" in totals

    def over_bare(name):
        return own(name) - bare_merge if has_bare and name in totals else 0.0

    subsets = ["cache.fig8", "cache.fig9_lru", "cache.fig9_fifo",
               "cache.fig9_topology", "cache.sec48"]
    sweep_serial = sum(own(n) for n in subsets)
    sweep = own("cache.sweep")
    pool = WORKLOADS[workload]["pool"]
    campaign_run = own("core.campaign_run")
    study_serial = totals.get("core.study_serial", (0.0, 0.0))[1]
    sim_run = own("sim.run")
    m = {
        "workload.load_s": own("workload.load"),
        "workload.drain_s": own("workload.drain"),
        "workload.jobs": count("workload.jobs"),
        "workload.ops": count("workload.ops"),
        "workload.retries": count("workload.retries"),
        "workload.io_errors": count("workload.io_errors"),
        "workload.input_bytes": input_bytes,
        "workload.input_gen_s": input_gen_s,
        "ipsc.build_s": own("ipsc.build"),
        "sim.run_s": sim_run,
        "sim.events": count("sim.events"),
        "sim.events_per_s": _ratio(count("sim.events"), sim_run),
        "sim.end_us": count("sim.end_us"),
        "cfs.ionode_requests": count("cfs.ionode_requests"),
        "cfs.ionode_hits": count("cfs.ionode_hits"),
        "cfs.ionode_hit_ratio": _ratio(count("cfs.ionode_hits"),
                                       count("cfs.ionode_requests")),
        "cfs.disk_reads": count("cfs.disk_reads"),
        "cfs.disk_writes": count("cfs.disk_writes"),
        "cfs.files": count("cfs.files"),
        "disk.requests": count("disk.requests"),
        "disk.bytes": count("disk.bytes"),
        "disk.busy_fraction": _ratio(count("disk.busy_us"),
                                     count("disk.span_us")),
        "trace.records": count("trace.records"),
        "trace.collector_messages": count("trace.collector_messages"),
        "trace.bytes": count("trace.bytes"),
        "trace.digest_s": own("trace.digest"),
        "trace.merge_s": bare_merge,
        "trace.merge_read_s": count("trace.merge_read_s"),
        "trace.spill_write_s": count("trace.spill_write_s"),
        "trace.append_stall_s": count("trace.append_stall_s"),
        "trace.spill_bytes_written": count("trace.spill_bytes_written"),
        "trace.spill_bytes_read": count("trace.spill_bytes_read"),
        "trace.blocks_mem": count("trace.blocks_mem"),
        "trace.blocks_disk": count("trace.blocks_disk"),
        "trace.peak_rss_mb": count("trace.peak_rss_mb"),
        "analysis.sessions_s": over_bare("analysis.sessions_merge"),
        "analysis.rate_sinks_s": over_bare("analysis.rate_sinks_merge"),
        "analysis.analyzers_s": own("analysis.analyzers"),
        "analysis.figures_s": own("analysis.figures"),
        "analysis.fidelity_s": own("analysis.fidelity"),
        "analysis.sessions": count("analysis.sessions"),
        "analysis.fidelity_outside": count("analysis.fidelity_outside"),
        "cache.ops_sink_s": over_bare("cache.ops_sink_merge"),
        "cache.log_build_s": own("cache.log_build"),
        "cache.replay_ops": count("cache.replay_ops"),
        "cache.sweep_s": sweep,
        "cache.fig8_s": own("cache.fig8"),
        "cache.fig9_lru_s": own("cache.fig9_lru"),
        "cache.fig9_fifo_s": own("cache.fig9_fifo"),
        "cache.fig9_topology_s": own("cache.fig9_topology"),
        "cache.sec48_s": own("cache.sec48"),
        "cache.sweep_serial_s": sweep_serial,
        "cache.sweep_parallel_eff": _ratio(sweep_serial, pool * sweep),
        "cache.passes": count("cache.passes"),
        "cache.io_block_accesses": count("cache.io_block_accesses"),
        "cache.io_block_hit_ratio": _ratio(count("cache.io_block_hits"),
                                           count("cache.io_block_accesses")),
        "cache.io_request_hit_ratio": _ratio(count("cache.io_request_hits"),
                                             count("cache.io_requests")),
        "cache.compute_hit_ratio": _ratio(count("cache.compute_hits"),
                                          count("cache.compute_reads")),
        "cache.peak_rss_mb": count("cache.peak_rss_mb"),
        "core.campaign_run_s": campaign_run,
        "core.study_serial_s": study_serial,
        "core.parallel_eff": _ratio(study_serial, pool * campaign_run),
        "core.summarize_s": own("core.summarize"),
        "core.fold_s": own("core.fold"),
        "core.export_s": own("core.export"),
        "bench.tracing_overhead_s": traced_wall_s - untraced_wall_s,
    }
    return m


# --- Output checks --------------------------------------------------------

def check_identity(workload, seed, identity, reference=None):
    """Failures of one iteration at `seed` (an empty list when it passed).
    `reference` is the reference run's identity at the same seed: the
    synthetic study for nas-replay (the chwl round trip), each study run
    alone for nas-campaign."""
    failures = []
    bands, has_sweep = EXPECTED_SHAPE[workload]
    if bands is not None and identity.get("fidelity_bands") != bands:
        failures.append(f"{identity.get('fidelity_bands')} fidelity bands "
                        f"checked, expected {bands}")
    if has_sweep != ("sweep" in identity):
        failures.append("sweep results missing" if has_sweep
                        else "unexpected sweep results")
    pin = PINNED[workload].get(seed)
    if pin is not None:
        if identity.get("digests") != pin["digests"]:
            failures.append(f"digests {identity.get('digests')} != pinned "
                            f"{pin['digests']} at seed {seed}")
        if ("fidelity_outside" in pin and
                identity.get("fidelity_outside") != pin["fidelity_outside"]):
            failures.append(f"{identity.get('fidelity_outside')} fidelity "
                            f"bands outside, pinned {pin['fidelity_outside']}")
    if (reference is not None and
            identity.get("digests") != reference["digests"]):
        failures.append(f"digests {identity.get('digests')} != reference "
                        f"{reference['digests']}")
    return failures


def compare_identity(timed, traced):
    """Mismatches between a timed and a traced iteration of one seed."""
    keys = sorted(set(timed) | set(traced))
    return [f"{k}: timed {timed.get(k)!r} != traced {traced.get(k)!r}"
            for k in keys if timed.get(k) != traced.get(k)]


def result(failures, attempted, failed, values, trace):
    """run.py's output line: every per-layer metric with --trace 1, every
    end-to-end metric otherwise, each with its unit."""
    specs = PER_LAYER if trace else END_TO_END
    metrics = {}
    if values is not None:
        metrics = {spec[0]: {"value": values[spec[0]], "unit": spec[1]}
                   for spec in specs}
    return {"correct": not failures and values is not None,
            "attempted": attempted, "failed": failed, "metrics": metrics}


# --- Spread statistics ----------------------------------------------------

def spread(values):
    """Median, quartiles and (Q3 - Q1) / median as
    statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    rel = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": rel,
            "n": len(values)}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)
