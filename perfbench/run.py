#!/usr/bin/env python3
"""Runs one workload of the CHARISMA benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> [--seed 42] [--seconds 50]
                             [--trace 0|1]

Run it from the root of a checkout.  It first builds perfbench/ (which
builds the library from src/) with CMake into $CARGO_TARGET_DIR, default
.bench_build, and keeps its inputs and spill files under .bench_work/.

A NAS run measures one seed derived from --seed and picked by size
(benchlib.WORKLOADS says how); checkpoint-sweep measures --seed.  Where
--seed's outputs are pinned and it is not the measured seed, it also runs
once, untimed, and is checked.  Each iteration is one child process that
repeats the set-up phase for a moment and then runs and times the
workload.  The run repeats the iteration until --seconds have passed since
the build (preparation included), at least benchlib.MIN_REPEATS times.
wall_s, cpu_s and peak_rss_mb are medians over the iterations; setup_s is
the median over the iterations of each one's median set-up repeat.  With
--trace 1 it then runs one traced iteration of the measured seed and prints
the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

class ChildFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the driver; exits 1 if either step fails."""
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(build_dir)  # configured for another checkout
    log_path = os.path.join(os.path.abspath(build_root),
                            "perfbench_build.log")
    tmp = os.path.join(os.path.abspath(build_root), "tmp")
    os.makedirs(build_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # the compiler's scratch files too
    for cmd in (["cmake", "-S", HERE, "-B", build_dir],
                ["cmake", "--build", build_dir, "-j",
                 str(os.cpu_count() or 1)]):
        with open(log_path, "w") as out:
            status = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=env).returncode
        if status != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    return os.path.join(build_dir, "perfbench_driver")


class Driver:
    """Runs perfbench_driver children, one at a time."""

    def __init__(self, path, workload, work_dir):
        self.path = path
        self.workload = workload
        self.work_dir = work_dir
        tmp = os.path.join(work_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ, TMPDIR=tmp)

    def run(self, mode, seed, chwl=None, extra=()):
        """(parsed JSON, wall seconds of the whole child)."""
        cmd = [self.path, mode, f"--workload={self.workload}",
               f"--seed={seed}", f"--work={self.work_dir}", *extra]
        if chwl is not None:
            cmd.append(f"--log={chwl}")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env)
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.kill()  # interrupted: leave no child running
            proc.wait()
            raise
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} at seed {seed} exited "
                              f"{proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise ChildFailed(f"{mode} at seed {seed} printed nothing")
        return json.loads(lines[-1]), wall


def measure(driver, workload, seed, deadline, trace):
    spec = benchlib.WORKLOADS[workload]
    if "size" in spec:
        def size_of(pool):
            out, _ = driver.run(
                "size", seed, extra=[f"--seeds={','.join(map(str, pool))}"])
            return [{k: out[k][i] for k in spec["size"]}
                    for i in range(len(pool))]
        measured = benchlib.sized_subseed(seed, spec["size"],
                                          spec["candidates"], size_of)
    else:
        measured = seed
    failures = []

    # --seed runs once, untimed, where its outputs are pinned.  Every other
    # check runs on the measured seed's iterations.
    check = measured != seed and seed in benchlib.PINNED[workload]

    # Inputs first, outside every timed span: nas-replay's chwl logs.
    logs, inputs = {}, {}
    if workload == "nas-replay":
        for s in [measured] + ([seed] if check else []):
            logs[s] = os.path.join(driver.work_dir, f"nas-replay-{s}.chwl")
            made, _ = driver.run("export", s, logs[s])
            inputs[s] = (made["log_bytes"], made["gen_s"])
            log(f"input seed {s}: {made['log_bytes']} B chwl log in "
                f"{made['gen_s']:.3f} s")

    reference = None
    if workload in ("nas-replay", "nas-campaign"):
        reference, _ = driver.run("reference", measured)

    identities = {}
    attempted = failed = 0
    last = [0.0]  # wall seconds of the latest child

    def iterate(s):
        """One iteration's (wall, cpu, rss, set-up) sample; None if it
        failed to run."""
        nonlocal attempted, failed
        attempted += 1
        try:
            out, last[0] = driver.run("timed", s, logs.get(s))
        except ChildFailed as e:
            failed += 1
            failures.append(str(e))
            return None
        identity = out["identity"]
        problems = benchlib.check_identity(
            workload, s, identity, reference if s == measured else None)
        if s in identities and identities[s] != identity:
            problems.append(f"seed {s} gave different outputs on a repeat")
        identities.setdefault(s, identity)
        if problems:
            failed += 1
            failures.extend(problems)
        setup = statistics.median(out["setup_s"])
        log(f"seed {s}: wall {out['wall_s']:.3f} s, cpu {out['cpu_s']:.3f} "
            f"s, rss {out['peak_rss_mb']:.1f} MiB, set-up {setup:.6g} s "
            f"(median of {len(out['setup_s'])}), digests "
            f"{identity.get('digests')}")
        return out["wall_s"], out["cpu_s"], out["peak_rss_mb"], setup

    if check:
        iterate(seed)

    # As many iterations as fit in the run (benchlib.MIN_REPEATS says why).
    samples = []
    while len(samples) < benchlib.MIN_REPEATS or (
            time.perf_counter() + last[0] < deadline and
            attempted < benchlib.MAX_ITERATIONS):
        sample = iterate(measured)
        if sample is not None:
            samples.append(sample)
        elif attempted >= benchlib.MAX_ITERATIONS:
            break
    if not samples:
        return attempted, failed, failures, None

    end_to_end = benchlib.end_to_end_metrics(samples, not failures)
    if not trace:
        return attempted, failed, failures, end_to_end

    attempted += 1
    try:
        traced, _ = driver.run("traced", measured, logs.get(measured))
    except ChildFailed as e:
        failed += 1
        failures.append(str(e))
        return attempted, failed, failures, None
    if measured in identities:
        mismatches = benchlib.compare_identity(identities[measured],
                                               traced["identity"])
    else:
        mismatches = ["no timed iteration to compare the traced one with"]
    if mismatches:
        failed += 1
        failures.extend("traced run differs: " + m for m in mismatches)
    input_bytes, input_gen_s = inputs.get(measured, (0, 0.0))
    per_layer = benchlib.per_layer_metrics(
        workload, traced, traced["wall_s"], end_to_end["wall_s"], input_bytes,
        input_gen_s)
    return attempted, failed, failures, per_layer


def main():
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    deadline = time.perf_counter() + args.seconds  # preparation included
    work_dir = os.path.abspath(os.path.join(
        ".bench_work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(work_dir, exist_ok=True)
    try:
        attempted, failed, failures, values = measure(
            Driver(binary, args.workload, work_dir), args.workload, args.seed,
            deadline, args.trace == 1)
    except ChildFailed as e:  # a preparation step failed
        attempted, failed, failures, values = 1, 1, [str(e)], None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in failures:
        log(f"FAILED: {failure}")
    result = benchlib.result(failures, attempted, failed, values,
                             args.trace == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
