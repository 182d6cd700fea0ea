#!/usr/bin/env python3
"""The repository benchmark: a measurement campaign end to end, and
layer by layer.

    python3 perfbench/run.py --workload table2_cold --seed 1 \
        --seconds 35 --trace 0

Run from the root of a checkout. The first run configures and builds
the shipped program (mprobe_campaign) and the layer replay
(perfbench_replay) in Release under .bench_build/perfbench.

--trace 0 repeats the workload's campaign through mprobe_campaign
for --seconds seconds and reports the end-to-end metrics as medians
over the repetitions. --trace 1 runs the campaign once untraced,
replays the same jobs through perfbench_replay, and reports the
per-layer metrics. Either way the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Correctness means byte identity with the simulated machine's committed
reference: every exported CSV row must hash to the digest committed
under perfbench/refs for its job. The machine model is not validated
against hardware, so no model-error figure is reported.

    python3 perfbench/run.py --write-references

rebuilds and rewrites those reference digests from the current build.
See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFS = os.path.join(HERE, "refs")
CAMPAIGN_BIN = os.path.join(BUILD, "mprobe", "mprobe_campaign")
REPLAY_BIN = os.path.join(BUILD, "perfbench_replay")
SPAWN_BIN = os.path.join(BUILD, "perfbench_spawn")

# Workload inputs. --seed n selects the campaign salt SALTS[n % 4]:
# the salt re-keys every job and re-draws the simulated sensor noise,
# so each seed is a different measurement campaign over the same
# programs at the same simulation cost, and every one has a committed
# reference. The programs come from the suite's default generation
# seed; --held-out swaps in a generation seed held out from tuning
# (at salt 0, the one salt it has a reference for).
DEFAULT_SPEC_SEED = 0x7AB1E2
HELD_OUT_SPEC_SEED = 20121201
SALTS = (0, 1, 2, 3)
REFERENCE_INPUTS = [(DEFAULT_SPEC_SEED, salt) for salt in SALTS] + [
    (HELD_OUT_SPEC_SEED, 0)]

SPECS = {
    # The full Table-2 suite (134 programs) x all 24 configurations
    # at the nominal clock, bootstrap on.
    "table2": [
        "configs = all",
        "random_count = 16",
        "per_memory_group = 1",
        "memory_count = 2",
        "body_size = 2048",
        "bootstrap = 1",
        "progress_seconds = 0",
    ],
    # Memory + random corpus (24 programs) x 4 configs x 4 frequencies.
    "sweep": [
        "categories = memory, random",
        "configs = 1-1,2-2,4-2,8-4",
        "freqs = 2.0,2.5,3.0,3.5",
        "random_count = 8",
        "per_memory_group = 1",
        "memory_count = 2",
        "body_size = 4096",
        "bootstrap = 0",
        "progress_seconds = 0",
    ],
}

# Every campaign runs 4 worker threads, one per CPU of the 4-CPU host
# the benchmark was tuned on. On that shared host the CPUs differ in
# speed by up to ~40% for minutes at a time; a campaign on one thread
# keeps the speed of the CPU it landed on, while CPU time summed over
# 4 threads averages them (over ten runs a 1-thread sweep spread 19%,
# a 4-thread one 6%).
WORKLOADS = {
    "table2_cold": {"spec": "table2", "threads": 4, "mode": "cold"},
    "sweep_cold": {"spec": "sweep", "threads": 4, "mode": "cold"},
    "serve_cold": {"spec": "table2", "threads": 4, "mode": "serve"},
}

# name -> unit. BENCHMARK.json lists the same names (checked by the
# self-tests).
END_TO_END = {
    "campaign_user_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# layer -> {metric name: unit}. A layer whose counts disagree with the
# program's own counters is stale and reports none of its metrics.
LAYERS = {
    "generation": {"gen.s": "s", "gen.programs": "count"},
    "expansion": {"expand.jobs": "count", "expand.us_per_job": "us",
                  "manifest.s": "s"},
    "decode": {"decode.calls": "count", "decode.s": "s"},
    "core": {"core.sims": "count", "core.sims_per_job": "ratio",
             "core.instrs": "count", "core.s": "s",
             "core.ns_per_instr": "ns"},
    "unbatched": {"unbatched.runs": "count", "unbatched.s": "s"},
    "memo": {"memo.hits": "count", "memo.hit_ratio": "fraction"},
    "power": {"power.calls": "count", "power.us_per_call": "us"},
    "cache": {"cache.lookups": "count", "cache.hit_ratio": "fraction",
              "cache.lookup_us": "us", "cache.stores": "count",
              "cache.store_us": "us", "cache.corrupt": "count"},
    "claims": {"claims.acquired": "count", "claims.stolen": "count",
               "claims.us_per_job": "us"},
    "export": {"export.s": "s", "export.bytes": "bytes"},
    "executor": {"job.p50_ms": "ms", "job.p99_ms": "ms"},
    "os": {"os.sys_s": "s"},
    "harness": {"trace.overhead_frac": "fraction",
                "error_rate": "fraction"},
}

MIN_REPEATS = 3
RUN_LIMIT_S = 120.0  # stop repeating past this, whatever --seconds says
CHILD_LIMIT_S = 150.0  # a campaign process still running is killed


class BenchError(Exception):
    """A condition under which the benchmark refuses to report."""


def info(msg):
    print("perfbench: " + msg, flush=True)


# ---------------------------------------------------------------
# Build.


def cmake_cache():
    path = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(path):
        return {}
    out = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                out[m.group(1)] = m.group(2)
    return out


def build():
    """Configure (once) and build the program, the replay and the
    launcher. Refuses sanitized or non-Release builds."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no program sources next to perfbench/ "
                         "(CMakeLists.txt and src/ are missing)")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if cmake_cache().get("CMAKE_HOME_DIRECTORY", HERE) != HERE:
        shutil.rmtree(BUILD)
        os.makedirs(BUILD)
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release", "-DMPROBE_SANITIZE=OFF"],
             ["cmake", "--build", BUILD, "-j4", "--target",
              "mprobe_campaign", "perfbench_replay", "perfbench_spawn"]]
    with open(log, "a") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT):
                raise BenchError("build failed; see " + log)
    cache = cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to report from a non-Release build "
                         "(CMAKE_BUILD_TYPE=%s)"
                         % cache.get("CMAKE_BUILD_TYPE"))
    if cache.get("MPROBE_SANITIZE", "OFF") != "OFF":
        raise BenchError("refusing to report from a sanitized build "
                         "(MPROBE_SANITIZE=%s)" % cache["MPROBE_SANITIZE"])


def environment():
    """nproc, compiler and load average, recorded with every result."""
    compiler = "unknown"
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and ver:
            compiler = ident.group(1) + " " + ver.group(1)
    load = ",".join("%.2f" % x for x in os.getloadavg())
    return "nproc=%d compiler=%s loadavg=%s build=Release" % (
        os.cpu_count() or 0, compiler.replace(" ", "-"), load)


# ---------------------------------------------------------------
# Correctness: per-job row digests.


def row_digest(row):
    return hashlib.sha256(row).hexdigest()[:8]


def csv_digests(path):
    """Digest of every line of an export (header first); None when the
    export is missing."""
    try:
        with open(path, "rb") as f:
            return [row_digest(r) for r in f.read().splitlines()]
    except OSError:
        return None


def ref_path(spec, spec_seed, salt):
    return os.path.join(REFS, "%s-%d-%d.sha" % (spec, spec_seed, salt))


def load_reference(spec, spec_seed, salt):
    try:
        with open(ref_path(spec, spec_seed, salt)) as f:
            return f.read().split()
    except OSError as e:
        raise BenchError("no committed reference: %s" % e)


def count_failures(digests, reference):
    """Failed jobs of one export against a reference (header digest
    first, then one digest per job). A missing export or a changed
    header fails every job; otherwise each job whose row is missing
    or differs fails, and so does each surplus row."""
    jobs = len(reference) - 1
    if not digests or digests[0] != reference[0]:
        return jobs
    rows = digests[1:]
    bad = sum(1 for i, d in enumerate(reference[1:])
              if i >= len(rows) or rows[i] != d)
    return min(jobs, bad + max(0, len(rows) - jobs))


# ---------------------------------------------------------------
# Processes.


def run_child(cmd, log, stdout=None):
    """Run @cmd to completion through perfbench_spawn; return (wall
    seconds, exit code, peak RSS MiB, user seconds, system seconds).
    The command is killed past CHILD_LIMIT_S."""
    report = log + ".spawn"
    remove(report)
    with open(log, "a") as err:
        code = subprocess.call(
            [SPAWN_BIN, report, str(int(CHILD_LIMIT_S))] + cmd,
            stdout=stdout or subprocess.DEVNULL, stderr=err,
            timeout=CHILD_LIMIT_S + 15)
    try:
        with open(report) as f:
            wall, code, rss_kib, user, system = f.read().split()
    except (OSError, ValueError):
        raise BenchError("perfbench_spawn failed (exit %d)" % code)
    return (float(wall), int(code), int(rss_kib) / 1024.0, float(user),
            float(system))


def campaign_cmd(spec_path, cache, csv, metrics, threads, serve=False,
                 stable=True):
    cmd = [CAMPAIGN_BIN, "--spec", spec_path, "--cache-dir", cache,
           "--threads", str(threads), "--quiet", "--csv", csv,
           "--metrics-json-stable" if stable else "--metrics-json",
           metrics]
    if serve:
        cmd.append("--serve")
    return cmd


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def remove(*paths):
    for p in paths:
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)


class Work:
    """A scratch directory under the build tree for one run."""

    def __init__(self, spec_name, spec_seed, salt):
        self.dir = os.path.join(BUILD, "work-%d" % os.getpid())
        remove(self.dir)
        os.makedirs(self.dir)
        self.log = os.path.join(self.dir, "children.log")
        self.spec = self.path(spec_name + ".spec")
        with open(self.spec, "w") as f:
            f.write("\n".join(SPECS[spec_name] +
                              ["seed = %d" % spec_seed,
                               "salt = %d" % salt]) + "\n")

    def path(self, name):
        return os.path.join(self.dir, name)

    def close(self):
        remove(self.dir)


# ---------------------------------------------------------------
# Untraced: end-to-end metrics.


def prepare(work, reference):
    """The untimed campaign every measurement starts with, a plain
    cold run on 4 threads. Deleting many files (an earlier run's
    clean-up) leaves this file system slow to create files for a
    while, and this run absorbs that. Timed runs never delete
    anything, and each one gets a fresh cache directory."""
    cache, csv = work.path("cache-0"), work.path("prepare.csv")
    cmd = campaign_cmd(work.spec, cache, csv, work.path("prepare.json"), 4)
    code = run_child(cmd, work.log)[1]
    if code != 0 or count_failures(csv_digests(csv), reference):
        raise BenchError("the untimed campaign before measuring failed")


def measure(wl, work, reference, seconds):
    """Repeat the campaign for @seconds; return the result and each
    repetition's (wall, user, system) seconds."""
    prepare(work, reference)
    samples = {name: [] for name in END_TO_END}
    runs = []
    attempted = failed = repeats = 0
    jobs = len(reference) - 1
    t_start = time.perf_counter()
    while True:
        cache = work.path("cache-%d" % (repeats + 1))
        csv, metrics = work.path("run.csv"), work.path("run.json")
        remove(csv, metrics)
        cmd = campaign_cmd(work.spec, cache, csv, metrics, wl["threads"],
                           serve=wl["mode"] == "serve")
        wall, code, rss, user, system = run_child(cmd, work.log)
        runs.append((wall, user, system))
        m = read_json(metrics)
        repeats += 1
        attempted += jobs
        if code != 0 or m is None:
            failed += jobs
        else:
            if m.get("trace_active"):
                raise BenchError("an untraced run reported "
                                 "trace_active=true; refusing to report")
            failed += count_failures(csv_digests(csv), reference)
            samples["campaign_user_s"].append(user)
            samples["setup_s"].append(m["suite_generation_seconds"])
            samples["peak_rss_mb"].append(rss)
        # Stop before a repetition that would overrun --seconds.
        elapsed = time.perf_counter() - t_start
        if elapsed + wall > RUN_LIMIT_S or (repeats >= MIN_REPEATS
                                            and elapsed + wall > seconds):
            break
    metrics = {}
    for name, values in samples.items():
        if values:
            metrics[name] = {"value": statistics.median(values),
                             "unit": END_TO_END[name]}
    return result(failed == 0 and len(metrics) == len(END_TO_END),
                  attempted, failed, metrics), runs


# ---------------------------------------------------------------
# Traced: per-layer metrics.


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q / 100.0 * len(s))) - 1))]


def reconcile(replay, program):
    """Layers whose replay counts differ from the program's own
    counters of the same workload."""
    counters = program.get("metrics", {}).get("counters", {})
    checks = {
        "core": (replay["core_sims"], counters.get("batch_core_sims", 0)),
        "memo": (replay["memo_hits"], counters.get("batch_memo_hits", 0)),
        "cache": ((replay["cache_hits"],
                   replay["cache_lookups"] - replay["cache_hits"]),
                  (program["cache_hits"], program["cache_misses"])),
        "claims": (replay["claims_acquired"], program["claims_acquired"]),
    }
    return {layer: pair for layer, pair in checks.items()
            if pair[0] != pair[1]}


def per_layer(r, program, program_run, replay_wall, error_rate):
    """Derive every per-layer metric from the replay's raw totals @r
    and the untraced program run: its metrics JSON @program and its
    (wall, system) seconds @program_run."""

    def ratio(a, b):
        return a / b if b else 0.0

    jobs = r["jobs"]
    job_s = [j["seconds"] for j in program["job_seconds"]]
    return {
        "gen.s": r["gen_s"],
        "gen.programs": r["gen_programs"],
        "expand.jobs": jobs,
        "expand.us_per_job": ratio(r["expand_s"], jobs) * 1e6,
        "manifest.s": r["manifest_s"],
        "decode.calls": r["decode_calls"],
        "decode.s": r["decode_s"],
        "core.sims": r["core_sims"],
        "core.sims_per_job": ratio(r["core_sims"], jobs),
        "core.instrs": r["core_instrs"],
        "core.s": r["core_s"],
        "core.ns_per_instr": ratio(r["core_s"], r["core_instrs"]) * 1e9,
        "unbatched.runs": r["unbatched_runs"],
        "unbatched.s": r["unbatched_s"],
        "memo.hits": r["memo_hits"],
        "memo.hit_ratio": ratio(r["memo_hits"],
                                r["memo_hits"] + r["core_sims"]),
        "power.calls": r["power_calls"],
        "power.us_per_call": ratio(r["power_s"], r["power_calls"]) * 1e6,
        "cache.lookups": r["cache_lookups"],
        "cache.hit_ratio": ratio(r["cache_hits"], r["cache_lookups"]),
        "cache.lookup_us": ratio(r["cache_lookup_s"],
                                 r["cache_lookups"]) * 1e6,
        "cache.stores": r["cache_stores"],
        "cache.store_us": ratio(r["cache_store_s"],
                                r["cache_stores"]) * 1e6,
        "cache.corrupt": r["cache_corrupt"],
        "claims.acquired": r["claims_acquired"],
        "claims.stolen": r["claims_stolen"],
        "claims.us_per_job": ratio(r["claims_s"], jobs) * 1e6,
        "export.s": r["export_s"],
        "export.bytes": r["export_bytes"],
        "job.p50_ms": percentile(job_s, 50) * 1e3,
        "job.p99_ms": percentile(job_s, 99) * 1e3,
        "os.sys_s": program_run[1],
        "trace.overhead_frac": ratio(replay_wall, program_run[0]) - 1.0,
        "error_rate": error_rate,
    }


def trace(wl, work, reference):
    """One untraced program run and one replay of the same jobs."""
    serve = wl["mode"] == "serve"
    prepare(work, reference)
    jobs = len(reference) - 1
    csv, metrics = work.path("program.csv"), work.path("program.json")
    cmd = campaign_cmd(work.spec, work.path("cache-program"), csv, metrics,
                       wl["threads"], serve=serve, stable=False)
    program_wall, code, _, _, program_sys = run_child(cmd, work.log)
    program = read_json(metrics)
    if code != 0 or program is None:
        return result(False, 2 * jobs, 2 * jobs, {})
    if program.get("trace_active"):
        raise BenchError("the untraced program run reported "
                         "trace_active=true; refusing to report")
    program_rows = csv_digests(csv)
    failed = count_failures(program_rows, reference)

    replay_csv, replay_out = work.path("replay.csv"), work.path("replay.json")
    cmd = [REPLAY_BIN, "--spec", work.spec, "--threads",
           str(wl["threads"]), "--cache-dir", work.path("cache-replay"),
           "--csv", replay_csv] + (["--serve"] if serve else [])
    with open(replay_out, "w") as out:
        replay_wall, code = run_child(cmd, work.log, stdout=out)[:2]
    replay = read_json(replay_out)
    if code != 0 or replay is None:
        return result(False, 2 * jobs, failed + jobs, {})
    # Cross-path check: the replay must export the program's bytes.
    failed += count_failures(csv_digests(replay_csv), program_rows or [])
    attempted = 2 * jobs
    error_rate = failed / attempted

    values = per_layer(replay, program, (program_wall, program_sys),
                       replay_wall, error_rate)
    stale = reconcile(replay, program)
    for layer, (mine, theirs) in sorted(stale.items()):
        info("stale layer %s: replay counts %s, program counters %s; "
             "its metrics are withheld" % (layer, mine, theirs))
    metrics = {}
    for layer, names in LAYERS.items():
        if layer in stale:
            continue
        for name, unit in names.items():
            metrics[name] = {"value": values[name], "unit": unit}
    return result(failed == 0 and not stale, attempted, failed, metrics)


# ---------------------------------------------------------------
# Entry points.


def result(correct, attempted, failed, metrics):
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def write_references():
    """Rewrite perfbench/refs from the current build (plain path)."""
    os.makedirs(REFS, exist_ok=True)
    for spec_name in SPECS:
        for spec_seed, salt in REFERENCE_INPUTS:
            path = ref_path(spec_name, spec_seed, salt)
            work = Work(spec_name, spec_seed, salt)
            try:
                csv = work.path("ref.csv")
                cmd = campaign_cmd(work.spec, work.path("cache"), csv,
                                   work.path("ref.json"), 2)
                if run_child(cmd, work.log)[1] != 0:
                    raise BenchError("reference run failed")
                with open(path, "w") as f:
                    f.write("\n".join(csv_digests(csv)) + "\n")
                info("wrote " + os.path.relpath(path, ROOT))
            finally:
                work.close()


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="generate the programs from the held-out seed")
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_references and not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.write_references:
            write_references()
            return 0
        wl = WORKLOADS[args.workload]
        if args.held_out:
            spec_seed, salt = HELD_OUT_SPEC_SEED, 0
        else:
            spec_seed, salt = DEFAULT_SPEC_SEED, SALTS[args.seed % len(SALTS)]
        reference = load_reference(wl["spec"], spec_seed, salt)
        work = Work(wl["spec"], spec_seed, salt)
        try:
            info("%s seed=%d spec_seed=%d salt=%d %s" % (
                args.workload, args.seed, spec_seed, salt, environment()))
            if args.trace:
                out = trace(wl, work, reference)
            else:
                out, runs = measure(wl, work, reference, args.seconds)
                info("%d campaign runs; end-to-end values are their "
                     "medians; wall/user/system seconds per run: %s" % (
                         len(runs),
                         " ".join("%.3f/%.3f/%.3f" % r for r in runs)))
        finally:
            work.close()
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
