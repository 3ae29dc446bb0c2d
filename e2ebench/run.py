#!/usr/bin/env python3
"""End-to-end benchmark of the `flashflow run` path.

Usage (from the repository root):

    python3 e2ebench/run.py --workload sec7-1t --seed 1 --seconds 20 --trace 0

Builds the library and the runner binary (e2ebench/runner.cpp) into
.bench_build/, generates the workload's scenario file from the seed, then
runs it back to back, one process at a time, for --seconds seconds. Every
run is checked (see check_outputs). With --trace 0 the result is the
end-to-end metrics; with --trace 1 runs alternate between untraced and
traced, and the result is the per-layer metrics of the traced runs.
--smoke shrinks every workload to a few dozen relays (the benchmark's own
tests). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when a run failed or an
output check tripped, 2 on a usage error or a tree without the sources.
See README.md in this directory for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
BINARY = BUILD_DIR / "e2ebench"
BASE_SCENARIO = ROOT / "scenarios" / "sec7.yaml"

# Workload -> runs at threaded_threads(nproc) threads (and so gets a
# 1-thread determinism reference run) or at 1 thread.
WORKLOADS = {
    "sec7-1t": False,
    "fleet50k": True,
    "secure-period": True,
    "sec7-dense": False,
}

# End-to-end metrics: (name, unit, in the result line). failed_frac and
# relay_fail_frac read 0 on correct fault-free runs, so they are printed
# in the table but kept out of the result line; failed_frac is carried by
# its "attempted"/"failed" fields. The times in the result line are CPU
# times (cpu_s, setup_s): on a shared host, wall time follows the CPU the
# hypervisor steals from the guest. Over four minutes of back-to-back
# secure-period runs on a 4-core VM, host steal of 10% stretched wall_s
# by 45% and cpu_s by 15%, and the medians of 20-s windows spread 11%
# (wall) against 4.5% (CPU). wall_s and setup_wall_s are printed in the
# table and the method record.
END_TO_END = [
    ("cpu_s", "s", True),
    ("wall_s", "s", False),
    ("setup_s", "s", True),
    ("setup_wall_s", "s", False),
    ("peak_rss_mib", "MiB", True),
    ("failed_frac", "ratio", False),
    ("sim_period_h", "h", True),
    ("median_abs_err_pct", "%", True),
    ("p95_abs_err_pct", "%", True),
    ("relay_fail_frac", "ratio", False),
]
SIMULATED = ["sim_period_h", "median_abs_err_pct", "p95_abs_err_pct",
             "relay_fail_frac"]

# Per-layer metrics of the traced runs: (name, unit).
PER_LAYER = [
    ("scenario.materialize_s", "s"),
    ("scenario.period_s", "s"),
    ("scenario.bwfile_s", "s"),
    ("core.layout_s", "s"),
    ("core.layout_slots", "count"),
    ("campaign.sink_s", "s"),
    ("campaign.sink_bytes", "bytes"),
    ("campaign.slot_gap_us_p50", "us"),
    ("campaign.slot_gap_us_p99", "us"),
    ("campaign.slots_per_s", "1/s"),
    ("campaign.retry_slots", "count"),
    ("campaign.retry_frac", "ratio"),
    ("net.solver_solve_us", "us"),
    ("net.solves", "count"),
    ("net.solve_us_per_call", "us"),
    ("net.solver_prepare_us", "us"),
    ("net.active_flows_max", "count"),
    ("net.fill_paths_us", "us"),
    ("core.dispatch_us", "us"),
    ("campaign.reorder_wait_us", "us"),
    ("campaign.layout_us", "us"),
    ("campaign.retry_rounds", "count"),
    ("self.parse_s", "s"),
    ("self.setup_s", "s"),
    ("self.period_s", "s"),
    ("self.sink_s", "s"),
    ("self.bwfile_s", "s"),
    ("self.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

# The layer each workload was chosen to stress, by its dominant_layers()
# label; the traced run reports whether it held.
PREDICTED_DOMINANT = {
    "sec7-1t": "net.solver_solve",
    "fleet50k": "core.layout",
    "secure-period": "campaign.per_slot",
    "sec7-dense": "scenario.materialize",
}

# Threads of the threaded workloads: half the cores, at most 2. On a
# shared 4-core host, 4 threads spread a run's wall time over 1.2-1.9 s
# (secure-period) and 2.0-2.7 s (fleet50k); 2 threads over 1.4-1.6 s and
# 2.25-2.45 s, with 7% of fleet50k's speed given up.
def threaded_threads(nproc):
    return min(2, max(1, nproc // 2))


MIN_RUNS = 3          # untraced runs per invocation (2 when tracing)
MIN_TRACED_RUNS = 2
SETUP_SHARE = 0.15    # time after each timed run given to set-up-only runs
MAX_SETUP_RUNS = 4
RUN_TIMEOUT_S = 60    # a normal run takes under 10 s


class BenchError(Exception):
    """A failure that ends the invocation before any result exists."""


# ------------------------------------------------------------ building ---

def check_tree():
    missing = [p for p in (ROOT / "CMakeLists.txt", ROOT / "src",
                           BASE_SCENARIO) if not p.exists()]
    if missing:
        raise BenchError("not a flashflow source tree (missing "
                         + ", ".join(str(p.relative_to(ROOT))
                                     for p in missing) + ")")


def build(jobs):
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR.parent / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# ------------------------------------------------------------- outputs ---

def read_spec(path):
    """The few scenario-file keys the output checks need."""
    keys = {}
    for line in Path(path).read_text().splitlines():
        line = line.split(" #")[0].strip()
        if line and not line.startswith("#") and ":" in line:
            key, value = line.split(":", 1)
            keys[key.strip()] = value.strip()
    relays = keys.get("synthetic.relays")
    if relays is None:
        raise BenchError(f"{path}: no synthetic.relays")
    rates = ["faults.measurer_crash", "faults.relay_disconnect",
             "faults.report_drop", "faults.report_truncate",
             "faults.slot_timeout"]
    return {
        "relays": int(relays),
        "periods": int(keys.get("periods", "1")),
        "slot_seconds": int(keys.get("params.slot_seconds", "30")),
        "faults": any(float(keys.get(k, "0")) > 0 for k in rates),
    }


def median_sorted(values):
    n = len(values)
    return values[n // 2] if n % 2 else \
        (values[n // 2 - 1] + values[n // 2]) / 2.0


def rank_sorted(values, q):
    rank = math.ceil(q * len(values))
    return values[min(max(rank, 1), len(values)) - 1]


# The fields of one results.csv row that the checks use.
Row = namedtuple("Row", "estimate verification_failed attempt slot_failed "
                 "quarantined relative_error")


def check_outputs(out_dir, spec, result):
    """Checks one run's result directory against its spec and against the
    simulated statistics the run reported. Returns a list of problems."""
    out_dir = Path(out_dir)
    errors = []
    files = ["scenario.yaml", "results.csv", "results.jsonl", "bandwidth.txt"]
    if spec["faults"]:
        files.append("faults.csv")
    for name in files:
        if not (out_dir / name).is_file():
            errors.append(f"{name} missing")
    if not spec["faults"] and (out_dir / "faults.csv").exists():
        errors.append("faults.csv written without faults armed")
    if errors:
        return errors

    header = ("period,relay,slot,estimate_bits,ground_truth_bits,"
              "relative_error,verification_failed")
    if spec["faults"]:
        header += ",quality,attempt,slot_failed,quarantined"
    columns = header.count(",") + 1
    lines = (out_dir / "results.csv").read_text().split("\n")
    if lines[-1] != "":
        errors.append("results.csv: last line is not terminated")
    lines = lines[:-1] if lines[-1] == "" else lines
    if not lines or lines[0] != header:
        return errors + ["results.csv: unexpected header"]

    relays, periods = spec["relays"], spec["periods"]
    final = [dict() for _ in range(periods)]  # period -> relay -> Row
    slots = [set() for _ in range(periods)]
    rows = 0
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != columns:
                raise ValueError(f"{len(fields)} fields")
            period, relay, slot = (int(f) for f in fields[:3])
            estimate, relative_error = float(fields[3]), float(fields[5])
            verification_failed = fields[6] == "1"
            attempt = int(fields[8]) if spec["faults"] else 0
            slot_failed = spec["faults"] and fields[9] == "1"
            quarantined = spec["faults"] and fields[10] == "1"
        except ValueError as e:
            errors.append(f"results.csv:{number}: malformed row ({e})")
            break
        if not (0 <= period < periods and 0 <= relay < relays):
            errors.append(f"results.csv:{number}: period/relay out of range")
            break
        previous = final[period].get(relay)
        # A relay appears once per period, plus one row per retry of a
        # failed attempt.
        if previous is not None and not (previous.slot_failed and
                                         attempt > previous.attempt):
            errors.append(f"results.csv:{number}: relay {relay} repeated "
                          f"in period {period} without a failed attempt")
            break
        final[period][relay] = Row(estimate, verification_failed, attempt,
                                   slot_failed, quarantined, relative_error)
        slots[period].add(slot)
        rows += 1
    if errors:
        return errors
    for period in range(periods):
        if len(final[period]) != relays:
            errors.append(f"results.csv: period {period} has "
                          f"{len(final[period])} of {relays} relays")
    if errors:
        return errors

    jsonl = (out_dir / "results.jsonl").read_text().split("\n")
    if jsonl[-1] != "" or len(jsonl) - 1 != rows:
        errors.append(f"results.jsonl: {len(jsonl) - 1} lines for "
                      f"{rows} results.csv rows")
    else:
        try:
            last = json.loads(jsonl[-2])
            fields = lines[-1].split(",")
            if [last["period"], last["relay"], last["slot"]] != \
                    [int(f) for f in fields[:3]]:
                errors.append("results.jsonl: last line disagrees with "
                              "results.csv")
        except (ValueError, KeyError) as e:
            errors.append(f"results.jsonl: malformed last line ({e})")

    # bandwidth.txt lists every relay of the last period that passed
    # verification and has an estimate, at that estimate.
    last_period = final[periods - 1]
    listed = [row for row in last_period.values()
              if not row.verification_failed and row.estimate > 0.0]
    bw_lines = (out_dir / "bandwidth.txt").read_text().split("\n")
    if "=====" not in bw_lines:
        errors.append("bandwidth.txt: no header terminator")
    else:
        entries = [l for l in bw_lines[bw_lines.index("=====") + 1:] if l]
        total_mbit = 0.0
        try:
            for entry in entries:
                fields = dict(f.split("=", 1) for f in entry.split(" "))
                total_mbit += float(fields["flashflow_capacity_mbits"])
        except (ValueError, KeyError):
            errors.append("bandwidth.txt: malformed entry")
        expected_mbit = sum(row.estimate for row in listed) / 1e6
        if len(entries) != len(listed):
            errors.append(f"bandwidth.txt: {len(entries)} entries for "
                          f"{len(listed)} verified relays")
        elif abs(total_mbit - expected_mbit) > 5e-4 * len(entries) + 1e-6:
            errors.append("bandwidth.txt: capacities disagree with "
                          "results.csv")

    # The run's simulated statistics, recomputed from results.csv.
    abs_err = sorted(abs(row.relative_error) for row in last_period.values()
                     if not row.verification_failed and not row.slot_failed)
    recomputed = {
        "sim_period_h": len(slots[periods - 1]) * spec["slot_seconds"]
        / 3600.0,
        "median_abs_err_pct": median_sorted(abs_err) * 100.0
        if abs_err else None,
        "p95_abs_err_pct": rank_sorted(abs_err, 0.95) * 100.0
        if abs_err else None,
        "relay_fail_frac": sum(row.slot_failed or row.quarantined
                               for p in final for row in p.values())
        / (relays * periods),
    }
    for name, value in recomputed.items():
        if result.get(name) != value:
            errors.append(f"{name}: run reported {result.get(name)}, "
                          f"results.csv gives {value}")
    return errors


def digest(out_dir):
    """Hash of every result file (the normalized scenario.yaml is left out:
    it records the thread count)."""
    h = hashlib.sha256()
    for name in ("results.csv", "results.jsonl", "faults.csv",
                 "bandwidth.txt"):
        path = Path(out_dir) / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- runs ---

# Kinds of runner process: the untimed warm-up run, a timed run, a traced
# run, a set-up-only run, and the untimed 1-thread reference run.
KIND_ARGS = {"warmup": [], "plain": [], "traced": ["--trace"],
             "setup": ["--setup-only"], "reference": ["--threads", "1"]}


def run_once(spec_path, spec, out_dir, kind):
    """One runner process. Returns a record with the parsed result, the
    problems found, and the result digest."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [str(BINARY), "run", str(spec_path), str(out_dir)] + KIND_ARGS[kind]
    record = {"kind": kind, "result": None, "errors": [], "digest": None}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        record["errors"].append(f"timed out after {RUN_TIMEOUT_S} s")
        return record
    finally:
        record["elapsed"] = time.monotonic() - started
    if proc.returncode != 0:
        record["errors"].append(f"exit {proc.returncode}: "
                                + proc.stderr.strip()[-300:])
        return record
    try:
        record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        record["errors"].append("no result line")
        return record
    if kind == "setup":
        return record
    record["errors"] += check_outputs(out_dir, spec, record["result"])
    record["digest"] = digest(out_dir)
    return record


def summarize(values):
    """n, median, IQR (statistics.quantiles, n=4) of a sample."""
    values = [v for v in values if v is not None]
    if not values:
        return {"n": 0, "median": None, "iqr": None}
    if len(values) == 1:
        return {"n": 1, "median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "iqr": q3 - q1}


def source_identity():
    """Git commit when the tree is a git checkout; always a digest of the
    sources the benchmark builds."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    sources = sorted(p for d in ("src", "e2ebench") for p in
                     (ROOT / d).rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    for path in sources + [ROOT / "CMakeLists.txt"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return commit, h.hexdigest()[:16]


def dominant_layers(layers, threads):
    """Each candidate layer's share of the traced wall time. Lane-summed
    recorder times are divided by the thread count; replays are timed on
    their own and compared with the wall they would have occupied."""
    wall = layers["trace.wall_s"]
    if not wall:
        return []
    candidates = {
        "scenario.materialize": layers["scenario.materialize_s"],
        "core.layout": layers["core.layout_s"],
        "net.solver_solve": layers["net.solver_solve_us"] * 1e-6 / threads,
        # Per-slot campaign costs: dispatch plus the reorder wait, which
        # already contains sink serialization.
        "campaign.per_slot": (layers["core.dispatch_us"]
                              + layers["campaign.reorder_wait_us"])
        * 1e-6 / threads,
        "scenario.bwfile": layers["scenario.bwfile_s"],
    }
    return sorted(((v / wall, k) for k, v in candidates.items()),
                  reverse=True)


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = len(os.sched_getaffinity(0))
    for step, code in ((check_tree, 2), (lambda: build(min(nproc, 4)), 1)):
        try:
            step()
        except BenchError as e:
            print(f"e2ebench: {e}", file=sys.stderr)
            return code

    threaded = WORKLOADS[args.workload]
    threads = threaded_threads(nproc) if threaded else 1
    work = RUNS_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_path = work / "spec.yaml"
    gen = [str(BINARY), "gen", args.workload, str(args.seed), str(threads),
           str(BASE_SCENARIO), str(spec_path)]
    if args.smoke:
        gen.append("--smoke")
    proc = subprocess.run(gen, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        print(f"e2ebench: gen failed: {proc.stderr.strip()}", file=sys.stderr)
        return 1
    spec = read_spec(spec_path)
    out_dir = work / "out"

    # One untimed warm-up run first: on a shared host the first run after
    # a pause reads up to 40% slow.
    records = [run_once(spec_path, spec, out_dir, "warmup")]
    start = time.monotonic()

    def of(kind):
        return [r for r in records if r["kind"] == kind]

    # Measure: back-to-back runs until the next one would overrun. Each
    # timed run is followed by a few set-up-only runs, as many as fit in
    # SETUP_SHARE of its time, so setup_s is a median over many cold
    # set-ups where set-up is cheap.
    while True:
        plain, traced = of("plain"), of("traced")
        need = len(plain) < (MIN_TRACED_RUNS if args.trace else MIN_RUNS) \
            or (args.trace and len(traced) < MIN_TRACED_RUNS)
        kind = "traced" if args.trace and len(traced) < len(plain) \
            else "plain"
        same_kind = [r["elapsed"] for r in of(kind)]
        predicted = statistics.median(same_kind) if same_kind else 0.0
        if not need and time.monotonic() - start + predicted > args.seconds:
            break
        record = run_once(spec_path, spec, out_dir, kind)
        records.append(record)
        if kind == "plain" and record["result"]:
            setup_cost = statistics.median(
                [r["elapsed"] for r in of("setup")]
                or [record["result"]["setup_wall_s"] + 0.02])
            extra = int(SETUP_SHARE * record["elapsed"] / setup_cost)
            for _ in range(min(extra, MAX_SETUP_RUNS)):
                records.append(run_once(spec_path, spec, out_dir, "setup"))
    measured_s = time.monotonic() - start

    # Determinism clause D5, untimed: the multi-thread result bytes must
    # equal those of a 1-thread run of the same inputs.
    if threaded:
        records.append(run_once(spec_path, spec, out_dir, "reference"))
    shutil.rmtree(work, ignore_errors=True)

    # Cross-run checks: simulated statistics and result bytes identical
    # across every full run of the invocation.
    good = [r for r in records if not r["errors"] and r["kind"] != "setup"]
    for r in good[1:]:
        for name in SIMULATED:
            if r["result"][name] != good[0]["result"][name]:
                r["errors"].append(f"{name} differs between runs")
        if r["digest"] != good[0]["digest"]:
            r["errors"].append(
                "result digest differs "
                + ("from the 1-thread reference run"
                   if r["kind"] == "reference" else "between runs"))
    failed = [r for r in records if r["errors"]]
    attempted = len(records)
    correct = not failed

    plain = [r for r in of("plain") if not r["errors"]]
    traced = [r for r in of("traced") if not r["errors"]]
    setups = [r for r in of("setup") if not r["errors"]]
    e2e = {name: summarize([r["result"][name] for r in
                            (plain + setups if name.startswith("setup_")
                             else plain)])
           for name, _, _ in END_TO_END if name != "failed_frac"}
    e2e["failed_frac"] = {"n": attempted, "median": len(failed) / attempted,
                          "iqr": 0.0}

    layers = {}
    partition_error = None
    if args.trace and traced:
        samples = {}
        for r in traced:
            res = r["result"]
            values = dict(res["layers"])
            for name, seconds in res["self_s"].items():
                values[f"self.{name}_s"] = seconds
            values["trace.wall_s"] = res["wall_s"]
            gap = abs(sum(res["self_s"].values()) - res["wall_s"])
            if gap > 1e-6 * res["wall_s"]:
                partition_error = f"self times miss the wall by {gap} s"
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
        layers = {name: summarize(samples.get(name, []))
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        overhead = None
        if e2e["wall_s"]["median"] is not None:
            overhead = layers["trace.wall_s"]["median"] - \
                e2e["wall_s"]["median"]
        layers["trace.overhead_s"] = {"n": len(traced), "median": overhead,
                                      "iqr": None}
        if partition_error:
            correct = False

    commit, source_digest = source_identity()
    info = next((r["result"] for r in records if r["result"]), {})
    method = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "seconds": args.seconds, "measured_s": round(measured_s, 3),
        "trace": args.trace, "nproc": nproc, "threads": threads,
        "compiler": info.get("compiler"), "build_type": info.get("build_type"),
        "git_commit": commit, "source_digest": source_digest,
        "runs": {"warmup": 1, "untraced": len(plain), "traced": len(traced),
                 "setup_only": len(setups),
                 "reference_1t": int(threaded), "attempted": attempted,
                 "failed": len(failed)},
        "end_to_end": e2e, "per_layer": layers,
    }

    # Human-readable report, then the method record, then the result.
    print(f"# e2ebench {args.workload} seed={args.seed} threads={threads} "
          f"nproc={nproc} runs={len(plain)} untraced/{len(traced)} traced")
    print(f"{'metric':<28}{'unit':<8}{'median':>14}{'iqr':>14}{'n':>5}")
    for name, unit, _ in END_TO_END:
        s = e2e[name]
        print(f"{name:<28}{unit:<8}{fmt(s['median']):>14}"
              f"{fmt(s['iqr']):>14}{s['n']:>5}")
    if layers:
        print("# per layer (traced runs; recorder *_us are lane-summed)")
        for name, unit in PER_LAYER:
            s = layers[name]
            print(f"{name:<28}{unit:<8}{fmt(s['median']):>14}"
                  f"{fmt(s['iqr']):>14}{s['n']:>5}")
        shares = dominant_layers({k: v["median"] or 0.0
                                  for k, v in layers.items()}, threads)
        if shares:
            ranked = ", ".join(f"{k} {v:.0%}" for v, k in shares)
            held = shares[0][1] == PREDICTED_DOMINANT[args.workload]
            print(f"# share of traced wall: {ranked}")
            print(f"# predicted dominant layer "
                  f"{PREDICTED_DOMINANT[args.workload]}: "
                  f"{'held' if held else 'NOT held'}")
        if partition_error:
            print(f"# partition check failed: {partition_error}")
    for r in failed:
        print(f"# FAILED {r['kind']} run: {'; '.join(r['errors'])}")
    print("method: " + json.dumps(method, sort_keys=True))

    if args.trace:
        chosen = PER_LAYER
        source = layers
    else:
        chosen = [(name, unit) for name, unit, keep in END_TO_END if keep]
        source = e2e
    metrics = {name: {"value": source.get(name, {}).get("median"),
                      "unit": unit} for name, unit in chosen}
    if any(m["value"] is None for m in metrics.values()):
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
