#!/usr/bin/env python3
"""oscchain benchmark: four workloads, end-to-end metrics, traced layers.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload spectrum-deep --seed 1 \\
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off, their times in calibrated seconds (calibrate.py); --trace 1
reports its per-layer metrics from one traced pass.
--smoke runs one pass at the smallest size (see selftest.py).

Every op's output is checked after the timed passes.  One line per metric
goes to stdout, and the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The run fails, printing no result,
when the program's sources under src/ are missing or a worker fails.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
import workloads as wl

SETUP_PROBES = 4      # fresh interpreters that only set up, besides the main
IMPORT_PROBES = 3     # fresh interpreters per import measurement
DEADLINE_S = 170      # the whole run, probes included

SYMPY_PROBE = """\
import time
from fractions import Fraction
from oscchain import linalg
c = [Fraction(-2), Fraction(0), Fraction(1)]
t0 = time.perf_counter()
linalg.real_roots_exact(c)
t1 = time.perf_counter()
linalg.real_roots_exact(c)
print((t1 - t0) - (time.perf_counter() - t1))
"""


class RunFailed(RuntimeError):
    pass


def python(args, deadline, **kw):
    """Run the interpreter on `args` in the program's environment."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("out of time")
    try:
        return subprocess.run([sys.executable, *args], env=wl.child_env(),
                              timeout=left, **kw)
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"timed out: {' '.join(args[:3])}") from e


def worker(args, mode: str, deadline) -> dict:
    before = calibrate.probe()
    t0 = time.perf_counter()
    done = python([str(wl.HERE / "worker.py"), args.workload, str(args.seed),
                   str(args.seconds), repr(t0), repr(before), mode]
                  + (["--smoke"] if args.smoke else []),
                  deadline, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{mode} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile, n): the highest of p99, p95, p90 and p75 (nearest
    rank) that has at least ten samples beyond it.  Below 40 samples none
    has; then the highest with at least two beyond it, as the largest
    samples of a small run are its least steady; below 8 samples, p75."""
    xs = sorted(samples)
    n = len(xs)
    for beyond in (10, 2):
        for pct in (99, 95, 90, 75):
            rank = math.ceil(pct * n / 100)
            if n - rank >= beyond:
                return xs[rank - 1], pct, n
    return xs[math.ceil(0.75 * n) - 1], 75, n


def middle(samples) -> float:
    """The median, taken as the mean of the middle fifth (p40 to p60) of
    the sorted samples, and at least of the one or two middle ones.  A
    workload's ops fall into clusters by cost; the single middle sample
    jumps between clusters from run to run, the middle fifth does not."""
    xs = sorted(samples)
    n = len(xs)
    return statistics.mean(xs[math.floor(0.4 * n):math.ceil(0.6 * n)])


def end_to_end(args, deadline):
    probes = [worker(args, "setup", deadline)["setup_s"]
              for _ in range(0 if args.smoke else SETUP_PROBES)]
    res = worker(args, "time", deadline)
    setups = probes + [res["setup_s"]]
    value, pct, n = tail(res["latencies"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["passes"]),
        "op_p50_s": middle(res["latencies"]),
        "op_tail_s": value,
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_failed_frac": res["failed"] / res["attempted"],
    }
    notes = [f"setup_s: median of {len(setups)} fresh interpreters",
             f"wall_s: median of {len(res['passes'])} passes",
             "as measured, before calibration: setup_s "
             f"{res['raw_setup_s']:.4f} s (this interpreter), wall_s "
             f"{statistics.median(res['raw_passes']):.4f} s, op_p50_s "
             f"{middle(res['raw_latencies']):.6f} s; "
             f"{res['probes']} speed probes",
             f"op_p50_s: mean of the middle fifth of n={n} ops",
             f"op_tail_s: p{pct} of n={n} ops"
             + (" (fewer than ten beyond it)" if n < 40 else ""),
             f"ops_failed_frac: {res['failed']}/{res['attempted']}"]
    return res, metrics, notes


def import_metrics(deadline) -> dict:
    """cli.import_s and cli.import_numerics_s from -X importtime (cumulative
    time of the module), cli.import_sympy_s as first minus second
    real_roots_exact call; each the median of fresh interpreters."""
    cli, numerics, sympy = [], [], []
    for _ in range(IMPORT_PROBES):
        done = python(["-X", "importtime", "-c", "import oscchain.cli"],
                      deadline, capture_output=True, text=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        if "oscchain.cli" not in cumulative:
            raise RunFailed("import oscchain.cli failed")
        cli.append(cumulative["oscchain.cli"])
        # 0 once oscchain.cli no longer imports numerics at start
        numerics.append(cumulative.get("oscchain.numerics", 0.0))
        done = python(["-c", SYMPY_PROBE], deadline, capture_output=True,
                      text=True)
        if done.returncode != 0:
            raise RunFailed("sympy import probe failed")
        sympy.append(float(done.stdout))
    return {"cli.import_s": statistics.median(cli),
            "cli.import_numerics_s": statistics.median(numerics),
            "cli.import_sympy_s": statistics.median(sympy)}


def per_layer(args, deadline):
    res = worker(args, "trace", deadline)
    metrics = dict(res["layers"])
    metrics.update(import_metrics(deadline))
    traced = res["traced_wall_s"]
    overhead = res["traced_cal_s"] - res["passes"][0]
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    metrics.update({"trace.wall_s": traced,
                    "trace.overhead_s": overhead,
                    "trace.self_share": self_sum / traced})
    notes = [f"traced pass {traced:.4f} s as measured; calibrated, traced "
             f"{res['traced_cal_s']:.4f} s and untraced "
             f"{res['passes'][0]:.4f} s: tracing overhead {overhead:.4f} s",
             f"per-layer self times sum to {self_sum:.4f} s = "
             f"{100 * self_sum / traced:.1f}% of the traced pass",
             f"spectra.eigfn_per_nullspace base: "
             f"{metrics['linalg.nullspace_calls']} nullspace calls"]
    return res, metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (wl.ROOT / "src" / "oscchain" / "__init__.py").is_file():
        print(f"no oscchain sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        res, metrics, notes = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except RunFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units["ops_failed_frac"] = "share"
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    failures = res["notes"]
    if len(failures) > 5:
        failures = failures[:5] + [f"... and {len(failures) - 5} more"]
    for note in notes + failures:
        print(f"{args.workload} note: {note}")
    print(json.dumps({
        "correct": res["unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
