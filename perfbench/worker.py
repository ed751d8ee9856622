"""One fresh interpreter that sets up a workload and times its ops.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS T0 PROBE MODE
       [--smoke]

MODE is one of
  setup  set up, report setup_s and exit;
  time   set up, then run whole passes until SECONDS have gone by;
  trace  set up, run pass 0 untraced, then each of its ops untraced and
         traced in turn.

T0 is the parent's `time.perf_counter()` reading just before it started this
process.  On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
setup_s = (start of the first timed op) - T0 covers interpreter start,
imports, input generation and one warm-up op.  PROBE is the time of the
parent's speed probe just before T0; with the worker's own probes during
set-up it calibrates setup_s.  Outputs are checked after
the timed passes.  The last line of stdout is one JSON object.

While the ops run, the worker probes the machine's speed on a timer
(calibrate.py); op and pass times are reported both as measured and in
calibrated seconds.
"""
import json
import resource
import signal
import sys
import time

import tracing
import workloads as wl
from calibrate import SETUP_ELASTICITY, Speed


def run_pass(ops, outcomes, between=None) -> list:
    """Run the ops one after another, calling `between` before each;
    their [start, end] windows."""
    windows = []
    for op in ops:
        if between is not None:
            between()
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:          # an op that raises is a failed op
            result = e
        windows.append((t, time.perf_counter()))
        outcomes.append((op, result))
    return windows


def timings(passes, speed) -> dict:
    """Measured and calibrated op latencies and pass times (the sum of the
    pass's op latencies)."""
    out = {"latencies": [], "passes": [], "raw_latencies": [],
           "raw_passes": []}
    for windows in passes:
        raw = [end - start for start, end in windows]
        cal = [speed.rescale(start, end) for start, end in windows]
        out["raw_latencies"] += raw
        out["latencies"] += cal
        out["raw_passes"].append(sum(raw))
        out["passes"].append(sum(cal))
    return out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main() -> int:
    workload, seed, seconds, t0, before, mode = sys.argv[1:7]
    seed, seconds, t0 = int(seed), float(seconds), float(t0)
    smoke = "--smoke" in sys.argv[7:]
    sys.path.insert(0, str(wl.ROOT / "src"))
    speed = Speed(workload)
    speed.merge([t0], [t0], [float(before)])
    speed.start()

    wl.warmup(workload).run()
    ops = wl.build(workload, seed, 0, smoke)
    setup_end = time.perf_counter()
    if mode == "setup":
        speed.stop()
    out = {"raw_setup_s": setup_end - t0,
           "setup_s": speed.rescale(t0, setup_end, SETUP_ELASTICITY)}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    outcomes = []
    if mode == "time":
        start = time.perf_counter()
        passes = [run_pass(ops, outcomes)]
        while not smoke and time.perf_counter() - start < seconds:
            ops = wl.build(workload, seed, len(passes), smoke)
            passes.append(run_pass(ops, outcomes))
        speed.stop()
        out["peak_rss_mb"] = peak_rss_mb(workload)
    else:
        # pass 0 runs untraced once to warm the program's caches; then each
        # of its ops runs untraced and right after it traced.  They are
        # probed between ops only, so that no probe lands in a span and the
        # two are rescaled alike.
        speed.stop()
        run_pass(ops, outcomes)
        rec = tracing.Recorder()
        tracing.install(rec)
        untraced, traced = [], []
        for plain, op in zip(ops, wl.build(workload, seed, 0, smoke,
                                           rec=rec)):
            untraced += run_pass([plain], outcomes, speed.take)
            rec.on = True
            traced += run_pass([op], outcomes, speed.take)
            rec.on = False
        speed.take()
        passes = [untraced]
        out["layers"] = tracing.layer_metrics(rec)
        out["traced_wall_s"] = sum(end - start for start, end in traced)
        out["traced_cal_s"] = sum(speed.rescale(*w) for w in traced)
        spans_dir = wl.ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"spans-{workload}-{seed}.json").write_text(
            json.dumps(rec.spans))
    failed, unexpected, notes = wl.tally(outcomes)
    out.update(timings(passes, speed), attempted=len(outcomes),
               failed=failed, unexpected=unexpected, notes=notes,
               probes=len(speed.probes))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sys.exit(code)
