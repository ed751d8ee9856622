"""Self-test of the benchmark: metrics are printed, checks bite, counts repeat.

Usage (from the root of the repository): python3 perfbench/selftest.py

1. Smoke: every workload runs once untraced and once traced at its
   smallest size; every metric of BENCHMARK.json is printed with its unit.
2. Corrupted results: a spectrum with one eigenvalue shifted by 1, and a
   CLI stdout checked against a flipped digest, each count as a failed op.
3. Determinism: two traced runs with the same seed give identical sizes
   and counts; another seed draws other inputs.

Takes about two minutes; exits 0 when every assertion holds.
"""
import json
import subprocess
import sys
from dataclasses import replace

import workloads as wl

DETERMINISTIC = ("spectra.basis_size", "spectra.nnz", "linalg.coeff_bits_max",
                 "linalg.eigs_rational", "linalg.eigs_interval",
                 "sepvar.pushforward_points")


def bench(workload: str, seed: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, cwd=wl.ROOT,
        timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def smoke(spec) -> dict:
    traced = {}
    for workload in wl.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, res = bench(workload, 3, trace)
            assert sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], res
            assert res["correct"] and res["attempted"] >= 1, res
            assert sorted(res["metrics"]) == sorted(m["name"]
                                                    for m in spec[key])
            for m in spec[key]:
                assert res["metrics"][m["name"]]["unit"] == m["unit"]
                prefix = f"{workload} {m['name']} = "
                assert any(line.startswith(prefix)
                           and line.endswith(f" {m['unit']}")
                           for line in lines), (workload, m["name"])
            if trace:
                traced[workload] = res["metrics"]
        print(f"smoke {workload}: ok")
    return traced


def corrupted() -> None:
    sys.path.insert(0, str(wl.ROOT / "src"))
    from oscchain.model import Case

    op = wl.spectrum_op(Case.GENERAL3, wl.default_params(Case.GENERAL3), 2)
    rep = op.run()
    ev = rep.gauged[0]
    if ev.value is not None:
        ev = replace(ev, value=ev.value + 1)
    else:
        ev = replace(ev, interval=(ev.interval[0] + 1, ev.interval[1] + 1))
    shifted = replace(rep, gauged=(ev,) + rep.gauged[1:])
    assert wl.tally([(op, rep)])[:2] == (0, 0)
    assert wl.tally([(op, shifted)])[:2] == (1, 1)

    digests = wl.load_digests()
    good = digests["curve"]
    flipped = dict(digests, curve=("1" if good[0] == "0" else "0") + good[1:])
    ops = wl.cli(0, 0), wl.cli(0, 0, digests=flipped)
    curve = [next(op for op in batch if op.label == "cli curve")
             for batch in ops]
    result = curve[0].run()
    assert wl.tally([(curve[0], result)])[:2] == (0, 0)
    assert wl.tally([(curve[1], result)])[:2] == (1, 1)
    print("corrupted results: both counted as failed ops")


def determinism(first: dict) -> None:
    for workload in wl.WORKLOADS:
        _, res = bench(workload, 3, 1)
        again = res["metrics"]
        for name in first[workload]:
            if name in DETERMINISTIC or (name.startswith("exact.")
                                         and name.endswith("_calls")):
                assert first[workload][name] == again[name], \
                    (workload, name, first[workload][name], again[name])
        same = [op.inputs for op in wl.build(workload, 3, 0, smoke=True)]
        assert same == [op.inputs for op in wl.build(workload, 3, 0, True)]
        assert same != [op.inputs for op in wl.build(workload, 4, 0, True)]
        print(f"determinism {workload}: ok")


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    traced = smoke(spec)
    corrupted()
    determinism(traced)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
