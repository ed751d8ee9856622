"""Spans and counters around oscchain's public functions, from outside.

`install(recorder)` replaces each traced function at every name its callers
look up: the module attribute (`linalg.char_poly`), every `from .x import`
binding of the same object in other oscchain modules (`spectra` binds
`build_h_algebraic` that way), and the class attribute for methods.  Only
modules already imported are touched, so tracing loads nothing new.

A span is [name, start, end, parent]; the parent is the index of the span
that was open when this one began.  Spans stay in memory until the run
ends.  `layer_metrics` turns them into the per-layer metrics of
BENCHMARK.json; a layer is the first component of a span name.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from functools import partial

LAYERS = ("cli", "model", "spectra", "linalg", "exact", "integrals",
          "sepvar", "numerics")
CLI_COMMANDS = ("spectrum", "integrals", "sepvar", "qes", "bo", "curve",
                "verify-all")


class Recorder:
    def __init__(self):
        self.on = False
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.stack = []

    def add_spans(self, spans, parent):
        """Append spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end,
                               parent if p is None else base + p])


# -- size hooks: (recorder, bound arguments, result) -----------------------

def _nnz(rec, args, result):
    rec.counts["spectra.nnz"] += sum(1 for row in result.entries
                                     for x in row if x != 0)


def _report(rec, args, result):
    rec.counts["spectra.basis_size"] += result.basis.size
    rec.counts["spectra.eigenfunctions"] += len(result.eigenfunctions)
    slices = result.basis.degree_slices()
    if result.case is not None and result.case.value == "twobody_qes":
        block = result.basis.size      # one (N+1)x(N+1) block
    else:
        block = max(stop - start for _, start, stop in slices)
    rec.maxima["spectra.max_block"] = max(rec.maxima["spectra.max_block"],
                                          block)


def _coeff_bits(rec, args, result):
    bits = max(c.numerator.bit_length() + c.denominator.bit_length()
               for c in result)
    rec.maxima["linalg.coeff_bits_max"] = max(
        rec.maxima["linalg.coeff_bits_max"], bits)


def _roots(rec, args, result):
    rational, irrational = result
    rec.counts["linalg.eigs_rational"] += len(rational)
    rec.counts["linalg.eigs_interval"] += len(irrational)


def _points(rec, args, result):
    rec.counts["sepvar.pushforward_points"] += args.arguments.get(
        "n_points", 50)


# (module, attribute path, span name, size hook).  Spans that no metric
# names still count towards their layer's self time, so that the layers'
# self times cover the traced pass.
SPANS = (
    ("oscchain.model", "build_h_algebraic", "model.build_h", None),
    ("oscchain.model", "ground_state", "model.ground_state", None),
    ("oscchain.model", "build_radial_laplacian", "model.laplacian", None),
    ("oscchain.model", "build_potential", "model.potential", None),
    ("oscchain.spectra", "spectrum", "spectra.spectrum", None),
    ("oscchain.spectra", "qes_2body_block", "spectra.qes_block", _report),
    ("oscchain.spectra", "case_operator", "spectra.case_operator", None),
    ("oscchain.spectra", "case_ground_energy", "spectra.ground_energy", None),
    ("oscchain.spectra", "enumerate_basis", "spectra.basis", None),
    ("oscchain.spectra", "assemble_matrix", "spectra.assemble", _nnz),
    ("oscchain.spectra", "eigenvalues_graded", "spectra.extract", _report),
    ("oscchain.linalg", "char_poly", "linalg.char_poly", _coeff_bits),
    ("oscchain.linalg", "real_roots_exact", "linalg.roots", _roots),
    ("oscchain.linalg", "rank", "linalg.rank", None),
    ("oscchain.linalg", "nullspace", "linalg.nullspace", None),
    ("oscchain.linalg", "mat_sub_scaled_identity", "linalg.shift", None),
    ("oscchain.exact.diffop", "DiffOp.apply", "exact.diffop_apply", None),
    ("oscchain.exact.diffop", "DiffOp.compose", "exact.diffop_compose", None),
    ("oscchain.exact.diffop", "DiffOp.gauge_conjugate", "exact.gauge", None),
    ("oscchain.exact.diffop", "RatDiffOp.apply", "exact.ratdiffop_apply",
     None),
    ("oscchain.exact.phase", "poisson_bracket", "exact.poisson_bracket",
     None),
    ("oscchain.integrals", "battery", "integrals.battery", None),
    ("oscchain.sepvar", "verify_pushforward", "sepvar.pushforward", _points),
    ("oscchain.sepvar", "build_opham", "sepvar.opham", None),
    ("oscchain.sepvar", "match_separated_template", "sepvar.template", None),
    ("oscchain.sepvar", "potential_in_w", "sepvar.potential", None),
    ("oscchain.numerics", "fd_radial_eigen", "numerics.fd", None),
    ("oscchain.numerics", "bo_series_fit", "numerics.bo_fit", None),
)
# counted, not timed: too many calls for a span each
COUNTS = (
    ("oscchain.exact.poly", "MultiPoly.__mul__", "exact.poly_mul_calls"),
    ("oscchain.exact.poly", "MultiPoly.__rmul__", "exact.poly_mul_calls"),
)


def _span_wrapper(rec, name, fn, hook=None):
    sig = inspect.signature(fn) if hook is not None else None

    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        stack = rec.stack
        index = len(rec.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else None]
        rec.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if hook is not None:
            try:
                hook(rec, sig.bind(*args, **kwargs), result)
            except Exception:   # a size the result no longer has
                rec.counts["trace.hook_errors"] += 1
        return result

    traced.__wrapped__ = fn
    return traced


def _count_wrapper(rec, name, fn):
    def counted(*args, **kwargs):
        if rec.on:
            rec.counts[name] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def install(rec: Recorder) -> None:
    """Wrap every traced function of the oscchain modules already loaded."""
    loaded = [m for n, m in list(sys.modules.items())
              if n == "oscchain" or n.startswith("oscchain.")]
    targets = [(m, p, partial(_span_wrapper, rec, n, hook=h))
               for m, p, n, h in SPANS]
    targets += [(m, p, partial(_count_wrapper, rec, n)) for m, p, n in COUNTS]
    for modname, path, wrap in targets:
        module = sys.modules.get(modname)
        if module is None:
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = vars(owner).get(attr) if owner is not None else None
        if fn is None:          # gone from the program: reports 0
            continue
        wrapped = wrap(fn)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


# -- aggregation -------------------------------------------------------------

def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics from the recorded spans and counters.

    `_s` of a function is the total time of its outermost spans (a call
    nested inside another call of the same function is not counted twice);
    `<layer>.self_s` is span time minus the time of child spans.
    """
    spans = rec.spans
    child_time = [0.0] * len(spans)
    linalg_child = [0.0] * len(spans)
    ancestors = [()] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent is None:
            continue
        child_time[parent] += end - start
        if name.startswith("linalg."):
            linalg_child[parent] += end - start
        pname = spans[parent][0]
        ancestors[i] = ancestors[parent] + (pname,) \
            if pname not in ancestors[parent] else ancestors[parent]
    total = Counter()
    calls = Counter()
    self_time = Counter()
    extract_self = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        if name not in ancestors[i]:
            total[name] += end - start
        self_time[name.split(".")[0]] += end - start - child_time[i]
        if name == "spectra.extract":
            extract_self += end - start - linalg_child[i]
    c = rec.counts
    m = {
        "model.build_h_s": total["model.build_h"],
        "model.build_h_calls": calls["model.build_h"],
        "model.ground_state_s": total["model.ground_state"],
        "spectra.assemble_s": total["spectra.assemble"],
        "spectra.extract_self_s": extract_self,
        "spectra.eigfn_per_nullspace":
            c["spectra.eigenfunctions"] / calls["linalg.nullspace"]
            if calls["linalg.nullspace"] else 0.0,
        "spectra.basis_size": c["spectra.basis_size"],
        "spectra.max_block": rec.maxima["spectra.max_block"],
        "spectra.nnz": c["spectra.nnz"],
        "linalg.char_poly_s": total["linalg.char_poly"],
        "linalg.char_poly_calls": calls["linalg.char_poly"],
        "linalg.nullspace_s": total["linalg.nullspace"],
        "linalg.nullspace_calls": calls["linalg.nullspace"],
        "linalg.rank_s": total["linalg.rank"],
        "linalg.roots_s": total["linalg.roots"],
        "linalg.roots_calls": calls["linalg.roots"],
        "linalg.coeff_bits_max": rec.maxima["linalg.coeff_bits_max"],
        "linalg.eigs_rational": c["linalg.eigs_rational"],
        "linalg.eigs_interval": c["linalg.eigs_interval"],
        "exact.poly_mul_calls": c["exact.poly_mul_calls"],
        "exact.diffop_apply_calls": calls["exact.diffop_apply"],
        "exact.diffop_apply_s": total["exact.diffop_apply"],
        "exact.diffop_compose_calls": calls["exact.diffop_compose"],
        "exact.diffop_compose_s": total["exact.diffop_compose"],
        "exact.poisson_bracket_s": total["exact.poisson_bracket"],
        "integrals.battery_s": total["integrals.battery"],
        "integrals.battery_calls": calls["integrals.battery"],
        "sepvar.pushforward_s": total["sepvar.pushforward"],
        "sepvar.pushforward_points": c["sepvar.pushforward_points"],
        "sepvar.template_s": total["sepvar.template"],
        "sepvar.potential_s": total["sepvar.potential"],
        "numerics.fd_s": total["numerics.fd"],
        "numerics.fd_calls": calls["numerics.fd"],
        "numerics.bo_fit_s": total["numerics.bo_fit"],
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.cmd.{cmd}_s"] = total[f"cli.cmd.{cmd}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
