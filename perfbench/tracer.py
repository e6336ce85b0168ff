"""Spans and counts recorded from outside the qhermite modules.

`Tracer.install()` replaces every module binding of every public qhermite
function (each name in a module's ``__all__``, wherever another module
imported it) with one wrapper per function, plus ``OracleFunction.evaluate``.
A wrapper records a span (name, start, end, parent span, op id) in memory and,
for the functions listed in ``_COUNTERS``, reads exact counts from the call's
arguments and return value.  ``uninstall()`` restores the original bindings.
No program code is edited; the program runs unchanged between the wrappers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("spectral_core", "discrete_qho", "fast_forward", "qht_pipeline", "hermite_sampling",
           "corpus", "learning_testers", "calibration", "cli")

TESTERS = ("learning_testers.test_product_sign", "learning_testers.test_low_degree",
           "learning_testers.test_hermite_polynomial")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_dft(tr, args, kwargs, result):
    tr.counts["spectral_core.centered_dft.bytes_computed"] += 32 * int(result.size)


def _count_tail(tr, args, kwargs, result):
    qho, N, t_max = _arg(args, kwargs, 0, "qho"), _arg(args, kwargs, 1, "N"), _arg(args, kwargs, 2, "t_max")
    family = _arg(args, kwargs, 3, "family", "x2_p2")
    t0 = 2 if family == "p2_anti" else 3
    tr.counts["discrete_qho.commutator_tail_norm.mp_fma_computed"] += (
        qho.M * qho.M * max(t_max - t0 + 1, 0) * N)


def _count_factored(tr, args, kwargs, result):
    qho, fe = _arg(args, kwargs, 0, "qho"), _arg(args, kwargs, 1, "fe")
    tr.counts["fast_forward.apply_factored.phase_factors"] += len(fe.factors)
    key = (qho.M, fe)
    if key in tr.seen_evolutions:
        tr.counts["fast_forward.apply_factored.repeats"] += 1
        if tr.seen_evolutions[key] != tr.op:
            tr.counts["fast_forward.apply_factored.repeats_across_ops"] += 1
    else:
        tr.seen_evolutions[key] = tr.op   # op that first used this evolution


def _count_qht(tr, args, kwargs, result):
    import numpy as np

    blocks = int(np.count_nonzero(np.asarray(_arg(args, kwargs, 0, "alpha"))))
    tr.counts["qht_pipeline.blocks"] += blocks
    if blocks == 1:
        tr.counts["qht_pipeline.blocks_one_hot"] += 1
    tr.counts["qht_pipeline.op_passes"] += int(result.op_passes)


def _count_distribution(tr, args, kwargs, result):
    f, scfg = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "scfg")
    key = (id(f), scfg, bool(_arg(args, kwargs, 2, "normalized", False)))
    if key in tr.seen_distributions:
        tr.counts["hermite_sampling.distribution_repeats"] += 1
    tr.seen_distributions[key] = f  # keeps f alive so its id is not reused


def _count_draw(tr, args, kwargs, result):
    tr.counts["hermite_sampling.attempts"] += int(result.attempts)
    tr.counts["hermite_sampling.out_of_range"] += int(result.out_of_range)


def _count_weight(tr, args, kwargs, result):
    tr.counts["learning_testers.weight_estimate.samples"] += int(result.samples)


def _count_ggl(tr, args, kwargs, result):
    tr.counts["learning_testers.gaussian_goldreich_levin.oracle_queries"] += int(result.oracle_queries)
    tr.counts["learning_testers.gaussian_goldreich_levin.nodes_examined"] += int(result.nodes_examined)


def _count_tester(tr, args, kwargs, result):
    tr.counts["learning_testers.testers.samples_used"] += int(result.samples_used)


def _count_evaluate(tr, args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 1, "x"), "shape", None)
    points = 1
    for d in (shape or (1, 1))[:-1]:
        points *= int(d)
    tr.counts["corpus.evaluate.points"] += points


_COUNTERS = {
    "spectral_core.centered_dft": _count_dft,
    "discrete_qho.commutator_tail_norm": _count_tail,
    "fast_forward.apply_factored": _count_factored,
    "qht_pipeline.qht_apply": _count_qht,
    "hermite_sampling.sample_distribution": _count_distribution,
    "hermite_sampling.general_hermite_sample": _count_draw,
    "learning_testers.weight_estimate": _count_weight,
    "learning_testers.gaussian_goldreich_levin": _count_ggl,
    "corpus.evaluate": _count_evaluate,
    **{name: _count_tester for name in TESTERS},
}


class Tracer:
    """In-memory spans plus exact counts; one instance per process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = "setup"
        self.seen_evolutions = {}
        self.seen_distributions = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of every public function in the qhermite modules."""
        mods = [importlib.import_module(f"qhermite.{m}") for m in MODULES]
        wrappers = {}            # id(original) -> (original, wrapper)
        for mod in mods:
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patch(mod, attr, wrapper)
        oracle = importlib.import_module("qhermite.hermite_sampling").OracleFunction
        self._patch(oracle, "evaluate", self._wrap("corpus.evaluate", oracle.evaluate))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def write_spans(path, records):
    """One JSON array per line: [proc, name, start, end, parent, op]."""
    with open(path, "w") as fh:
        for proc, dump in records:
            for name, start, end, parent, op in dump["spans"]:
                fh.write(json.dumps([proc, name, start, end, parent, op]) + "\n")


def _self_times(spans):
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def layer_metrics(dumps, extra=None):
    """Aggregate the per-layer metrics over the dumps of one or more processes."""
    calls, self_s, counts = Counter(), Counter(), Counter()
    for dump in dumps:
        counts.update(dump["counts"])
        for span, s in zip(dump["spans"], _self_times(dump["spans"])):
            calls[span[0]] += 1
            self_s[span[0]] += s
    for name in TESTERS:
        calls["learning_testers.testers"] += calls[name]
        self_s["learning_testers.testers"] += self_s[name]

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, unit in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[base]
        elif field == "self_s":
            out[metric] = self_s[base]
        elif metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = 0
    out["fast_forward.apply_factored.repeat_share"] = share(
        counts["fast_forward.apply_factored.repeats"], calls["fast_forward.apply_factored"])
    out["fast_forward.apply_factored.repeat_share_across_ops"] = share(
        counts["fast_forward.apply_factored.repeats_across_ops"], calls["fast_forward.apply_factored"])
    out["hermite_sampling.distribution_repeat_share"] = share(
        counts["hermite_sampling.distribution_repeats"], calls["hermite_sampling.sample_distribution"])
    out["hermite_sampling.accept_ratio"] = share(
        calls["hermite_sampling.general_hermite_sample"], counts["hermite_sampling.attempts"])
    out.update(extra or {})
    return {m: {"value": out[m], "unit": unit} for m, unit in PER_LAYER}


def _layer(base, unit_fields):
    return [(f"{base}.{field}", unit) for field, unit in unit_fields]


_CS = (("calls", "count"), ("self_s", "s"))

# Order and units of the per-layer metrics; BENCHMARK.json lists the same names.
PER_LAYER = [
    *_layer("spectral_core.centered_dft", _CS + (("bytes_computed", "bytes"),)),
    *_layer("spectral_core.hermite_function_rows", _CS),
    *_layer("spectral_core.probabilist_rows", _CS),
    *_layer("discrete_qho.dense_diagonalize", _CS),
    *_layer("discrete_qho.commutator_tail_norm", _CS + (("mp_fma_computed", "count"),)),
    *_layer("discrete_qho.hermite_basis", _CS),
    *_layer("fast_forward.apply_factored", _CS + (("phase_factors", "count"),
                                                  ("repeat_share", "ratio"),
                                                  ("repeat_share_across_ops", "ratio"))),
    *_layer("fast_forward.chebyshev_evolution", _CS),
    *_layer("fast_forward.low_energy_error", _CS),
    *_layer("qht_pipeline.qht_apply", _CS),
    ("qht_pipeline.blocks", "count"),
    ("qht_pipeline.blocks_one_hot", "count"),
    ("qht_pipeline.op_passes", "count"),
    *_layer("qht_pipeline.build_pr_state", _CS),
    *_layer("qht_pipeline.eigenstate_filter", _CS),
    *_layer("qht_pipeline.fixed_point_amplify", _CS),
    *_layer("qht_pipeline.uncompute_index", _CS),
    *_layer("hermite_sampling.sample_distribution", _CS),
    ("hermite_sampling.distribution_repeat_share", "ratio"),
    *_layer("hermite_sampling.general_hermite_sample", _CS),
    ("hermite_sampling.attempts", "count"),
    ("hermite_sampling.accept_ratio", "ratio"),
    ("hermite_sampling.out_of_range", "count"),
    *_layer("hermite_sampling.spectrum_table", _CS),
    ("corpus.evaluate.points", "count"),
    ("corpus.evaluate.self_s", "s"),
    *_layer("learning_testers.weight_estimate", _CS + (("samples", "count"),)),
    *_layer("learning_testers.gaussian_goldreich_levin", _CS + (("oracle_queries", "count"),
                                                                ("nodes_examined", "count"))),
    *_layer("learning_testers.testers", _CS + (("samples_used", "count"),)),
    *_layer("learning_testers.coefficient_estimate", _CS),
    ("cli.main.self_s", "s"),
    ("cli.process_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
