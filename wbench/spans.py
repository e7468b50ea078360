"""Spans around wlab's public functions, recorded from outside the library.

`Tracer.install` replaces each traced function in every wlab namespace
that holds it (module globals, class attributes, the acceptance criterion
table and the click command callbacks), so calls between modules are seen
too.  A span records its name, start, end, parent span and thread, plus
work counts computed from the call's arguments and result.  Self time is a
span's duration minus the durations of its children on the same thread,
where a child's duration includes the wrapper's own bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

from reference import SMALL_X


class _ScalarPoints:
    """Points of one reduced_arguments call that need the scalar Fraction path.

    A point needs it when b_n is not an integer, or when 0 < x mod 1 < 2^-11.
    The count is a property of the inputs, so it stays comparable when the
    library's paths change.  evaluate_many passes the same array at every
    level, so the last array's count is kept.
    """

    def __init__(self):
        self._integer = {}
        self._last = (None, 0)

    def __call__(self, spec, n, xs) -> int:
        key = (spec.freq, n)
        if key not in self._integer:
            self._integer[key] = Fraction(spec.freq.value(n)).denominator == 1
        arr = np.asarray(xs, dtype=np.float64)
        if not self._integer[key]:
            return arr.size
        if self._last[0] is not xs:
            r = arr - np.floor(arr)
            self._last = (xs, int(np.count_nonzero((r > 0.0) & (r < SMALL_X))))
        return self._last[1]


def _counters(scalar_points):
    """Work counts per traced function: name -> fn(result, *args, **kwargs) -> dict."""

    def reduced(res, spec, n, xs, theta=None):
        return {"calls": 1, "points": res.size, "scalar_points": scalar_points(spec, n, xs)}

    def char_mc(res, spec, x, y, u, n_draws, seed, order=None):
        return {"draw_terms": n_draws * order} if order is not None else {}

    return {
        "fn_core.reduced_arguments": reduced,
        "fn_core.BaseFunction.sample": lambda res, self, t: {"points": np.asarray(t).size},
        "fn_core.evaluate_many": lambda res, spec, draw, xs, order: {
            "calls": 1, "point_terms": res.size * order},
        "fn_core.draw_coefficients": lambda res, *a, **k: {"calls": 1},
        "covering.near_level_set": lambda res, *a, **k: {"cells": res.bits.size},
        "covering.GridSet.dilate": lambda res, self, steps=1: {"cell_steps": self.bits.size * steps},
        "covering.intersection_sequence": lambda res, a, *r, **k: {"cell_levels": a.bits.size * res[2]},
        "covering.first_hit_sets": lambda res, *a, **k: {
            "cell_levels": res.resolution ** 2 * (res.n_max_effective + 1)},
        "covering.cover_count": lambda res, s, delta: {"cells": int(np.count_nonzero(s.bits))},
        "covering.GridSet.write_pbm": lambda res, self, path: {"bytes": os.path.getsize(path)},
        "dimension.box_count": lambda res, sample, *a, **k: {"samples": len(sample.xs)},
        "dimension.box_dimension_scan": lambda res, *a, **k: {},
        "dimension.energy_threshold_scan": lambda res, spec, t_grid, n_pairs, seeds, order=None: {
            "pairs": n_pairs * len(list(seeds))},
        "occupation.occupation_histogram": lambda res, sample, bins: {"samples": len(sample.ys)},
        "occupation.adaptive_char_profile": lambda res, sample, *a, **k: {
            "sample_steps": len(sample.ys) * (len(res[0].us) // 2)},
        "occupation.parseval_check": lambda res, *a, **k: {},
        "occupation.increment_half_widths": lambda res, *a, **k: {"calls": 1},
        "occupation.char_function_mc": char_mc,
        "occupation.pair_product_bound": lambda res, *a, **k: {"pairs": res.n_checked + res.n_invalid},
        "acceptance.criterion_8": lambda res, *a, **k: {},
    }


CLI_COMMANDS = ("gen", "boxdim", "occ", "energy", "cover", "verify-all")

# Per-layer metrics: each traced name reports <name>.self_s and these counts.
LAYERS = {
    "fn_core.reduced_arguments": ("calls", "points", "scalar_points"),
    "fn_core.BaseFunction.sample": ("points",),
    "fn_core.evaluate_many": ("calls", "point_terms"),
    "fn_core.draw_coefficients": ("calls",),
    "covering.near_level_set": ("cells",),
    "covering.GridSet.dilate": ("cell_steps",),
    "covering.intersection_sequence": ("cell_levels",),
    "covering.first_hit_sets": ("cell_levels",),
    "covering.cover_count": ("cells",),
    "covering.GridSet.write_pbm": ("bytes",),
    "dimension.box_count": ("samples",),
    "dimension.box_dimension_scan": (),
    "dimension.energy_threshold_scan": ("pairs",),
    "occupation.occupation_histogram": ("samples",),
    "occupation.adaptive_char_profile": ("sample_steps",),
    "occupation.parseval_check": (),
    "occupation.increment_half_widths": ("calls",),
    "occupation.char_function_mc": ("draw_terms",),
    "occupation.pair_product_bound": ("pairs",),
    "acceptance.criterion_8": (),
    **{f"cli.{c}": ("artifact_bytes",) for c in CLI_COMMANDS},
}


def layer_metrics() -> list:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for name, counts in LAYERS.items():
        out.append((f"{name}.self_s", "s"))
        out.extend((f"{name}.{c}", "B" if c.endswith("bytes") else "count") for c in counts)
    return out


class Tracer:
    """Collects spans in memory, tagged with the benchmark round they ran in."""

    def __init__(self):
        self.spans = []   # (id, name, start, end, parent, thread, round, begin, stop)
        self.counts = defaultdict(lambda: defaultdict(float))   # round -> metric -> total
        self.round = 0
        self.recording = False   # on only while an operation runs, not its check
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()   # worker threads add counts too
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            begin = time.perf_counter()
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            done, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)   # may exit, as verify-all does
                done = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if done and count is not None:
                    for key, value in count(result, *args, **kwargs).items():
                        tracer.add(f"{name}.{key}", value)
                # [begin, stop] adds the wrapper's own work, which the parent
                # must not count as its self time.
                tracer.spans.append((span_id, name, start, end, parent, threading.get_ident(),
                                     tracer.round, begin, time.perf_counter()))
            return result

        return traced

    def add(self, metric: str, value: float) -> None:
        """Add to a count of the current round."""
        with self._lock:
            self.counts[self.round][metric] += value

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        import wlab
        from wlab import acceptance, cli, covering, fn_core

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "wlab" or name.startswith("wlab.")]
        classes = {"fn_core.BaseFunction": fn_core.BaseFunction, "covering.GridSet": covering.GridSet}
        for name, count in _counters(_ScalarPoints()).items():
            owner_name, attr = name.rsplit(".", 1)
            if owner_name in classes:
                owner = classes[owner_name]
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr), count))
                continue
            original = getattr(getattr(wlab, owner_name), attr)
            traced = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
            for cid, fn in list(acceptance.CRITERIA.items()):
                if fn is original:
                    self._patch_item(acceptance.CRITERIA, cid, traced)
        for command in CLI_COMMANDS:
            cmd = cli.main.commands[command]
            self._patch(cmd, "callback", self.wrap(f"cli.{command}", cmd.callback, None))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value) -> None:
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for setter, owner, key, value in reversed(self._restore):
            setter(owner, key, value)
        self._restore.clear()

    # -- reading -------------------------------------------------------------

    def round_metrics(self) -> dict:
        """round -> {"<span name>.self_s" | "<span name>.<count>": value}."""
        child_time = defaultdict(float)
        for _, _, _, _, parent, _, _, begin, stop in self.spans:
            if parent is not None:
                child_time[parent] += stop - begin
        out = defaultdict(lambda: defaultdict(float))
        for span_id, name, start, end, _, _, rnd, _, _ in self.spans:
            out[rnd][f"{name}.self_s"] += (end - start) - child_time[span_id]
        for rnd, values in self.counts.items():
            out[rnd].update(values)
        return out

    def to_json(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        origin = min((s[2] for s in self.spans), default=0.0)
        return {
            "schema": "wbench.trace/1",
            "names": names,
            "columns": ["id", "name", "start_s", "end_s", "parent", "thread", "round"],
            "spans": [[i, index[n], round(s - origin, 7), round(e - origin, 7), p, threads.index(t), r]
                      for i, n, s, e, p, t, r, _, _ in self.spans],
            "counts": {str(r): dict(values) for r, values in sorted(self.counts.items())},
        }
