"""Layer spans for the traced run, recorded from outside the program.

Modules import functions by name, so a wrapper has to replace every
name a caller looks up: ``install`` swaps each target function for a
wrapper in every loaded ``circlet`` module that holds it, the defining
module included (intra-module calls go through its globals).  Nothing
under ``src/`` changes; the wrappers live only in the traced process.

A span's self time is its duration minus the part covered by its child
spans; self times of nested spans therefore add up to the time covered
by the outermost spans, and the rest of a traced call is unattributed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, function, span name); a span's layer is its prefix
SPANS = [
    ("circlet.synthetic", "gen_lens_bundle", "synthetic.generate"),
    ("circlet.synthetic", "gen_s1_bundle", "synthetic.generate"),
    ("circlet.io", "load_json", "io.load"),
    ("circlet.io", "parse_dataset", "io.load"),
    ("circlet.io", "parse_cover", "io.load"),
    ("circlet.io", "parse_trivs", "io.load"),
    ("circlet.io", "dump_json", "io.write"),
    ("circlet.nerve", "build_nerve", "nerve.build"),
    ("circlet.nerve", "edge_weights", "nerve.filtration"),
    ("circlet.nerve", "filtration_order", "nerve.filtration"),
    ("circlet.witness", "assemble_witness", "witness.assemble"),
    ("circlet.witness", "triv_quality", "witness.quality"),
    ("circlet.persistence", "persistence_report", "persistence.report"),
    ("circlet.persistence", "persistence_brute", "persistence.brute"),
    ("circlet.intlinalg", "smith_normal_form", "intlinalg.snf"),
    ("circlet.intlinalg", "solve_integer", "intlinalg.solve_integer"),
    ("circlet.intlinalg", "solve_gf2", "intlinalg.solve_gf2"),
    ("circlet.classes", "euler_cochain", "classes.euler_cochain"),
    ("circlet.classes", "fundamental_class_twisted", "classes.fundamental_class"),
    ("circlet.projection", "partition_of_unity", "projection.partition_of_unity"),
    ("circlet.projection", "frame_field", "projection.frame_field"),
    ("circlet.projection", "reduction_curve", "projection.reduction_curve"),
    ("circlet.projection", "stiefel_reduce", "projection.stiefel_reduce"),
    ("circlet.projection", "bundle_map", "projection.bundle_map"),
    ("circlet.projection", "global_trivialize", "projection.global_trivialize"),
]

# per-sample kernels: counted only, their time stays with the calling span
COUNTS = [
    ("circlet.witness", "procrustes_o2", "witness.procrustes"),
    ("circlet.projection", "stiefel_fiber_project", "projection.stiefel_fiber_project"),
    ("circlet.circle", "karcher_mean", "circle.karcher_mean"),
]

# per-call metric -> (statistic, span name)
CALL_METRICS = {
    "io.load_s": ("total", "io.load"),
    "io.write_s": ("total", "io.write"),
    "nerve.build_s": ("total", "nerve.build"),
    "nerve.filtration_s": ("total", "nerve.filtration"),
    "nerve.simplices": ("note", "nerve.simplices"),
    "witness.assemble_s": ("total", "witness.assemble"),
    "witness.quality_s": ("total", "witness.quality"),
    "witness.procrustes_calls": ("calls", "witness.procrustes"),
    "persistence.report_s": ("total", "persistence.report"),
    "persistence.brute_s": ("total", "persistence.brute"),
    "intlinalg.snf_calls": ("calls", "intlinalg.snf"),
    "intlinalg.snf_s": ("total", "intlinalg.snf"),
    "intlinalg.snf_max_cells": ("note", "intlinalg.snf_max_cells"),
    "intlinalg.solve_integer_calls": ("calls", "intlinalg.solve_integer"),
    "intlinalg.solve_gf2_calls": ("calls", "intlinalg.solve_gf2"),
    "intlinalg.solve_gf2_s": ("total", "intlinalg.solve_gf2"),
    "classes.euler_cochain_s": ("total", "classes.euler_cochain"),
    "classes.fundamental_class_s": ("total", "classes.fundamental_class"),
    "projection.partition_of_unity_s": ("total", "projection.partition_of_unity"),
    "projection.frame_field_s": ("total", "projection.frame_field"),
    "projection.reduction_curve_s": ("total", "projection.reduction_curve"),
    "projection.stiefel_reduce_s": ("total", "projection.stiefel_reduce"),
    "projection.bundle_map_self_s": ("self", "projection.bundle_map"),
    "projection.global_trivialize_self_s": ("self", "projection.global_trivialize"),
    "projection.stiefel_fiber_project_calls": ("calls", "projection.stiefel_fiber_project"),
    "circle.karcher_mean_calls": ("calls", "circle.karcher_mean"),
}


def _note_nerve(rec, args, result):
    rec.notes["nerve.simplices"] = len(result)


def _note_snf(rec, args, result):
    cells = int(np.prod(np.shape(args[0]))) if args else 0
    rec.notes["intlinalg.snf_max_cells"] = max(rec.notes["intlinalg.snf_max_cells"], cells)


_HOOKS = {"nerve.build": _note_nerve, "intlinalg.snf": _note_snf}


class Recorder:
    """Span totals, self times, call counts and notes of one traced call."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.notes = defaultdict(int)
        self.covered = 0.0  # time inside outermost spans
        self._stack = []  # child time accumulated per open span

    def span(self, name, fn, args, kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            else:
                self.covered += dur
            self.total[name] += dur
            self.self_time[name] += dur - children
            self.calls[name] += 1
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, args, result)
        return result

    def call_metrics(self, wall: float) -> dict:
        stats = {"total": self.total, "self": self.self_time, "calls": self.calls,
                 "note": self.notes}
        out = {m: float(stats[stat][key]) for m, (stat, key) in CALL_METRICS.items()}
        report = out["persistence.report_s"]
        out["persistence.brute_share"] = out["persistence.brute_s"] / report if report else 0.0
        out["persistence.cross_checked"] = 1.0 if self.calls["persistence.brute"] else 0.0
        out["trace.unattributed_s"] = wall - self.covered
        return out

    def layer_self(self) -> dict:
        layers = defaultdict(float)
        for name, t in self.self_time.items():
            layers[name.split(".")[0]] += t
        return dict(layers)


_active: Recorder | None = None


def recording(rec: Recorder | None):
    """Make ``rec`` receive the spans of the calls that follow; None stops."""
    global _active
    _active = rec


def _span_wrapper(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _active
        if rec is None:
            return fn(*args, **kwargs)
        return rec.span(name, fn, args, kwargs)

    return wrapper


def _count_wrapper(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _active
        if rec is not None:
            rec.calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install() -> list[str]:
    """Wrap every target at every name that refers to it.

    Returns the targets that no longer exist, so a refactor that moves a
    layer shows as a named gap instead of a silent zero.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "circlet" or n.startswith("circlet."))]
    missing = []
    for targets, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
        for mod_name, fn_name, span in targets:
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if fn is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = make(span, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
    return missing
