"""Correctness oracle for the benchmark's workload outputs.

Every check reads only the files a run wrote and the generator's
ground truth (``scenario.json`` plus the input documents); nothing here
imports the program under test, so a defect in the program cannot hide
a defect in its own checks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# coordinates and residuals are exact up to float round-off on noise-free inputs
RESIDUAL_MAX = 1e-9
UNIT_TOL = 1e-9
# The global angle is each chart moved by one reflection choice and a
# rotation that the partition of unity blends along the base, so
# theta - sign * chart is a function of the base point.  Its slope, in
# turns of fiber per turn of base, stays near 50 on the torus inputs
# (overlaps 1/96 turn wide, chart offsets up to 1/2 turn); a scrambled
# or wrongly reflected coordinate jumps by tenths of a turn between
# neighbouring base points and so has slopes in the thousands.
CHART_SLOPE_MAX = 200.0

TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Expected:
    """Ground truth for one generated input set."""

    euler_number: int
    sw_trivial: bool
    ids: list  # sorted sample ids
    charts: dict | None = None  # set id -> (sample ids, turns), for global checks
    base_turn: dict | None = None  # sample id -> base angle in turns, circle bases


def load_expected(input_dir: str, with_charts: bool = False) -> Expected:
    scenario = _load(input_dir, "scenario.json")
    dataset = _load(input_dir, "dataset.json")
    charts = base_turn = None
    if with_charts:
        base_turn = {
            row["id"]: math.atan2(row["base"][1], row["base"][0]) / (2 * math.pi) % 1.0
            for row in dataset["samples"]
        }
        trivs = _load(input_dir, "trivs.json")
        charts = {
            row["id"]: (
                [v["sample"] for v in row["values"]],
                np.array([v["angle_turns"] for v in row["values"]], dtype=float),
            )
            for row in trivs["sets"]
        }
    return Expected(
        euler_number=int(scenario["euler_number"]),
        sw_trivial=bool(scenario["sw_trivial"]),
        ids=sorted(row["id"] for row in dataset["samples"]),
        charts=charts,
        base_turn=base_turn,
    )


def _load(directory: str, name: str):
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return json.load(fh)


def persistence_indices(report: dict) -> tuple[int, int, int, int]:
    """(sw cobirth, sw codeath, euler cobirth, euler codeath) of a report."""
    p = report["persistence"]
    return (
        p["sw"]["cobirth_index"],
        p["sw"]["codeath_index"],
        p["euler"]["cobirth_index"],
        p["euler"]["codeath_index"],
    )


def nerve_simplices(report: dict) -> int:
    return sum(row["count"] for row in report["persistence"]["stage_sizes"])


def check_report(out_dir: str, exp: Expected, pinned: tuple | None) -> list[str]:
    doc = _load(out_dir, "report.json")
    problems = []
    classes = doc["classes"]
    number = classes["euler_number"]
    if number is None or abs(number) != exp.euler_number:
        problems.append(f"euler number {number}, expected magnitude {exp.euler_number}")
    if classes["sw_coboundary"] is not exp.sw_trivial:
        problems.append(
            f"sw_coboundary {classes['sw_coboundary']}, expected {exp.sw_trivial}"
        )
    sw_birth, sw_death, eu_birth, eu_death = idx = persistence_indices(doc)
    size = nerve_simplices(doc)
    if not (1 <= sw_death <= sw_birth <= size and 1 <= eu_death <= eu_birth <= sw_birth):
        problems.append(f"persistence indices {idx} are not ordered within {size} simplices")
    if pinned is not None and idx != tuple(pinned):
        problems.append(f"persistence indices {idx}, pinned {tuple(pinned)}")
    curve = doc["reduction_curve"]
    if not curve or not all(
        math.isfinite(r["mean_error"]) and 0.0 <= r["mean_error"] <= r["max_error"]
        for r in curve
    ):
        problems.append("reduction curve is empty or has invalid errors")
    return problems


def check_frame(out_dir: str, exp: Expected, dim: int) -> list[str]:
    doc = _load(out_dir, "coords.json")
    problems = []
    if doc["kind"] != "frame" or doc["dim"] != dim:
        problems.append(f"coords kind {doc['kind']!r} dim {doc['dim']}, expected frame {dim}")
    rows = doc["vectors"]
    if sorted(r["id"] for r in rows) != exp.ids:
        problems.append(f"{len(rows)} vectors do not cover the {len(exp.ids)} samples")
    vecs = np.array([r["v"] for r in rows], dtype=float)
    if vecs.shape != (len(rows), dim):
        problems.append(f"vectors have shape {vecs.shape}, expected (n, {dim})")
    else:
        worst = float(np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0), initial=0.0))
        if not worst <= UNIT_TOL:
            problems.append(f"a vector is {worst:.3g} away from unit length")
    for key in ("overlap_residual", "plane_residual"):
        if not doc[key] <= RESIDUAL_MAX:
            problems.append(f"{key} {doc[key]:.3g} above {RESIDUAL_MAX}")
    return problems


def check_global(out_dir: str, exp: Expected) -> list[str]:
    doc = _load(out_dir, "coords.json")
    problems = []
    if doc["kind"] != "global":
        problems.append(f"coords kind {doc['kind']!r}, expected global")
    angle = {r["id"]: r["angle_turns"] for r in doc["angles"]}
    if sorted(angle) != exp.ids:
        problems.append(f"{len(angle)} angles do not cover the {len(exp.ids)} samples")
        return problems
    if not doc["residual"] <= RESIDUAL_MAX:
        problems.append(f"residual {doc['residual']:.3g} above {RESIDUAL_MAX}")
    for j, (ids, phi) in exp.charts.items():
        theta = np.array([angle[s] for s in ids], dtype=float)
        base = np.array([exp.base_turn[s] for s in ids], dtype=float)
        # order along the arc, cutting the circle opposite its first sample
        base = (base - base[0] + 0.5) % 1.0
        order = np.argsort(base, kind="stable")
        gaps = np.maximum(np.diff(base[order]), 1e-12)
        slope = min(
            _max_slope((theta - sign * phi)[order], gaps) for sign in (1.0, -1.0)
        )
        if not slope <= CHART_SLOPE_MAX:
            problems.append(
                f"chart {j}: global angle departs from the chart at slope {slope:.3g}"
            )
    return problems


def _max_slope(offset: np.ndarray, gaps: np.ndarray) -> float:
    steps = np.abs((np.diff(offset) + 0.5) % 1.0 - 0.5)
    return float(np.max(steps / gaps, initial=0.0))


def check_outputs(kind: str, out_dir: str, exp: Expected, pinned=None) -> list[str]:
    """Problems with one run's outputs; an unreadable output is one problem."""
    try:
        if kind == "report":
            return check_report(out_dir, exp, pinned)
        if kind == "frame":
            return check_frame(out_dir, exp, dim=4)
        if kind == "global":
            return check_global(out_dir, exp)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown oracle kind {kind!r}")


def failure_reasons(code: int, stderr: str, problems: list[str]) -> list[str]:
    """Why one workload run counts as failed; empty when it succeeded."""
    reasons = []
    if code != 0:
        reasons.append(f"exit code {code}")
    if TRACEBACK in stderr:
        reasons.append("traceback on stderr")
    if code == 0:
        reasons.extend(problems)
    return reasons
