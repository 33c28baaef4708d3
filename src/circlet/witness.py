"""Optimal per-edge isometry witnesses and trivialization quality.

Given circle-valued charts over a cover, each edge of the nerve gets the
O(2) element that minimizes the worst-case chord misalignment between
the two charts on the shared samples (a minimax Procrustes problem on
the circle).  The per-edge witnesses assemble into a 1-cochain whose
holonomy defect, together with the chart misalignment and the fiber
coverage gap, quantifies how far the data is from an exact bundle.

Charts are stored column-wise: each chart is a sorted int64 array of
sample ids with a row-aligned ``(n, 2)`` array of unit vectors and an
array of their angles in turns.  ``Trivialization.overlap`` is the one
intersection of chart domains; the witness, the quality report and the
edge weights all read it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circle import (
    O2,
    TWO_PI,
    s1_angle,
    shortest_enclosing_arc,
    turn_chord,
)
from .cochains import Cochain, cocycle_defect
from .errors import (
    DiameterTooLarge,
    GuardError,
    NonUniqueArc,
    ShapeMismatch,
    TooFewSamples,
)
from .nerve import Nerve

log = logging.getLogger(__name__)

# theory range for a valid witness; exceeding it degrades guarantees only
EPSILON_VALID = math.sqrt(2.0)


class Chart(NamedTuple):
    """One chart as row-aligned columns."""

    ids: np.ndarray  # sorted, duplicate-free int64 sample ids
    points: np.ndarray  # (n, 2) unit vectors on the circle
    turns: np.ndarray  # (n,) their angles in turns, in [0, 1)


class Trivialization:
    """Circle-valued charts over a cover, one :class:`Chart` per cover set.

    ``charts`` maps a set id to (sample ids, ``(n, 2)`` points), ids in
    any order; a chart's domain is exactly its cover set's members.
    Angles are computed once, here, and ``restrict`` copies whole rows.

    ``overlap(*sets)`` is the only intersection of chart domains.  It
    returns ``(ids, rows)``: the shared sample ids in ascending order,
    and for each ``sets[i]`` the rows of that chart holding them, so that
    ``chart(sets[i]).ids[rows[i]]`` equals ``ids``.

    Raises ``ShapeMismatch`` when a point is not a 2-vector or a chart
    repeats a sample id.
    """

    def __init__(self, charts: dict):
        self._charts = {}
        for j, (ids, pts) in charts.items():
            ids = np.asarray(ids, dtype=np.int64).reshape(-1)
            pts = np.asarray(pts, dtype=float) if len(ids) else np.empty((0, 2))
            if pts.shape != (len(ids), 2):
                raise ShapeMismatch(f"chart {j}: need one 2-vector per sample")
            order = np.argsort(ids, kind="stable")
            ids, pts = ids[order], pts[order]
            dup = ids[1:][ids[1:] == ids[:-1]]
            if len(dup):
                raise ShapeMismatch(f"chart {j}: sample {dup[0]} appears twice")
            self._charts[j] = Chart(ids, pts, s1_angle(pts))

    @classmethod
    def from_turns(cls, tables: dict) -> "Trivialization":
        """Charts from angles in turns: ``set id -> (ids, turns)`` or ``{id: turn}``."""
        charts = {}
        for j, table in tables.items():
            if isinstance(table, dict):
                table = (list(table), list(table.values()))
            ids, turns = table
            t = TWO_PI * np.asarray(turns, dtype=float)
            charts[j] = (ids, np.stack([np.cos(t), np.sin(t)], axis=-1))
        return cls(charts)

    def sets(self) -> list[int]:
        return sorted(self._charts)

    def chart(self, j) -> Chart:
        return self._charts[j]

    def overlap(self, *sets):
        """Shared sample ids of the charts ``sets`` and each chart's rows for them."""
        ids = self._charts[sets[0]].ids
        rows = [np.arange(len(ids))]
        for j in sets[1:]:
            ids, here, there = np.intersect1d(
                ids, self._charts[j].ids, assume_unique=True, return_indices=True
            )
            rows = [r[here] for r in rows] + [there]
        return ids, rows

    def at(self, samples, sets):
        """Points and angles of samples in charts, elementwise.

        ``samples`` and ``sets`` broadcast against each other: ``at(s, [j, k])``
        gives sample ``s`` in charts ``j`` and ``k``, and an ``(n, 1)`` column
        of samples against ``(n, m)`` set ids gives every sample in each of
        its sets.  Returns points ``(..., 2)`` and turns ``(...)``.
        """
        samples, sets = np.broadcast_arrays(np.asarray(samples, dtype=np.int64), sets)
        pts = np.empty(samples.shape + (2,))
        turns = np.empty(samples.shape)
        for j in sorted(set(sets.ravel().tolist())):
            here = sets == j
            c = self._charts[j]
            want = samples[here]
            r = np.minimum(c.ids.searchsorted(want), max(len(c.ids) - 1, 0))
            miss = c.ids[r] != want if len(c.ids) else np.ones(len(want), bool)
            if miss.any():
                raise KeyError(f"chart {j} has no sample {want[miss][0]}")
            pts[here] = c.points[r]
            turns[here] = c.turns[r]
        return pts, turns

    def restrict(self, domains: dict) -> "Trivialization":
        """Charts cut to new domains, ``new id -> (parent id, sample ids)``.

        A new chart keeps its parent's rows on those samples the parent
        holds; parents without a chart are skipped.
        """
        out = Trivialization({})
        for new, (j, members) in domains.items():
            c = self._charts.get(j)
            if c is not None:
                keep = np.isin(c.ids, np.fromiter(members, np.int64, len(members)))
                out._charts[new] = Chart(*(col[keep] for col in c))
        return out

    def shared(self, j, k):
        """Shared sample ids with both charts' angles, in sorted id order."""
        ids, (rj, rk) = self.overlap(j, k)
        return ids, self._charts[j].turns[rj], self._charts[k].turns[rk]

    def chord_errors(self, j, k, om: O2) -> np.ndarray:
        """Chord misalignment of chart ``j`` against ``om`` applied to chart ``k``.

        One entry per shared sample, in sorted id order.
        """
        _, aj, ak = self.shared(j, k)
        return turn_chord(aj - (om.turn + om.sign * ak))


@dataclass
class EdgeQuality:
    """Alignment detail for one nerve edge under a given witness."""

    edge: tuple
    turn: float
    sign: int
    max_err: float
    mean_err: float  # the filtration weight


@dataclass
class QualityReport:
    """Trivialization quality against a witness cochain.

    ``epsilon`` is the worst chord misalignment over all edges and shared
    samples; ``delta`` the worst fiber-coverage gap over pairwise and
    triple overlaps (both flavors also reported separately);
    ``alpha = epsilon / (1 - delta)`` and ``cocycle_epsilon`` is the
    witness's holonomy defect.
    """

    epsilon: float
    delta: float
    delta_pairwise: float
    delta_triple: float
    alpha: float
    cocycle_epsilon: float
    edges: list[EdgeQuality] = field(default_factory=list)


def procrustes_o2(f_vals, g_vals) -> tuple[O2, float]:
    """Minimax alignment of two circle-valued sample lists.

    Considers the rotation candidate built from the differences of
    angles and the reflection candidate built from their sums; for each,
    the turn is the midpoint of the shortest arc enclosing the residuals
    (the chord error is monotone in circular distance, so the midpoint
    is the minimax choice).  Returns whichever candidate achieves the
    smaller actual max chord error, with that error.

    Raises
    ------
    TooFewSamples
        Fewer than two samples.
    DiameterTooLarge
        Both residual sets spread over half a circle or more, so neither
        enclosing-arc construction is valid.
    """
    f_vals = np.atleast_2d(np.asarray(f_vals, dtype=float))
    g_vals = np.atleast_2d(np.asarray(g_vals, dtype=float))
    if f_vals.shape != g_vals.shape:
        raise ShapeMismatch("sample lists differ in shape")
    n = f_vals.shape[0]
    if n < 2:
        raise TooFewSamples(f"minimax alignment needs >= 2 samples, got {n}")
    alpha = s1_angle(f_vals)
    beta = s1_angle(g_vals)
    candidates = []
    for resid, sign in (((alpha - beta) % 1.0, 1), ((alpha + beta) % 1.0, -1)):
        try:
            arc = shortest_enclosing_arc(resid)
        except NonUniqueArc:
            continue  # ties only happen at width >= 1/2, out of range anyway
        if arc.width >= 0.5:
            continue
        err = float(np.max(turn_chord(resid - arc.midpoint)))
        candidates.append((err, sign, O2(arc.midpoint, sign)))
    if not candidates:
        raise DiameterTooLarge(
            "rotation and reflection residuals both spread over half a circle"
        )
    if len(candidates) == 2 and candidates[0][0] == candidates[1][0]:
        log.info("procrustes tie between components; returning the rotation")
        return candidates[0][2], candidates[0][0]
    err, _, om = min(candidates, key=lambda c: c[0])
    return om, err


def assemble_witness(trivs: Trivialization, nerve: Nerve) -> Cochain:
    """Per-edge minimax witnesses, assembled into an isometry 1-cochain.

    Edges are processed independently, in nerve order; any per-edge
    failure is re-raised with the edge attached.  Edges whose
    minimax error reaches the validity threshold are logged as warnings,
    not rejected.
    """
    vals = {}
    worst = 0.0
    for j, k in nerve.edges:
        ids, (rj, rk) = trivs.overlap(j, k)
        if len(ids) < 2:
            raise TooFewSamples(f"edge ({j}, {k}): {len(ids)} shared samples")
        f, g = trivs.chart(j).points[rj], trivs.chart(k).points[rk]
        try:
            vals[(j, k)], err = procrustes_o2(f, g)
        except GuardError as exc:
            raise type(exc)(f"edge ({j}, {k}): {exc}") from exc
        worst = max(worst, err)
    if worst >= EPSILON_VALID:
        log.warning(
            "witness misalignment %.3f exceeds the validity threshold %.3f",
            worst,
            EPSILON_VALID,
        )
    return Cochain(nerve, 1, "O2", vals)


def coverage_gap(turns: np.ndarray) -> float:
    """Hausdorff gap of a circular sample set: 2 sin(g/4), g the max gap."""
    if len(turns) == 0:
        return 2.0
    a = np.sort(np.asarray(turns, dtype=float) % 1.0)
    gaps = np.diff(a, append=a[0] + 1.0)
    g = float(np.max(gaps)) * 2.0 * np.pi
    return 2.0 * math.sin(g / 4.0)


def triv_quality(trivs: Trivialization, witness: Cochain, nerve: Nerve) -> QualityReport:
    """Misalignment, coverage, and cocycle-defect summary of charts.

    The coverage gap is evaluated for every chart of every pairwise and
    triple overlap; the reported delta is the worse of the two flavors.
    """
    edge_rows = []
    for (j, k) in nerve.edges:
        om = witness.value((j, k))
        errs = trivs.chord_errors(j, k, om)
        edge_rows.append(
            EdgeQuality(
                edge=(j, k),
                turn=om.turn,
                sign=om.sign,
                max_err=float(np.max(errs, initial=0.0)),
                mean_err=float(np.mean(errs)) if len(errs) else 0.0,
            )
        )
    eps = max((row.max_err for row in edge_rows), default=0.0)

    def overlap_delta(simplices):
        worst = 0.0
        for s in simplices:
            _, rows = trivs.overlap(*s)
            for j, r in zip(s, rows):
                worst = max(worst, coverage_gap(trivs.chart(j).turns[r]))
        return worst

    d_pair = overlap_delta(nerve.edges)
    d_triple = overlap_delta(nerve.triangles)
    delta = max(d_pair, d_triple)
    alpha = math.inf if delta >= 1.0 else eps / (1.0 - delta)
    return QualityReport(
        epsilon=eps,
        delta=delta,
        delta_pairwise=d_pair,
        delta_triple=d_triple,
        alpha=alpha,
        cocycle_epsilon=cocycle_defect(witness),
        edges=edge_rows,
    )


def triv_distance(a: Trivialization, b: Trivialization) -> float:
    """Sup over sets and samples of the chord distance between charts."""
    if a.sets() != b.sets():
        raise ShapeMismatch("trivializations cover different sets")
    worst = 0.0
    for j in a.sets():
        ca, cb = a.chart(j), b.chart(j)
        if not np.array_equal(ca.ids, cb.ids):
            raise ShapeMismatch(f"set {j}: chart domains differ")
        gaps = np.linalg.norm(ca.points - cb.points, axis=1)
        worst = max(worst, float(np.max(gaps, initial=0.0)))
    return worst
