"""Optimal per-edge isometry witnesses and trivialization quality.

Given circle-valued charts over a cover, each edge of the nerve gets the
O(2) element that minimizes the worst-case chord misalignment between
the two charts on the shared samples (a minimax Procrustes problem on
the circle).  The per-edge witnesses assemble into a 1-cochain whose
holonomy defect, together with the chart misalignment and the fiber
coverage gap, quantifies how far the data is from an exact bundle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .circle import (
    O2,
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


@dataclass
class Trivialization:
    """Circle-valued charts over a cover.

    Attributes
    ----------
    charts : dict
        Cover-set id -> {sample id -> unit 2-vector on the circle}.
        Each chart's domain is exactly the member set of its cover set.
    """

    charts: dict[int, dict]

    def __post_init__(self):
        fixed = {}
        for j, table in self.charts.items():
            fixed[j] = {s: np.asarray(p, dtype=float) for s, p in table.items()}
            for s, p in fixed[j].items():
                if p.shape != (2,):
                    raise ShapeMismatch(f"chart {j} sample {s}: need a 2-vector")
        self.charts = fixed
        self._angles: dict[int, dict] = {}

    def sets(self) -> list[int]:
        return sorted(self.charts)

    def samples(self, j) -> set:
        return set(self.charts[j])

    def angle_table(self, j) -> dict:
        """Angles (turns) of chart ``j``, computed once and cached."""
        if j not in self._angles:
            table = self.charts[j]
            if table:
                ids = list(table)
                pts = np.stack([table[s] for s in ids])
                turns = s1_angle(pts)
                self._angles[j] = dict(zip(ids, turns))
            else:
                self._angles[j] = {}
        return self._angles[j]

    def shared(self, j, k):
        """Shared sample ids with both charts' angles, in sorted id order."""
        tj, tk = self.angle_table(j), self.angle_table(k)
        ids = sorted(set(tj) & set(tk))
        aj = np.array([tj[s] for s in ids], dtype=float)
        ak = np.array([tk[s] for s in ids], dtype=float)
        return ids, aj, ak

    def chord_errors(self, j, k, om: O2) -> np.ndarray:
        """Chord misalignment of chart ``j`` against ``om`` applied to chart ``k``.

        One entry per shared sample, in sorted id order.
        """
        _, aj, ak = self.shared(j, k)
        return turn_chord(aj - (om.turn + om.sign * ak))

    @classmethod
    def from_angles(cls, tables: dict[int, dict]) -> "Trivialization":
        """Build charts from angle tables given in turns."""
        charts = {}
        for j, table in tables.items():
            charts[j] = {
                s: np.array([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])
                for s, t in table.items()
            }
        return cls(charts)


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
        tj, tk = trivs.charts[j], trivs.charts[k]
        ids = sorted(set(tj) & set(tk))
        if len(ids) < 2:
            raise TooFewSamples(f"edge ({j}, {k}): {len(ids)} shared samples")
        f = np.stack([tj[s] for s in ids])
        g = np.stack([tk[s] for s in ids])
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
    eps = 0.0
    edge_rows = []
    for (j, k) in nerve.edges:
        om = witness.value((j, k))
        errs = trivs.chord_errors(j, k, om)
        edge_rows.append(
            EdgeQuality(
                edge=(j, k),
                turn=om.turn,
                sign=om.sign,
                max_err=float(np.max(errs)) if len(errs) else 0.0,
                mean_err=float(np.mean(errs)) if len(errs) else 0.0,
            )
        )
        if len(errs):
            eps = max(eps, float(np.max(errs)))

    def overlap_delta(simplices):
        worst = 0.0
        for s in simplices:
            tables = [trivs.angle_table(j) for j in s]
            ids = set(tables[0])
            for t in tables[1:]:
                ids &= set(t)
            for t in tables:
                worst = max(worst, coverage_gap(np.array([t[i] for i in sorted(ids)])))
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
    if set(a.charts) != set(b.charts):
        raise ShapeMismatch("trivializations cover different sets")
    worst = 0.0
    for j in a.charts:
        ta, tb = a.charts[j], b.charts[j]
        if set(ta) != set(tb):
            raise ShapeMismatch(f"set {j}: chart domains differ")
        for s, p in ta.items():
            worst = max(worst, float(np.linalg.norm(p - tb[s])))
    return worst
