"""Cobirth/codeath thresholds of classes along the weights filtration.

A class restricted to a filtration stage either satisfies its cocycle
condition or not, and either is a coboundary or not.  Cobirth is found
by locating the first violating simplex.  Codeath comes from one sweep:
the class's cells are fed in filtration order to an incremental
elimination that answers, for every prefix, whether the stage system is
solvable, and the largest solvable stage up to cobirth is read off
without assuming that the answers are monotone.  A sign class goes to
the parity union-find ``sign_solvable_prefixes``, an integer class to
the unit-pivot sweep ``solvable_prefixes``.

The independent check is a per-stage scan, ``persistence_brute``: it
solves every stage from scratch, the integer class by the elimination
``integer_solvable`` that picks the sparsest pivot first, and runs
automatically on small nerves; any disagreement with the sweep is a hard
error.  Stages that add no cell of the class pose the same system, so
the scan decides each distinct system once.

A class is an array on the edges (signs) or the triangles (integers,
with a sign array on the edges as twist).  Each call builds one
``StageProbe`` that the sweep and the scan share: the class's cells in
filtration order with their coboundary rows, so every stage reads a
prefix, and the first stages where the class or its twist fail the
cocycle identity.  Only the yes/no answers are used.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classes import CharClassResult, euler_cochain, sw_class
from .cochains import Witness, coboundary, coboundary_rows, sign_coboundary
from .errors import GuardError, NotACocycle, ShapeMismatch
from .intlinalg import (
    integer_solvable,
    sign_potential,
    sign_solvable_prefixes,
    solvable_prefixes,
)
from .nerve import Nerve, stage_subcomplex

# nerves at or below this size always get the authoritative linear scan
CROSS_CHECK_LIMIT = 500


@dataclass
class ThresholdPair:
    """Largest stages where a class is a cocycle / a coboundary."""

    cobirth_index: int
    cobirth_weight: float
    codeath_index: int
    codeath_weight: float

    def __post_init__(self):
        # coboundaries are cocycles, so the thresholds are ordered
        if self.codeath_index > self.cobirth_index:
            raise GuardError(
                f"codeath stage {self.codeath_index} exceeds cobirth stage "
                f"{self.cobirth_index}"
            )


@dataclass
class PersistenceReport:
    """Thresholds for the sign and integer classes of one witness.

    ``classes`` holds the characteristic classes computed on the stage
    subcomplex at the sign class's cobirth, or None when not computed.
    """

    sw: ThresholdPair
    euler: ThresholdPair
    w_max: float
    stage_sizes: dict
    classes: Optional[CharClassResult] = None


def _first_stage(nerve: Nerve, p: int, failing: np.ndarray) -> int:
    """The earliest filtration index of a p-simplex where ``failing`` holds, else past the top."""
    return int(nerve.stage[p][failing].min(initial=len(nerve) + 1))


class StageProbe:
    """The coboundary system of a class along the filtration, built once per call.

    ``lam`` is a sign class on the edges (``p`` 1) or an integer class on
    the triangles (``p`` 2) twisted by the sign array ``twist``.  Holds its
    cells in filtration order, their right sides and, for an integer
    class, their coboundary rows; ``violation`` and ``twist_broken`` are
    the first stages where the class and the twist fail the cocycle
    identity, past the top when they never do.  Stage ``r`` reads the
    cells with index at most ``r``.
    """

    def __init__(self, lam: np.ndarray, nerve: Nerve, p: int, twist: Optional[np.ndarray] = None):
        nerve.require_order()
        if p not in (1, 2) or len(lam) != len(nerve.simplices[p]):
            raise ShapeMismatch("persistence handles sign 1-cochains and integer 2-cochains")
        self.nerve = nerve
        self.answers: dict = {}  # prefix length -> solvable, for the per-stage scan
        order = np.argsort(nerve.stage[p], kind="stable")
        self.cells, self.index, self.rhs = (
            nerve.simplices[p][order], nerve.stage[p][order].tolist(), lam[order].tolist())
        self.rows = None  # a sign class goes to the union-find, without rows
        self.twist_broken = len(nerve) + 1
        if p == 1:
            self.violation = _first_stage(nerve, 2, sign_coboundary(lam, nerve, 1) != 1)
        else:
            self.violation = _first_stage(nerve, 3, coboundary(lam, nerve, 2, twist) != 0)
            if twist is not None:
                self.twist_broken = _first_stage(nerve, 2, sign_coboundary(twist, nerve, 1) != 1)
            rows = coboundary_rows(nerve, 1, twist)
            self.rows = [rows[i] for i in order.tolist()]

    def _check_twist(self, r: int) -> None:
        if self.twist_broken <= r:
            raise NotACocycle(f"the twist fails the cocycle identity at stage {r}")

    def solvable(self, r: int) -> bool:
        """Is the restriction of the class to stage ``r`` a coboundary?

        Solved from scratch, once per prefix: stages that add no cell of
        the class pose the same system.
        """
        self._check_twist(r)
        n = bisect_right(self.index, r)
        if n not in self.answers:
            if self.rows is None:
                found = sign_potential(self.cells[:n], self.rhs[:n]) is not None
            else:
                found = integer_solvable(self.rows[:n], self.rhs[:n])
            self.answers[n] = found
        return self.answers[n]

    def codeath(self, cobirth: int) -> int:
        """The largest stage up to ``cobirth`` where the class is a coboundary.

        One sweep over the cells up to ``cobirth`` decides every prefix;
        the largest solvable one is read off without assuming that
        solvability is monotone.
        """
        self._check_twist(cobirth)
        n = bisect_right(self.index, cobirth)
        if self.rows is None:
            solvable = sign_solvable_prefixes(self.cells[:n], self.rhs[:n])
        else:
            solvable = solvable_prefixes(self.rows[:n], self.rhs[:n])
        m = n
        while not solvable[m]:
            m -= 1  # the empty prefix solves, so this stops
        # the last stage before the (m+1)-th cell enters
        return cobirth if m == n else self.index[m] - 1


def _pair(nerve: Nerve, cobirth: int, codeath: int) -> ThresholdPair:
    weight = nerve.stage_weights()
    return ThresholdPair(cobirth, weight[cobirth - 1].item(), codeath, weight[codeath - 1].item())


def persistence(lam: np.ndarray, nerve: Nerve, p: int, twist: Optional[np.ndarray] = None,
                cross_check: Optional[bool] = None) -> ThresholdPair:
    """Cobirth and codeath stages of a class along the filtration.

    ``lam`` is a sign class on the edges (``p`` 1) or an integer class on
    the triangles (``p`` 2) twisted by the sign array ``twist``.
    ``cross_check`` forces or suppresses the linear per-stage scan; by
    default it runs on nerves up to 500 simplices and any disagreement
    with the sweep is a hard error.  To scan only part of the
    filtration, pass the class restricted to a ``stage_subcomplex``.
    """
    probe = StageProbe(lam, nerve, p, twist)
    cobirth = probe.violation - 1
    codeath = probe.codeath(cobirth)

    if cross_check is None:
        cross_check = len(nerve) <= CROSS_CHECK_LIMIT
    if cross_check:
        brute = persistence_brute(probe)
        if (brute.cobirth_index, brute.codeath_index) != (cobirth, codeath):
            raise GuardError(
                f"sweep ({cobirth}, {codeath}) disagrees with "
                f"per-stage scan ({brute.cobirth_index}, {brute.codeath_index})"
            )
    return _pair(nerve, cobirth, codeath)


def persistence_brute(probe: StageProbe) -> ThresholdPair:
    """Authoritative linear scan of a probe's class: test every stage, assume no monotonicity."""
    nerve = probe.nerve
    cobirth = 0
    codeath = 0
    for r in range(1, len(nerve) + 1):
        if r < probe.violation:
            cobirth = r
        if r <= cobirth and probe.solvable(r):
            codeath = r
    return _pair(nerve, cobirth, codeath)


def persistence_report(witness: Witness, nerve: Nerve) -> PersistenceReport:
    """Thresholds for both classes of a witness, with filtration context.

    The integer class needs the sign class to be a cocycle, so it is
    computed and scanned on the stage subcomplex at the sign class's
    cobirth; stage indices there agree with the parent filtration.
    """
    nerve.require_order()
    sw_pair = persistence(sw_class(witness), nerve, 1)
    sub = stage_subcomplex(nerve, sw_pair.cobirth_index)
    result = euler_cochain(witness.restrict(sub))
    euler_pair = persistence(result.euler, sub, 2, result.sw)
    return PersistenceReport(
        sw=sw_pair,
        euler=euler_pair,
        w_max=nerve.stage_weights()[-1].item(),
        stage_sizes={p: len(s) for p, s in nerve.simplices.items() if len(s)},
        classes=result,
    )
