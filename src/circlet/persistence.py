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

Cocycle failures and the stage systems both come from the twisted
coboundary of ``cochains.coboundary_rows``.  Each call builds one stage
probe: the class's simplices in filtration order with their coboundary
rows, so every stage reads a prefix.  Only the yes/no answers are used.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .classes import CharClassResult, euler_cochain, sw_class
from .cochains import Cochain, Witness, coboundary_rows, coboundary_values
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


def _violation_stages(lam: Cochain, nerve: Nerve) -> list[int]:
    """Filtration indices of simplices witnessing a cocycle failure."""
    if (lam.tag, lam.degree) not in (("Z2", 1), ("Z", 2)):
        raise ShapeMismatch("persistence handles sign 1-cochains and integer 2-cochains")
    unit = 1 if lam.tag == "Z2" else 0
    twist = lam.twist.values if lam.twist is not None else None
    cofaces = nerve.simplices.get(lam.degree + 1, [])
    vals = coboundary_values(lam.values, lam.tag, cofaces, twist)
    return [nerve.index[s] for s, v in vals.items() if v != unit]


class _StageProbe:
    """The coboundary system of a class along the filtration, built once.

    Holds the class's simplices in filtration order, their right sides,
    the twisted coboundary rows of an integer class and the first stage
    where its twist fails to be a cocycle.  Stage ``r`` reads the prefix
    of simplices with index at most ``r``.
    """

    def __init__(self, lam: Cochain, nerve: Nerve):
        self.cells = [s for s in nerve.order if len(s) == lam.degree + 1]
        self.index = [nerve.index[s] for s in self.cells]
        self.rhs = [lam.values[s] for s in self.cells]
        self.rows = None  # a sign class goes to the union-find, without rows
        self.twist_broken = None
        self.answers: dict = {}  # prefix length -> solvable, for the per-stage scan
        if lam.tag == "Z":
            twist = lam.twist.values if lam.twist is not None else None
            if twist is not None:
                self.twist_broken = min(_violation_stages(lam.twist, nerve), default=None)
            self.rows = coboundary_rows(self.cells, twist)

    def _check_twist(self, r: int) -> None:
        if self.twist_broken is not None and self.twist_broken <= r:
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
                found = sign_potential(dict(zip(self.cells[:n], self.rhs[:n]))) is not None
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
            solvable = sign_solvable_prefixes(dict(zip(self.cells[:n], self.rhs[:n])))
        else:
            solvable = solvable_prefixes(self.rows[:n], self.rhs[:n])
        m = n
        while not solvable[m]:
            m -= 1  # the empty prefix solves, so this stops
        # the last stage before the (m+1)-th cell enters
        return cobirth if m == n else self.index[m] - 1


def _pair(nerve: Nerve, cobirth: int, codeath: int) -> ThresholdPair:
    return ThresholdPair(
        cobirth_index=cobirth,
        cobirth_weight=nerve.weight_at(nerve.order[cobirth - 1]),
        codeath_index=codeath,
        codeath_weight=nerve.weight_at(nerve.order[codeath - 1]),
    )


def persistence(
    lam: Cochain, nerve: Nerve, cross_check: Optional[bool] = None
) -> ThresholdPair:
    """Cobirth and codeath stages of a class along the filtration.

    ``cross_check`` forces or suppresses the linear per-stage scan; by
    default it runs on nerves up to 500 simplices and any disagreement
    with the sweep is a hard error.  To scan only part of the
    filtration, pass the class restricted to a ``stage_subcomplex``.
    """
    nerve.require_order()
    violations = _violation_stages(lam, nerve)
    cobirth = min(violations) - 1 if violations else len(nerve)
    codeath = _StageProbe(lam, nerve).codeath(cobirth)

    if cross_check is None:
        cross_check = len(nerve) <= CROSS_CHECK_LIMIT
    if cross_check:
        brute = persistence_brute(lam, nerve)
        if (brute.cobirth_index, brute.codeath_index) != (cobirth, codeath):
            raise GuardError(
                f"sweep ({cobirth}, {codeath}) disagrees with "
                f"per-stage scan ({brute.cobirth_index}, {brute.codeath_index})"
            )
    return _pair(nerve, cobirth, codeath)


def persistence_brute(lam: Cochain, nerve: Nerve) -> ThresholdPair:
    """Authoritative linear scan: test every stage, assume no monotonicity."""
    nerve.require_order()
    violations = set(_violation_stages(lam, nerve))
    probe = _StageProbe(lam, nerve)
    cobirth = 0
    codeath = 0
    for r in range(1, len(nerve) + 1):
        if not any(v <= r for v in violations):
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
    sw_pair = persistence(sw_class(witness), nerve)
    sub = stage_subcomplex(nerve, sw_pair.cobirth_index)
    result = euler_cochain(witness.restrict(sub))
    euler_pair = persistence(result.euler, sub)
    return PersistenceReport(
        sw=sw_pair,
        euler=euler_pair,
        w_max=nerve.weight_at(nerve.order[-1]),
        stage_sizes={p: len(s) for p, s in nerve.simplices.items() if s},
        classes=result,
    )
