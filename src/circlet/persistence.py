"""Cobirth/codeath thresholds of classes along the weights filtration.

A class restricted to a filtration stage either satisfies its cocycle
condition or not, and either is a coboundary or not.  Both predicates
are downward-closed in the stage index (restricting a solution stays a
solution; a violating simplex stays present), so each has a single
threshold.  Cobirth is found by locating the first violating simplex;
codeath by binary search with an exact solvability test per probe.  A
linear per-stage scan that assumes nothing about monotonicity is kept as
the authoritative cross-check and runs automatically on small nerves.

Each probe builds its system straight from the stage's simplices: a sign
class goes to the parity union-find ``sign_potential``, an integer class
to the unit-pivot elimination ``integer_solvable`` on the sparse twisted
coboundary.  Neither tracks transforms; only the yes/no answer is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classes import CharClassResult, euler_cochain, sw_class
from .cochains import Cochain, restrict
from .errors import GuardError, NotACocycle, ShapeMismatch
from .intlinalg import coboundary_rows, integer_solvable, sign_potential
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
    subcomplex at the sign class's cobirth; reports read back from a
    file carry None.
    """

    sw: ThresholdPair
    euler: ThresholdPair
    w_max: float
    stage_sizes: dict
    classes: Optional[CharClassResult] = None


def _violation_stages(lam: Cochain, nerve: Nerve, hi: int) -> list[int]:
    """Filtration indices of simplices witnessing a cocycle failure."""
    out = []
    if lam.tag == "Z2" and lam.degree == 1:
        for t in nerve.triangles:
            (j, k, l) = t
            if lam.values[(j, k)] * lam.values[(k, l)] * lam.values[(j, l)] != 1:
                idx = nerve.index[t]
                if idx <= hi:
                    out.append(idx)
    elif lam.tag == "Z" and lam.degree == 2:
        tw = lam.twist
        for s in nerve.tetrahedra:
            (j, k, l, m) = s
            w = tw.values[(j, k)] if tw is not None else 1
            v = (
                w * lam.values[(k, l, m)]
                - lam.values[(j, l, m)]
                + lam.values[(j, k, m)]
                - lam.values[(j, k, l)]
            )
            if v != 0:
                idx = nerve.index[s]
                if idx <= hi:
                    out.append(idx)
    else:
        raise ShapeMismatch("persistence handles sign 1-cochains and integer 2-cochains")
    return out


def _solvable(lam: Cochain, nerve: Nerve, r: int) -> bool:
    """Is the restriction of the class to stage ``r`` a coboundary?"""
    stage = nerve.order[:r]
    if lam.tag == "Z2":
        signs = {s: lam.values[s] for s in stage if len(s) == 2}
        return sign_potential(signs) is not None
    tris = [s for s in stage if len(s) == 3]
    twist = None
    if lam.twist is not None:
        if _violation_stages(lam.twist, nerve, r):
            raise NotACocycle(f"the twist fails the cocycle identity at stage {r}")
        twist = lam.twist.values
    return integer_solvable(coboundary_rows(tris, twist), [lam.values[t] for t in tris])


def persistence(
    lam: Cochain,
    nerve: Nerve,
    max_stage: Optional[int] = None,
    cross_check: Optional[bool] = None,
) -> ThresholdPair:
    """Cobirth and codeath stages of a class along the filtration.

    ``max_stage`` clips the scan: integer classes twisted by a sign class
    are only meaningful while the twist is a cocycle, so callers pass the
    twist's own cobirth.  ``cross_check`` forces or suppresses the linear
    per-stage scan; by default it runs on nerves up to 500 simplices and
    any disagreement with the threshold method is a hard error.
    """
    nerve.require_order()
    hi = len(nerve) if max_stage is None else min(max_stage, len(nerve))
    violations = _violation_stages(lam, nerve, hi)
    cobirth = min(violations) - 1 if violations else hi

    if _solvable(lam, nerve, cobirth):
        codeath = cobirth
    else:
        lo = 1  # a single-vertex stage carries nothing to solve
        death_hi = cobirth
        while death_hi - lo > 1:
            mid = (lo + death_hi) // 2
            if _solvable(lam, nerve, mid):
                lo = mid
            else:
                death_hi = mid
        codeath = lo

    if cross_check is None:
        cross_check = len(nerve) <= CROSS_CHECK_LIMIT
    if cross_check:
        brute = persistence_brute(lam, nerve, max_stage=max_stage)
        if (brute.cobirth_index, brute.codeath_index) != (cobirth, codeath):
            raise GuardError(
                f"threshold method ({cobirth}, {codeath}) disagrees with "
                f"per-stage scan ({brute.cobirth_index}, {brute.codeath_index})"
            )

    return ThresholdPair(
        cobirth_index=cobirth,
        cobirth_weight=nerve.weight_at(nerve.order[cobirth - 1]),
        codeath_index=codeath,
        codeath_weight=nerve.weight_at(nerve.order[codeath - 1]),
    )


def persistence_brute(
    lam: Cochain, nerve: Nerve, max_stage: Optional[int] = None
) -> ThresholdPair:
    """Authoritative linear scan: test every stage, assume no monotonicity."""
    nerve.require_order()
    hi = len(nerve) if max_stage is None else min(max_stage, len(nerve))
    violations = set(_violation_stages(lam, nerve, hi))
    cobirth = 0
    codeath = 0
    for r in range(1, hi + 1):
        if not any(v <= r for v in violations):
            cobirth = r
        if r <= cobirth and _solvable(lam, nerve, r):
            codeath = r
    return ThresholdPair(
        cobirth_index=cobirth,
        cobirth_weight=nerve.weight_at(nerve.order[cobirth - 1]),
        codeath_index=codeath,
        codeath_weight=nerve.weight_at(nerve.order[codeath - 1]),
    )


def persistence_report(witness: Cochain, nerve: Nerve) -> PersistenceReport:
    """Thresholds for both classes of a witness, with filtration context.

    The integer class needs the sign class to be a cocycle, so it is
    computed and scanned on the stage subcomplex at the sign class's
    cobirth; stage indices there agree with the parent filtration.
    """
    nerve.require_order()
    sw_pair = persistence(sw_class(witness), nerve)
    sub = stage_subcomplex(nerve, sw_pair.cobirth_index)
    result = euler_cochain(restrict(witness, sub))
    euler_pair = persistence(result.euler, sub)
    return PersistenceReport(
        sw=sw_pair,
        euler=euler_pair,
        w_max=nerve.weight_at(nerve.order[-1]),
        stage_sizes={p: len(s) for p, s in nerve.simplices.items() if s},
        classes=result,
    )
