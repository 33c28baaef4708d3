"""Sign and integer characteristic classes of a witness, as arrays on the nerve.

The witness's signs give the sign class on the edges; its turns, taken
on the principal branch, give a real lift on the edges whose twisted
coboundary rounds to an integer class on the triangles.  On surface
bases the integer class pairs with a twisted fundamental cycle, an int
array on the triangles, to give the twisted Euler number.  The cycle
comes from a collapsed core of the nerve: collapses keep the twisted
second homology, the core's 2-boundary kernel comes from unit-pivot
elimination, and only the small image of the core's 3-boundary in kernel
parameters (or a block without unit pivots) sees a Smith form.  Its
sign is anchored on a triangle no boundary can reach.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cochains import (Witness, check_sign_cocycle, coboundary, coboundary_rows, cocycle_defect,
                       facet_table, sign_values)
from .errors import BracketAmbiguous, NotASurface, ShapeMismatch
from .intlinalg import integer_kernel, smith_normal_form
from .nerve import Nerve


# pre-bracket values this close to a half-integer make rounding unreliable
BRACKET_GUARD = 1e-6
# a witness defect below this keeps the rounded class a twisted cocycle
DEFECT_BOUND = 0.5


@dataclass
class CharClassResult:
    """Characteristic classes extracted from one witness, aligned to its nerve.

    Attributes
    ----------
    nerve : Nerve
    sw : ndarray
        The sign class on the edges: the witness's signs.
    euler : ndarray
        The integer class on the triangles (int64), twisted by ``sw``.
    lift : ndarray
        The principal real lift on the edges that ``euler`` rounds.
    bracket_margin : float
        Smallest distance of any pre-bracket value to a half-integer;
        infinity when the nerve has no triangles.
    cocycle_defect : float
        Worst holonomy defect of the witness; below ``DEFECT_BOUND`` (1/2)
        the rounded class is guaranteed to be a twisted cocycle.
    """

    nerve: Nerve
    sw: np.ndarray
    euler: np.ndarray
    lift: np.ndarray
    bracket_margin: float
    cocycle_defect: float

    @property
    def defect_margin(self) -> float:
        """``DEFECT_BOUND`` minus the witness defect; negative past the bound."""
        return DEFECT_BOUND - self.cocycle_defect

    def euler_is_cocycle(self) -> bool:
        """Is the rounded class a twisted cocycle (zero on every tetrahedron)?

        Only then is its pairing with a fundamental cycle independent of
        the cycle's representative.
        """
        return not coboundary(self.euler, self.nerve, 2, self.sw).any()


def sw_class(witness: Witness) -> np.ndarray:
    """The sign class of a witness: its signs (its isometries' determinants), checked +-1."""
    return sign_values(witness.sign)


def euler_cochain(witness: Witness) -> CharClassResult:
    """Integer 2-cochain of a witness, with its sign class and real lift.

    The rotation part of each edge keeps the witness turn; its principal
    log is the lift, and the twisted coboundary of the lift rounds to the
    nearest integer per triangle.  The margin of that rounding is part of
    the result; values too close to a half-integer refuse to round.
    """
    defect = cocycle_defect(witness)
    if defect >= DEFECT_BOUND:
        import logging  # loaded only where a warning is logged

        logging.getLogger(__name__).warning(
            "witness defect %.3f is not below 1/2; the rounded class "
            "may fail to be a cocycle",
            defect,
        )
    nerve, sw = witness.nerve, sw_class(witness)
    check_sign_cocycle(sw, nerve)
    turn = witness.turn % 1.0
    lift = np.where(turn <= 0.5, turn, turn - 1.0)  # the branch (-1/2, 1/2]
    pre = coboundary(lift, nerve, 1, sw)
    rounded = np.rint(pre)
    gap = 0.5 - np.abs(pre - rounded)
    close = np.flatnonzero(gap < BRACKET_GUARD)
    if close.size:
        i = close[0]
        t = tuple(nerve.triangles[i].tolist())
        raise BracketAmbiguous(f"pre-bracket value {pre[i].item()} on {t} "
                               f"is within {BRACKET_GUARD} of a half-integer")
    margin = float(gap.min()) if gap.size else math.inf
    return CharClassResult(nerve, sw, rounded.astype(np.int64), lift, margin, defect)


def collapsed_core(nerve: Nerve) -> tuple[list[int], list[int]]:
    """Positions of the triangles and tetrahedra left by elementary collapses.

    First each tetrahedron goes with a free triangle, one that is a face
    of no other remaining tetrahedron; then each triangle with no
    remaining tetrahedral coface goes with a free edge, one that is a
    face of no other remaining triangle.  Collapses are deformation
    retractions, so the core keeps the twisted second homology and its
    cycles are cycles of the nerve.  Candidates are taken first in first
    out, seeded in filtration order (lex order without one), and both
    lists come in that order.
    """
    tri_edges = facet_table(nerve, 1)[0].tolist()
    tet_tris = facet_table(nerve, 2)[0].tolist()
    tris = np.argsort(nerve.stage_index(2), kind="stable").tolist()
    tets = np.argsort(nerve.stage_index(3), kind="stable").tolist()
    cofaces = [set() for _ in tri_edges]
    for q in tets:
        for f in tet_tris[q]:
            cofaces[f].add(q)
    live = dict.fromkeys(tris)
    gone = set()
    queue = deque(t for t in tris if len(cofaces[t]) == 1)
    while queue:
        t = queue.popleft()
        if t in live and len(cofaces[t]) == 1:
            q = cofaces[t].pop()
            del live[t]
            gone.add(q)
            for f in tet_tris[q]:
                cofaces[f].discard(q)
                if len(cofaces[f]) == 1:
                    queue.append(f)
    incident: dict = {}
    for t in live:
        for e in tri_edges[t]:
            incident.setdefault(e, set()).add(t)
    queue = deque(t for t in live if not cofaces[t])
    while queue:
        t = queue.popleft()
        if t in live and not cofaces[t] and any(len(incident[e]) == 1 for e in tri_edges[t]):
            del live[t]
            for e in tri_edges[t]:
                incident[e].discard(t)
                if len(incident[e]) == 1:
                    queue.extend(incident[e])
    return list(live), [q for q in tets if q not in gone]


def orientation_anchor(nerve: Nerve, mu: np.ndarray) -> Optional[int]:
    """Position of the triangle that fixes the sign of a twisted fundamental cycle.

    The first triangle in filtration order (lex order without one) with
    no tetrahedral coface and a nonzero coefficient in ``mu``.  No
    boundary reaches such a triangle and torsion vanishes on it, so its
    coefficient is the same on every representative of the class.  None
    when the cycle lives only on faces of tetrahedra.
    """
    faced = np.zeros(len(mu), dtype=bool)
    faced[facet_table(nerve, 2)[0].ravel()] = True
    order = np.argsort(nerve.stage_index(2), kind="stable")
    hit = order[~faced[order] & (mu[order] != 0)]
    return int(hit[0]) if hit.size else None


def fundamental_class_twisted(nerve: Nerve, omega: np.ndarray) -> np.ndarray:
    """Twisted fundamental 2-cycle of a closed-surface nerve, an int array on its triangles.

    ``omega`` is the twist, a sign 1-cocycle on the edges.  The nerve is
    collapsed to ``collapsed_core``.  The integer kernel of the core's
    twisted 2-boundary comes from unit-pivot elimination
    (``intlinalg.integer_kernel``); the core's 3-boundaries, written in
    kernel parameters, form a small matrix whose Smith form must leave
    free rank exactly one, and its free generator is back-substituted
    into a cycle.  The coefficients are zero off the core, with the one
    on ``orientation_anchor`` positive; without an anchor, the first
    nonzero coefficient in filtration order is positive.
    """
    check_sign_cocycle(omega, nerve)
    if not len(nerve.triangles):
        raise NotASurface("nerve has no 2-simplices")
    tris, tets = collapsed_core(nerve)
    # the core's twisted 2-boundary, one sparse row per edge
    d2 = coboundary_rows(nerve, 1, omega)
    rows: dict = {}
    for t in tris:
        for e, v in d2[t].items():
            rows.setdefault(e, {})[t] = v
    kernel = integer_kernel(list(rows.values()), tris)
    k = kernel.rank
    if k == 0:
        raise NotASurface("twisted boundary has no kernel in degree 2")
    if tets:
        d3 = coboundary_rows(nerve, 2, omega)
        B = np.array([kernel.parameters(d3[q]) for q in tets], dtype=object).T
        snf = smith_normal_form(B)
        free = k - snf.rank
        # the lone zero invariant factor sits last; pull its generator back
        gen = snf.Linv[:, k - 1]
    else:
        free, gen = k, [1]
    if free != 1:
        raise NotASurface(f"twisted second homology has free rank {free}")
    core = kernel.vector(gen)
    mu = np.zeros(len(nerve.triangles), dtype=np.int64)
    mu[list(core)] = list(core.values())
    at = orientation_anchor(nerve, mu)
    ordered = mu[np.argsort(nerve.stage_index(2), kind="stable")]
    lead = mu[at] if at is not None else next((c for c in ordered.tolist() if c), None)
    if lead is None:
        raise NotASurface("fundamental chain vanished")
    return -mu if lead < 0 else mu


def euler_number(e: np.ndarray, mu: np.ndarray) -> int:
    """Integer pairing of a 2-cochain with a 2-chain, both arrays on the triangles.

    With ``mu`` from ``fundamental_class_twisted`` the sign follows its
    orientation convention: the chain is positive on
    ``orientation_anchor(nerve, mu)``, a triangle with no tetrahedral
    coface whose coefficient every representative of the class shares,
    so for a twisted cocycle ``e`` the signed number depends on the
    bundle and that stated triangle only.  Without an anchor the chain's
    first nonzero coefficient in filtration order is positive.  Both
    signs of the chain are fundamental classes; the magnitude is the
    invariant.
    """
    if len(e) != len(mu):
        raise ShapeMismatch("cochain and chain live on different triangle sets")
    return sum(a * b for a, b in zip(e.tolist(), mu.tolist()))
