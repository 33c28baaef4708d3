"""Sign and integer characteristic classes of a witness.

The witness's signs give a sign class; its turns, taken on the principal
branch, give a real lift whose twisted coboundary rounds to an integer
class.  On surface bases the integer class pairs with a twisted
fundamental cycle to give the twisted Euler number.  The cycle comes
from a collapsed core of the nerve: collapses keep the twisted second
homology, the core's 2-boundary kernel comes from unit-pivot
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

from .circle import principal_turn
from .cochains import (Cochain, Witness, check_sign_cocycle, coboundary_rows, cocycle_defect,
                       twisted_coboundary)
from .errors import BracketAmbiguous, NotASurface, ShapeMismatch
from .intlinalg import integer_kernel, ordered_simplices, smith_normal_form
from .nerve import Nerve, facets


# pre-bracket values this close to a half-integer make rounding unreliable
BRACKET_GUARD = 1e-6
# a witness defect below this keeps the rounded class a twisted cocycle
DEFECT_BOUND = 0.5


@dataclass
class CharClassResult:
    """Characteristic classes extracted from one witness.

    Attributes
    ----------
    sw : Cochain
        Sign-valued 1-cochain, the witness's signs.
    euler : Cochain
        Integer 2-cochain twisted by ``sw``.
    lift : Cochain
        The real-valued principal lift the euler cochain was rounded from.
    bracket_margin : float
        Smallest distance of any pre-bracket value to a half-integer;
        infinity when the nerve has no triangles.
    cocycle_defect : float
        Worst holonomy defect of the witness; below ``DEFECT_BOUND`` (1/2)
        the rounded class is guaranteed to be a twisted cocycle.
    """

    sw: Cochain
    euler: Cochain
    lift: Cochain
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
        delta = twisted_coboundary(self.euler, self.sw)
        return all(v == 0 for v in delta.values.values())


def sw_class(witness: Witness) -> Cochain:
    """The signs of a witness (its isometries' determinants), as a sign cochain."""
    return Cochain(witness.nerve, 1, "Z2", dict(zip(witness.nerve.edges, witness.sign.tolist())))


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
    sw = sw_class(witness)
    lift_vals = dict(zip(witness.nerve.edges, map(principal_turn, witness.turn.tolist())))
    lift = Cochain(witness.nerve, 1, "R", lift_vals, twist=sw)
    pre = twisted_coboundary(lift, sw)
    margin = math.inf
    euler_vals = {}
    for s, x in pre.values.items():
        r = x - round(x)
        gap = 0.5 - abs(r)
        if gap < BRACKET_GUARD:
            raise BracketAmbiguous(
                f"pre-bracket value {x} on {s} is within {BRACKET_GUARD} "
                "of a half-integer"
            )
        margin = min(margin, gap)
        euler_vals[s] = int(round(x))
    euler = Cochain(witness.nerve, 2, "Z", euler_vals, twist=sw)
    return CharClassResult(
        sw=sw, euler=euler, lift=lift, bracket_margin=margin, cocycle_defect=defect
    )


def collapsed_core(nerve: Nerve) -> tuple[list[tuple], list[tuple]]:
    """Triangles and tetrahedra left by elementary collapses, in filtration order.

    First each tetrahedron goes with a free triangle, one that is a face
    of no other remaining tetrahedron; then each triangle with no
    remaining tetrahedral coface goes with a free edge, one that is a
    face of no other remaining triangle.  Collapses are deformation
    retractions, so the core keeps the twisted second homology and its
    cycles are cycles of the nerve.  Candidates are taken first in first
    out, seeded in filtration order (lex order without one).
    """
    tris = ordered_simplices(nerve, 2)
    tets = ordered_simplices(nerve, 3)
    cofaces: dict = {t: set() for t in tris}
    for q in tets:
        for f in facets(q):
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
            for f in facets(q):
                cofaces[f].discard(q)
                if len(cofaces[f]) == 1:
                    queue.append(f)
    incident: dict = {}
    for t in live:
        for e in facets(t):
            incident.setdefault(e, set()).add(t)
    queue = deque(t for t in live if not cofaces[t])
    while queue:
        t = queue.popleft()
        if t in live and not cofaces[t] and any(len(incident[e]) == 1 for e in facets(t)):
            del live[t]
            for e in facets(t):
                incident[e].discard(t)
                if len(incident[e]) == 1:
                    queue.extend(incident[e])
    return list(live), [q for q in tets if q not in gone]


def orientation_anchor(nerve: Nerve, mu: dict) -> Optional[tuple]:
    """The triangle that fixes the sign of a twisted fundamental cycle.

    The first triangle in filtration order (lex order without one) with
    no tetrahedral coface and a nonzero coefficient in ``mu``.  No
    boundary reaches such a triangle and torsion vanishes on it, so its
    coefficient is the same on every representative of the class.  None
    when the cycle lives only on faces of tetrahedra.
    """
    faces = {f for q in nerve.tetrahedra for f in facets(q)}
    return next((t for t in ordered_simplices(nerve, 2) if t not in faces and mu.get(t)), None)


def fundamental_class_twisted(nerve: Nerve, omega: Cochain) -> dict:
    """Twisted fundamental 2-cycle of a closed-surface nerve.

    The nerve is collapsed to ``collapsed_core``.  The integer kernel of
    the core's twisted 2-boundary comes from unit-pivot elimination
    (``intlinalg.integer_kernel``); the core's 3-boundaries, written in
    kernel parameters, form a small matrix whose Smith form must leave
    free rank exactly one, and its free generator is back-substituted
    into a cycle.  The returned chain maps every triangle of the nerve to
    its integer coefficient, zero off the core, with the coefficient on
    ``orientation_anchor`` positive; without an anchor, the first nonzero
    coefficient in filtration order is positive.
    """
    check_sign_cocycle(omega)
    if not nerve.triangles:
        raise NotASurface("nerve has no 2-simplices")
    tris, tets = collapsed_core(nerve)
    # the core's twisted 2-boundary, one sparse row per edge
    rows: dict = {}
    for t, col in zip(tris, coboundary_rows(tris, omega.values)):
        for e, v in col.items():
            rows.setdefault(e, {})[t] = v
    kernel = integer_kernel(list(rows.values()), tris)
    k = kernel.rank
    if k == 0:
        raise NotASurface("twisted boundary has no kernel in degree 2")
    if tets:
        B = np.array(
            [kernel.parameters(col) for col in coboundary_rows(tets, omega.values)],
            dtype=object,
        ).T
        snf = smith_normal_form(B)
        free = k - snf.rank
        # the lone zero invariant factor sits last; pull its generator back
        gen = snf.Linv[:, k - 1]
    else:
        free, gen = k, [1]
    if free != 1:
        raise NotASurface(f"twisted second homology has free rank {free}")
    core = kernel.vector(gen)
    mu = {t: core.get(t, 0) for t in ordered_simplices(nerve, 2)}
    anchor = orientation_anchor(nerve, mu)
    lead = mu[anchor] if anchor is not None else next((c for c in mu.values() if c), None)
    if lead is None:
        raise NotASurface("fundamental chain vanished")
    if lead < 0:
        mu = {t: -c for t, c in mu.items()}
    return mu


def euler_number(e: Cochain, mu: dict) -> int:
    """Integer pairing of a degree-2 cochain with a 2-chain.

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
    if e.degree != 2 or e.tag != "Z":
        raise ShapeMismatch("need an integer 2-cochain")
    if set(e.values) != set(mu):
        raise ShapeMismatch("cochain and chain live on different triangle sets")
    return sum(int(e.values[s]) * int(mu[s]) for s in mu)
