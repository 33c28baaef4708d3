"""Cochains on a nerve as arrays, their twisted coboundary, and the witness.

A p-cochain is an array aligned to ``nerve.simplices[p]``, the nerve's
``(k, p + 1)`` array of vertex rows in lex order: the sign class and a
twist are +-1 int arrays on the edges, the real lift a float array on
the edges, the integer class an int array on the triangles.  The
witness is a ``Witness``, a turn and a sign array on the edges, whose
holonomy defect is one vectorized product over triangles.

The twisted coboundary convention is written once, in ``facet_table``;
``coboundary`` adds over it, ``sign_coboundary`` multiplies over it and
``coboundary_rows`` hands it to the integer solvers.  Its facet
positions come from ``Nerve.facet_positions``, cached on the nerve, so
they are built once per nerve and dimension however many cochains and
twists are evaluated.  A document writes a cochain as ``{"simplex": [...],
...}`` rows in the same lex order (``io.simplex_rows``); only
``nerve.json``'s weight and offset rows interleave the dimensions, in
tuple lex order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .circle import o2_matrices
from .errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from .nerve import Nerve, lookup


def facet_table(nerve: Nerve, p: int, twist: Optional[np.ndarray] = None, values=None):
    """Facet positions and coefficients of the twisted coboundary of p-cochains.

    The one statement of the coboundary convention.  Row ``r`` belongs to
    the (p+1)-simplex ``s = nerve.simplices[p + 1][r]``; column ``i``
    holds the position among the p-simplices of the facet without vertex
    ``i`` and its coefficient ``(-1)**i``, except that the facet without
    the leading vertex carries the twist on the leading edge
    ``(s[0], s[1])`` (+1 without a twist).  Returns two ``(n, p + 2)``
    int64 arrays; ``values``, when given, must be a p-cochain.  The
    positions are the nerve's cached ``facet_positions(p + 1)``, built
    once per nerve and dimension; a twist changes only the coefficients.
    """
    if not 0 <= p <= 2:
        raise DegreeUnsupported(f"coboundary not defined on cochains of degree {p}")
    if values is not None and len(values) != len(nerve.simplices[p]):
        raise ShapeMismatch(f"a degree-{p} cochain needs one value per {p}-simplex")
    pos = nerve.facet_positions(p + 1)
    coef = np.tile((-1) ** np.arange(p + 2), (len(pos), 1))
    if twist is not None:
        lead = np.arange(len(pos))  # the leading edge: drop the last vertex down to an edge
        for q in range(p + 1, 1, -1):
            lead = nerve.facet_positions(q)[lead, q]
        coef[:, 0] = twist[lead]
    return pos, coef


def coboundary(values: np.ndarray, nerve: Nerve, p: int,
               twist: Optional[np.ndarray] = None) -> np.ndarray:
    """Twisted coboundary of a number p-cochain, on the (p+1)-simplices.

    The signed facet values are added column by column, left to right,
    so every bit of a float result is fixed.
    """
    pos, coef = facet_table(nerve, p, twist, values)
    out = coef[:, 0] * values[pos[:, 0]]
    for i in range(1, p + 2):
        out = out + coef[:, i] * values[pos[:, i]]
    return out


def sign_coboundary(signs: np.ndarray, nerve: Nerve, p: int) -> np.ndarray:
    """Coboundary of a sign p-cochain: the product of its facet signs (a twist does not act)."""
    return np.prod(signs[facet_table(nerve, p, values=signs)[0]], axis=1)


def coboundary_rows(nerve: Nerve, p: int, twist: Optional[np.ndarray] = None) -> list[dict]:
    """Rows of ``facet_table`` as dicts, facet position -> coefficient, in facet order."""
    pos, coef = facet_table(nerve, p, twist)
    return [dict(zip(f, c)) for f, c in zip(pos.tolist(), coef.tolist())]


def sign_values(signs: np.ndarray) -> np.ndarray:
    """A sign cochain's values, checked to be +-1."""
    if not np.all(np.abs(signs) == 1):
        raise ValueError("sign cochain values must be +1 or -1")
    return signs


def check_sign_cocycle(signs: np.ndarray, nerve: Nerve):
    """Raise unless a sign 1-cochain is +-1 and satisfies the cocycle identity."""
    bad = np.flatnonzero(sign_coboundary(sign_values(signs), nerve, 1) != 1)
    if bad.size:
        t = nerve.triangles[bad[0]].tolist()
        raise NotACocycle(f"sign cochain fails the cocycle identity on ({','.join(map(str, t))})")


class Witness(NamedTuple):
    """An isometry 1-cochain: edge ``nerve.edges[i]`` carries ``turn[i]`` and ``sign[i]``.

    ``turn`` is float64 in [0, 1), ``sign`` int64 +-1; the matrix forms
    are ``circle.o2_matrices(turn, sign)``.
    """

    nerve: Nerve
    turn: np.ndarray
    sign: np.ndarray

    def restrict(self, sub: Nerve) -> "Witness":
        """The witness on a subcomplex, its edges picked by their vertices, not by position."""
        pick = lookup(self.nerve.edges, sub.edges)
        if (pick < 0).any():
            raise ShapeMismatch("the subcomplex has an edge off the witness's nerve")
        return Witness(sub, self.turn[pick], self.sign[pick])


def cocycle_defect(witness: Witness) -> float:
    """Worst holonomy defect of a witness over all triangles.

    On triangle (j, k, l) it is the Frobenius distance between the
    product of the isometries on (j, k) and (k, l) and the one on
    (j, l): ``sqrt(8) |sin(pi d)|`` for their turn difference ``d`` where
    the signs close, the norm of the matrix difference where they do
    not.  Zero exactly on a cocycle; zero vacuously with no triangles.
    """
    if not len(witness.nerve.triangles):
        return 0.0
    kl, jl, jk = facet_table(witness.nerve, 1)[0].T
    turn, sign = witness.turn, witness.sign
    trip, trip_sign = (turn[jk] + sign[jk] * turn[kl]) % 1.0, sign[jk] * sign[kl]
    d = np.sqrt(8.0) * np.abs(np.sin(np.pi * (trip - turn[jl])))
    for i in np.flatnonzero(trip_sign != sign[jl]).tolist():
        gap = o2_matrices(trip[i], trip_sign[i]) - o2_matrices(turn[jl[i]], sign[jl[i]])
        d[i] = np.linalg.norm(gap)
    return max(d.tolist())
