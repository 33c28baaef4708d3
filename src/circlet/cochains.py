"""Cochains on a nerve with values in signs, integers or reals, and the witness.

A ``Cochain`` stores its values on ascending vertex tuples only, one
source of truth per simplex.  It may be twisted by a sign-valued
1-cocycle, which modifies the coboundary.  An isometry 1-cochain, the
witness, is a ``Witness``: a turn array and a sign array aligned to the
nerve's edges, whose holonomy defect is one vectorized product over the
triangles.

The twisted coboundary convention is written once, in ``coboundary_rows``;
``coboundary_values`` evaluates it.  Cocycle checks, the persistence
probes and the integer systems of the fundamental class and the global
trivialization all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle
from typing import NamedTuple, Optional

import numpy as np

from .circle import o2_matrices
from .errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from .nerve import Nerve, facets

TAGS = ("Z2", "Z", "R")


@dataclass
class Cochain:
    """A degree-p assignment of coefficients to the nerve's p-simplices.

    Attributes
    ----------
    nerve : Nerve
        The nerve (or stage subcomplex) the cochain lives on.
    degree : int
    tag : str
        Coefficient system: "Z2" (signs, multiplicative), "Z" or "R".
    values : dict
        Ascending p-simplex tuple -> coefficient.
    twist : Cochain, optional
        Sign-valued 1-cochain twisting the coefficient system.
    """

    nerve: Nerve
    degree: int
    tag: str
    values: dict = field(default_factory=dict)
    twist: Optional["Cochain"] = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown coefficient tag {self.tag!r}")
        expected = set(self.nerve.simplices.get(self.degree, ()))
        got = set(self.values)
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise ShapeMismatch(
                f"degree-{self.degree} cochain domain mismatch; "
                f"missing {missing}, extra {extra}"
            )
        if self.tag == "Z2" and any(v not in (1, -1) for v in self.values.values()):
            raise ValueError("sign cochain values must be +1 or -1")


def coboundary_rows(simplices, twist: Optional[dict] = None) -> list[dict]:
    """Sparse rows of the twisted coboundary into the given simplices.

    The one statement of the coboundary convention.  Row ``s`` maps each
    facet of ``s``, in facet order, to its coefficient: the facet without
    vertex ``i`` carries ``(-1)**i``, except that the facet without the
    leading vertex carries the twist on the leading edge
    ``twist[(s[0], s[1])]`` (+1 without a twist).  Any dimension.
    """
    rows = []
    for s in simplices:
        row = dict(zip(facets(s), cycle((1, -1))))
        if twist is not None:
            row[s[1:]] = twist[s[:2]]
        rows.append(row)
    return rows


def coboundary_values(values: dict, tag: str, simplices, twist: Optional[dict] = None) -> dict:
    """The twisted coboundary of a cochain's values on the given simplices.

    Signs ("Z2") multiply their facet values and ignore the twist;
    numbers add their signed facet values left to right.
    """
    return _row_values(values, tag, simplices, coboundary_rows(simplices, twist))


def _row_values(values: dict, tag: str, simplices, rows) -> dict:
    """Evaluate coboundary rows of ``simplices`` on a cochain's values."""
    out = {}
    for s, row in zip(simplices, rows):
        if tag == "Z2":
            v = 1
            for f in row:
                v *= values[f]
        else:
            terms = iter(row.items())
            f, coef = next(terms)
            v = coef * values[f]
            for f, coef in terms:
                v += coef * values[f]
        out[s] = v
    return out


def check_sign_cocycle(omega: Cochain):
    """Raise unless a sign 1-cochain satisfies the cocycle identity."""
    _need_sign_cochain(omega)
    _check_sign_rows(omega, coboundary_rows(omega.nerve.triangles))


def _need_sign_cochain(omega: Cochain):
    if omega.degree != 1 or omega.tag != "Z2":
        raise ShapeMismatch("twist must be a sign-valued 1-cochain")


def _check_sign_rows(omega: Cochain, rows):
    """The cocycle identity on the triangles' coboundary rows (any twist: signs ignore it)."""
    for t, v in _row_values(omega.values, "Z2", omega.nerve.triangles, rows).items():
        if v != 1:
            raise NotACocycle(
                f"sign cochain fails the cocycle identity on ({','.join(map(str, t))})"
            )


def twisted_coboundary(c: Cochain, omega: Optional[Cochain] = None) -> Cochain:
    """Coboundary of a sign or number cochain, twisted by a sign cocycle when given.

    Follows ``coboundary_rows``: alternating facet signs, with the twist
    on the facet that drops the leading vertex.  A witness has no
    coboundary here; ``cocycle_defect`` measures its holonomy.
    """
    nerve = c.nerve
    twist = None
    if omega is not None:
        _need_sign_cochain(omega)
        twist = omega.values
    if c.degree not in (0, 1, 2):
        raise DegreeUnsupported(f"coboundary not defined for {c.tag} cochains of degree {c.degree}")
    simplices = nerve.simplices.get(c.degree + 1, [])
    rows = coboundary_rows(simplices, twist)
    if omega is not None:
        # a 1-cochain's rows are the triangle rows that the twist check reads
        same = c.degree == 1 and omega.nerve is nerve
        _check_sign_rows(omega, rows if same else coboundary_rows(omega.nerve.triangles))
    vals = _row_values(c.values, c.tag, simplices, rows)
    return Cochain(nerve, c.degree + 1, c.tag, vals, twist=omega)


class Witness(NamedTuple):
    """An isometry 1-cochain: edge ``nerve.edges[i]`` carries ``turn[i]`` and ``sign[i]``.

    ``turn`` is float64 in [0, 1), ``sign`` int64 +-1; the matrix forms
    are ``circle.o2_matrices(turn, sign)``.
    """

    nerve: Nerve
    turn: np.ndarray
    sign: np.ndarray

    def restrict(self, sub: Nerve) -> "Witness":
        """The witness on a subcomplex, its edges picked by name, not by position."""
        at = {e: i for i, e in enumerate(self.nerve.edges)}
        pick = np.array([at[e] for e in sub.edges], dtype=np.int64)
        return Witness(sub, self.turn[pick], self.sign[pick])


def cocycle_defect(witness: Witness) -> float:
    """Worst holonomy defect of a witness over all triangles.

    On triangle (j, k, l) it is the Frobenius distance between the
    product of the isometries on (j, k) and (k, l) and the one on
    (j, l): ``sqrt(8) |sin(pi d)|`` for their turn difference ``d`` where
    the signs close, the norm of the matrix difference where they do
    not.  Zero exactly on a cocycle; zero vacuously with no triangles.
    """
    tris = witness.nerve.triangles
    if not tris:
        return 0.0
    at = {e: i for i, e in enumerate(witness.nerve.edges)}
    jk, kl, jl = np.array([(at[j, k], at[k, l], at[j, l]) for j, k, l in tris]).T
    turn, sign = witness.turn, witness.sign
    trip, trip_sign = (turn[jk] + sign[jk] * turn[kl]) % 1.0, sign[jk] * sign[kl]
    d = np.sqrt(8.0) * np.abs(np.sin(np.pi * (trip - turn[jl])))
    for i in np.flatnonzero(trip_sign != sign[jl]).tolist():
        gap = o2_matrices(trip[i], trip_sign[i]) - o2_matrices(turn[jl[i]], sign[jl[i]])
        d[i] = np.linalg.norm(gap)
    return max(d.tolist())


def restrict(c: Cochain, sub: Nerve) -> Cochain:
    """Restriction of a cochain to a subcomplex of its nerve."""
    keep = set(sub.simplices.get(c.degree, ()))
    vals = {s: v for s, v in c.values.items() if s in keep}
    twist = restrict(c.twist, sub) if c.twist is not None else None
    return Cochain(sub, c.degree, c.tag, vals, twist=twist)
