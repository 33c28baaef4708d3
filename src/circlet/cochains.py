"""Cochains on a nerve with values in {sign group, integers, reals, isometries}.

Values are stored on ascending vertex tuples only; permuted lookups are
derived by the inversion rules, so there is a single source of truth per
simplex.  A cochain may be twisted by a sign-valued 1-cocycle, which
modifies the coboundary and the antisymmetry rule.

The twisted coboundary convention is written once, in ``coboundary_rows``;
``coboundary_values`` evaluates it.  Cocycle checks, the persistence
probes and the integer systems of the fundamental class and the global
trivialization all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle
from typing import Optional

from .circle import o2_compose, o2_inverse, o2_frobenius_distance
from .errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from .nerve import Nerve, facets

TAGS = ("Z2", "Z", "R", "O2")


@dataclass
class Cochain:
    """A degree-p assignment of coefficients to the nerve's p-simplices.

    Attributes
    ----------
    nerve : Nerve
        The nerve (or stage subcomplex) the cochain lives on.
    degree : int
    tag : str
        Coefficient system: "Z2" (signs, multiplicative), "Z", "R", "O2".
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

    def value(self, simplex: tuple):
        """Coefficient on a simplex, resolving unordered pairs.

        For a pair given as (k, j) with k > j the stored value on (j, k)
        is inverted: isometries by group inverse, signs unchanged, reals
        and integers by negation times the twist sign.
        """
        s = tuple(simplex)
        if len(s) - 1 != self.degree:
            raise ShapeMismatch(f"simplex {s} has wrong dimension for degree {self.degree}")
        if list(s) == sorted(s):
            return self.values[s]
        if self.degree != 1:
            raise DegreeUnsupported("permuted lookups are defined for pairs only")
        k, j = s
        v = self.values[(j, k)]
        if self.tag == "O2":
            return o2_inverse(v)
        if self.tag == "Z2":
            return v
        w = self.twist.value((j, k)) if self.twist is not None else 1
        return -w * v


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
    on the facet that drops the leading vertex.  Isometry cochains have
    no coboundary here; ``cocycle_defect`` measures their holonomy.
    """
    nerve = c.nerve
    twist = None
    if omega is not None:
        _need_sign_cochain(omega)
        twist = omega.values
    if c.tag == "O2" or c.degree not in (0, 1, 2):
        raise DegreeUnsupported(f"coboundary not defined for {c.tag} cochains of degree {c.degree}")
    simplices = nerve.simplices.get(c.degree + 1, [])
    rows = coboundary_rows(simplices, twist)
    if omega is not None:
        # a 1-cochain's rows are the triangle rows that the twist check reads
        same = c.degree == 1 and omega.nerve is nerve
        _check_sign_rows(omega, rows if same else coboundary_rows(omega.nerve.triangles))
    vals = _row_values(c.values, c.tag, simplices, rows)
    return Cochain(nerve, c.degree + 1, c.tag, vals, twist=omega)


def cocycle_defect(omega: Cochain) -> float:
    """Worst holonomy defect of an isometry 1-cochain over all triangles.

    Zero exactly when the cochain is a cocycle; zero vacuously on nerves
    with no triangles.
    """
    if omega.tag != "O2" or omega.degree != 1:
        raise ShapeMismatch("defect is defined for isometry-valued 1-cochains")
    worst = 0.0
    for (j, k, l) in omega.nerve.triangles:
        trip = o2_compose(omega.values[(j, k)], omega.values[(k, l)])
        d = o2_frobenius_distance(trip, omega.values[(j, l)])
        worst = max(worst, d)
    return worst


def act_by_potential(phi: Cochain, omega: Cochain) -> Cochain:
    """Gauge action of a 0-cochain of isometries on a 1-cochain.

    Each edge value is conjugated: the head vertex's isometry composed
    with the transition composed with the inverse of the tail's.  The
    holonomy defect is preserved because conjugation is isometric.
    """
    if phi.degree != 0 or phi.tag != "O2" or omega.degree != 1 or omega.tag != "O2":
        raise ShapeMismatch("need a degree-0 and a degree-1 isometry cochain")
    if phi.nerve is not omega.nerve and set(phi.nerve.vertices) != set(omega.nerve.vertices):
        raise ShapeMismatch("potential and cochain live on different nerves")
    vals = {}
    for (j, k), om in omega.values.items():
        vals[(j, k)] = o2_compose(
            phi.values[(j,)], o2_compose(om, o2_inverse(phi.values[(k,)]))
        )
    return Cochain(omega.nerve, 1, "O2", vals, twist=omega.twist)


def constant_sign_cochain(nerve: Nerve, degree: int = 1, value: int = 1) -> Cochain:
    """The constant sign cochain, handy as a trivial twist."""
    simps = nerve.simplices.get(degree, [])
    return Cochain(nerve, degree, "Z2", {s: value for s in simps})


def restrict(c: Cochain, sub: Nerve) -> Cochain:
    """Restriction of a cochain to a subcomplex of its nerve."""
    keep = set(sub.simplices.get(c.degree, ()))
    vals = {s: v for s, v in c.values.items() if s in keep}
    twist = restrict(c.twist, sub) if c.twist is not None else None
    return Cochain(sub, c.degree, c.tag, vals, twist=twist)
