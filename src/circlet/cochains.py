"""Cochains on a nerve with values in {sign group, integers, reals, isometries}.

Values are stored on ascending vertex tuples only; permuted lookups are
derived by the inversion rules, so there is a single source of truth per
simplex.  A cochain may be twisted by a sign-valued 1-cocycle, which
modifies the coboundary formulas and the antisymmetry rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .circle import O2, o2_compose, o2_inverse, o2_frobenius_distance
from .errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from .nerve import Nerve

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


def check_sign_cocycle(omega: Cochain):
    """Raise unless a sign 1-cochain satisfies the cocycle identity."""
    if omega.degree != 1 or omega.tag != "Z2":
        raise ShapeMismatch("twist must be a sign-valued 1-cochain")
    for (j, k, l) in omega.nerve.triangles:
        if omega.values[(j, k)] * omega.values[(k, l)] * omega.values[(j, l)] != 1:
            raise NotACocycle(f"sign cochain fails the cocycle identity on ({j},{k},{l})")


def twisted_coboundary(c: Cochain, omega: Optional[Cochain] = None) -> Cochain:
    """Coboundary of a cochain, twisted by a sign cocycle when given.

    Degree 0 to 1: the leading vertex's value is subtracted from the
    twisted trailing one.  Degree 1 to 2 and 2 to 3 alternate signs with
    the twist applied to the face that drops the leading vertex.  For
    isometry-valued 1-cochains the result is the holonomy defect around
    each triangle (composition against the direct transition).
    """
    if omega is not None:
        check_sign_cocycle(omega)

    def w(j, k):
        return omega.values[(j, k)] if omega is not None else 1

    nerve = c.nerve
    if c.tag == "O2":
        if c.degree != 1:
            raise DegreeUnsupported("isometry coboundary is defined in degree 1 only")
        vals = {}
        for (j, k, l) in nerve.triangles:
            trip = o2_compose(c.values[(j, k)], c.values[(k, l)])
            vals[(j, k, l)] = o2_compose(trip, o2_inverse(c.values[(j, l)]))
        return Cochain(nerve, 2, "O2", vals, twist=omega)
    if c.degree == 0:
        vals = {}
        for (j, k) in nerve.edges:
            if c.tag == "Z2":
                vals[(j, k)] = c.values[(k,)] * c.values[(j,)]
            else:
                vals[(j, k)] = w(j, k) * c.values[(k,)] - c.values[(j,)]
    elif c.degree == 1:
        vals = {}
        for (j, k, l) in nerve.triangles:
            if c.tag == "Z2":
                vals[(j, k, l)] = c.values[(k, l)] * c.values[(j, l)] * c.values[(j, k)]
            else:
                vals[(j, k, l)] = (
                    w(j, k) * c.values[(k, l)] - c.values[(j, l)] + c.values[(j, k)]
                )
    elif c.degree == 2:
        vals = {}
        for (j, k, l, m) in nerve.tetrahedra:
            if c.tag == "Z2":
                vals[(j, k, l, m)] = (
                    c.values[(k, l, m)]
                    * c.values[(j, l, m)]
                    * c.values[(j, k, m)]
                    * c.values[(j, k, l)]
                )
            else:
                vals[(j, k, l, m)] = (
                    w(j, k) * c.values[(k, l, m)]
                    - c.values[(j, l, m)]
                    + c.values[(j, k, m)]
                    - c.values[(j, k, l)]
                )
    else:
        raise DegreeUnsupported(f"coboundary not defined for degree {c.degree}")
    return Cochain(nerve, c.degree + 1, c.tag, vals, twist=omega)


def cochain_distance(a: Cochain, b: Cochain) -> float:
    """Sup over simplices of the coefficient metric.

    Frobenius distance for isometries, absolute difference for reals and
    integers, 0-or-2 for signs (the Frobenius gap between the identity
    and the pure reflection).
    """
    if a.degree != b.degree or a.tag != b.tag or set(a.values) != set(b.values):
        raise ShapeMismatch("cochain domains, degrees, or coefficients differ")
    worst = 0.0
    for s, va in a.values.items():
        vb = b.values[s]
        if a.tag == "O2":
            d = o2_frobenius_distance(va, vb)
        elif a.tag == "Z2":
            d = 0.0 if va == vb else 2.0
        else:
            d = abs(float(va) - float(vb))
        worst = max(worst, d)
    return worst


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
