"""Twisted Cech cochains: coboundaries, distances, defects, gauge action."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import O2, IDENTITY, o2_compose, o2_inverse
from circlet.cochains import (
    Cochain,
    act_by_potential,
    check_sign_cocycle,
    cocycle_defect,
    constant_sign_cochain,
    restrict,
    twisted_coboundary,
)
from circlet.errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from circlet.nerve import CoverSet, build_nerve, filtration_order, stage_subcomplex


def triangle_nerve():
    return build_nerve([CoverSet(j, {99, j}) for j in range(3)])


def tetra_nerve():
    return build_nerve([CoverSet(j, {99, j}) for j in range(4)])


def sign_cocycle_from_vertices(nerve, vertex_signs):
    """delta of a vertex sign assignment: always a cocycle."""
    vals = {(j, k): vertex_signs[j] * vertex_signs[k] for (j, k) in nerve.edges}
    return Cochain(nerve, 1, "Z2", vals)


turns = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32)
signs = st.sampled_from([1, -1])


class TestCochainContainer:
    def test_domain_must_match(self):
        nerve = triangle_nerve()
        with pytest.raises(ShapeMismatch):
            Cochain(nerve, 1, "R", {(0, 1): 0.5})

    def test_sign_values_checked(self):
        nerve = triangle_nerve()
        with pytest.raises(ValueError):
            Cochain(nerve, 0, "Z2", {(0,): 1, (1,): 0, (2,): 1})

    def test_permuted_pair_lookup_o2(self):
        nerve = triangle_nerve()
        om = O2(0.3, -1)
        vals = {e: om for e in nerve.edges}
        c = Cochain(nerve, 1, "O2", vals)
        assert c.value((1, 0)) == o2_inverse(om)
        assert c.value((0, 1)) == om

    def test_permuted_pair_lookup_real_untwisted(self):
        nerve = triangle_nerve()
        c = Cochain(nerve, 1, "R", {e: 0.25 for e in nerve.edges})
        assert c.value((2, 0)) == pytest.approx(-0.25)

    def test_permuted_pair_lookup_real_twisted(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: 1, 1: -1, 2: 1})
        c = Cochain(nerve, 1, "R", {e: 0.25 for e in nerve.edges}, twist=omega)
        # (1,0): stored on (0,1) with twist -1 there
        assert c.value((1, 0)) == pytest.approx(0.25)
        assert c.value((2, 1)) == pytest.approx(0.25)
        assert c.value((2, 0)) == pytest.approx(-0.25)

    def test_permuted_sign_lookup_symmetric(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: 1, 1: -1, 2: 1})
        assert omega.value((1, 0)) == omega.value((0, 1))


class TestSignCocycleCheck:
    def test_coboundary_signs_pass(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: 1, 1: -1, 2: -1})
        check_sign_cocycle(omega)

    def test_odd_triangle_fails(self):
        nerve = triangle_nerve()
        vals = {(0, 1): -1, (0, 2): 1, (1, 2): 1}
        with pytest.raises(NotACocycle):
            check_sign_cocycle(Cochain(nerve, 1, "Z2", vals))


class TestTwistedCoboundary:
    def test_zero_cochain_stays_zero(self):
        nerve = tetra_nerve()
        for deg in (0, 1, 2):
            simps = nerve.simplices[deg]
            c = Cochain(nerve, deg, "R", {s: 0.0 for s in simps})
            d = twisted_coboundary(c)
            assert all(v == 0.0 for v in d.values.values())

    def test_triangle_real_lift_defect(self):
        # frozen worked value: 0.4 + 0.4 - (-0.2) = 1.0
        nerve = triangle_nerve()
        theta = Cochain(nerve, 1, "R", {(0, 1): 0.4, (0, 2): -0.2, (1, 2): 0.4})
        d = twisted_coboundary(theta, constant_sign_cochain(nerve))
        assert d.values[(0, 1, 2)] == pytest.approx(1.0)

    def test_twist_flips_leading_term(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: -1, 1: 1, 2: 1})
        theta = Cochain(nerve, 1, "R", {(0, 1): 0.4, (0, 2): -0.2, (1, 2): 0.4})
        d = twisted_coboundary(theta, omega)
        # omega_01 = -1: -0.4 + 0.2 + 0.4
        assert d.values[(0, 1, 2)] == pytest.approx(0.2)

    def test_degree0_formula(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: 1, 1: -1, 2: 1})
        c = Cochain(nerve, 0, "R", {(0,): 0.1, (1,): 0.2, (2,): 0.3})
        d = twisted_coboundary(c, omega)
        assert d.values[(0, 1)] == pytest.approx(-1 * 0.2 - 0.1)
        assert d.values[(1, 2)] == pytest.approx(-1 * 0.3 - 0.2)
        assert d.values[(0, 2)] == pytest.approx(1 * 0.3 - 0.1)

    def test_degree0_sign_cochain_multiplicative(self):
        nerve = triangle_nerve()
        c = Cochain(nerve, 0, "Z2", {(0,): 1, (1,): -1, (2,): 1})
        d = twisted_coboundary(c)
        assert d.values == {(0, 1): -1, (0, 2): 1, (1, 2): -1}

    def test_unsupported_degree(self):
        nerve = tetra_nerve()
        c = Cochain(nerve, 3, "R", {s: 0.0 for s in nerve.tetrahedra})
        with pytest.raises(DegreeUnsupported):
            twisted_coboundary(c)

    @settings(max_examples=60, deadline=None)
    @given(
        vs=st.tuples(signs, signs, signs, signs),
        vals=st.lists(
            st.floats(min_value=-5, max_value=5, width=32), min_size=4, max_size=4
        ),
    )
    def test_coboundary_squares_to_zero_deg0(self, vs, vals):
        nerve = tetra_nerve()
        omega = sign_cocycle_from_vertices(nerve, dict(enumerate(vs)))
        c = Cochain(
            nerve, 0, "R", {(j,): float(vals[j]) for j in range(4)}
        )
        dd = twisted_coboundary(twisted_coboundary(c, omega), omega)
        assert all(abs(v) < 1e-9 for v in dd.values.values())

    @settings(max_examples=60, deadline=None)
    @given(
        vs=st.tuples(signs, signs, signs, signs),
        vals=st.lists(
            st.floats(min_value=-5, max_value=5, width=32), min_size=6, max_size=6
        ),
    )
    def test_coboundary_squares_to_zero_deg1(self, vs, vals):
        nerve = tetra_nerve()
        omega = sign_cocycle_from_vertices(nerve, dict(enumerate(vs)))
        c = Cochain(
            nerve,
            1,
            "R",
            {e: float(v) for e, v in zip(nerve.edges, vals)},
        )
        dd = twisted_coboundary(twisted_coboundary(c, omega), omega)
        assert all(abs(v) < 1e-9 for v in dd.values.values())
        # integers, degree 2 -> 3: exactly zero on the tetrahedron
        z = Cochain(
            nerve, 1, "Z", {e: int(round(4 * v)) for e, v in zip(nerve.edges, vals)}
        )
        dd = twisted_coboundary(twisted_coboundary(z, omega), omega)
        assert dd.degree == 3 and dd.values == {(0, 1, 2, 3): 0}


class TestCocycleDefect:
    def test_exact_cocycle_zero(self):
        nerve = triangle_nerve()
        a, b = O2(0.15, 1), O2(0.4, -1)
        vals = {(0, 1): a, (1, 2): b, (0, 2): o2_compose(a, b)}
        assert cocycle_defect(Cochain(nerve, 1, "O2", vals)) == pytest.approx(0.0)

    def test_single_perturbed_edge(self):
        nerve = triangle_nerve()
        tau = 0.07
        a, b = O2(0.15, 1), O2(0.4, -1)
        vals = {(0, 1): O2(a.turn + tau, 1), (1, 2): b, (0, 2): o2_compose(a, b)}
        expected = 2 * np.sqrt(2.0) * abs(np.sin(np.pi * tau))
        assert cocycle_defect(Cochain(nerve, 1, "O2", vals)) == pytest.approx(expected)

    def test_no_triangles_returns_zero(self):
        nerve = build_nerve([CoverSet(0, {0, 1}), CoverSet(1, {1, 2})])
        c = Cochain(nerve, 1, "O2", {(0, 1): O2(0.2, -1)})
        assert cocycle_defect(c) == 0.0


class TestActByPotential:
    def test_identity_potential(self):
        nerve = triangle_nerve()
        om = Cochain(nerve, 1, "O2", {e: O2(0.3, -1) for e in nerve.edges})
        phi = Cochain(nerve, 0, "O2", {v: IDENTITY for v in nerve.vertices})
        out = act_by_potential(phi, om)
        assert out.values == om.values

    def test_constant_rotation_fixes_rotation_cochain(self):
        nerve = triangle_nerve()
        om = Cochain(nerve, 1, "O2", {e: O2(0.3, 1) for e in nerve.edges})
        phi = Cochain(nerve, 0, "O2", {v: O2(0.11, 1) for v in nerve.vertices})
        out = act_by_potential(phi, om)
        for e in nerve.edges:
            assert out.values[e].turn == pytest.approx(0.3)
            assert out.values[e].sign == 1

    @settings(max_examples=40, deadline=None)
    @given(
        ts=st.lists(turns, min_size=3, max_size=3),
        ss=st.lists(signs, min_size=3, max_size=3),
        es=st.lists(turns, min_size=3, max_size=3),
        zs=st.lists(signs, min_size=3, max_size=3),
    )
    def test_defect_preserved(self, ts, ss, es, zs):
        nerve = triangle_nerve()
        om = Cochain(
            nerve,
            1,
            "O2",
            {e: O2(t, s) for e, t, s in zip(nerve.edges, es, zs)},
        )
        phi = Cochain(
            nerve,
            0,
            "O2",
            {v: O2(t, s) for v, t, s in zip(nerve.vertices, ts, ss)},
        )
        out = act_by_potential(phi, om)
        assert cocycle_defect(out) == pytest.approx(cocycle_defect(om), abs=1e-10)


class TestRestrict:
    def test_restrict_to_stage(self):
        nerve = filtration_order(tetra_nerve())
        sub = stage_subcomplex(nerve, 8)
        c = Cochain(nerve, 1, "R", {e: float(sum(e)) for e in nerve.edges})
        rc = restrict(c, sub)
        assert set(rc.values) == set(sub.edges)
        for e in sub.edges:
            assert rc.values[e] == c.values[e]
