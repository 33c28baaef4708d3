"""Twisted Cech cochains and the witness: coboundaries, defects, restriction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import o2_matrices
from circlet.cochains import (
    Cochain,
    Witness,
    check_sign_cocycle,
    cocycle_defect,
    restrict,
    twisted_coboundary,
)
from circlet.errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from circlet.nerve import CoverSet, Nerve, build_nerve, filtration_order, stage_subcomplex
from circlet.projection import _transitions

from oracles import O2, loop_defect, o2_values, partition_from_rows, trivial_twist, witness_of


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
        # the witness is kept on ascending edges; a descending pair of
        # supporting sets reads the inverse isometry
        nerve = triangle_nerve()
        vals = {(0, 1): O2(0.3, -1), (0, 2): O2(0.3, 1), (1, 2): O2(0.85, 1)}
        rho = partition_from_rows({7: {0: 0.5, 1: 0.25, 2: 0.25}}, (0, 1, 2), "indicator")
        (t,) = _transitions(witness_of(nerve, vals), rho.groups, rho.sets)
        for (j, k), om in vals.items():
            assert np.array_equal(t[0, j, k], o2_matrices(om.turn, om.sign))
            assert np.allclose(t[0, k, j], om.inverse().matrix, atol=1e-15)
            assert np.allclose(t[0, j, k] @ t[0, k, j], np.eye(2), atol=1e-15)
        assert np.array_equal(t[0, 1, 1], np.eye(2))


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
        d = twisted_coboundary(theta, trivial_twist(nerve))
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
        vals = {(0, 1): a, (1, 2): b, (0, 2): a @ b}
        assert cocycle_defect(witness_of(nerve, vals)) == pytest.approx(0.0)

    def test_single_perturbed_edge(self):
        nerve = triangle_nerve()
        tau = 0.07
        a, b = O2(0.15, 1), O2(0.4, -1)
        vals = {(0, 1): O2(a.turn + tau, 1), (1, 2): b, (0, 2): a @ b}
        expected = 2 * np.sqrt(2.0) * abs(np.sin(np.pi * tau))
        assert cocycle_defect(witness_of(nerve, vals)) == pytest.approx(expected)

    def test_no_triangles_returns_zero(self):
        nerve = build_nerve([CoverSet(0, {0, 1}), CoverSet(1, {1, 2})])
        assert cocycle_defect(witness_of(nerve, {(0, 1): O2(0.2, -1)})) == 0.0

    def test_signs_that_do_not_close(self):
        # one reflection on a triangle: the product's sign differs from the
        # third edge's, and the matrices are at least 2 apart
        nerve = triangle_nerve()
        vals = {(0, 1): O2(0.1, -1), (1, 2): O2(0.2, 1), (0, 2): O2(0.3, 1)}
        got = cocycle_defect(witness_of(nerve, vals))
        assert got >= 2.0
        assert got == loop_defect(vals, nerve.triangles)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(4, 6))
    def test_matches_per_triangle_loop_exactly(self, data, n):
        # a complete nerve on n vertices with random turns and signs: most
        # triangles carry a reflection, and many have signs that do not close
        nerve = build_nerve([CoverSet(j, {99, j}) for j in range(n)], max_dim=2)
        vals = {e: O2(data.draw(turns), data.draw(signs)) for e in nerve.edges}
        assert cocycle_defect(witness_of(nerve, vals)) == loop_defect(vals, nerve.triangles)


class TestActByPotential:
    """The gauge action of a 0-cochain of isometries, written with the reference algebra."""

    @settings(max_examples=40, deadline=None)
    @given(
        ts=st.lists(turns, min_size=3, max_size=3),
        ss=st.lists(signs, min_size=3, max_size=3),
        es=st.lists(turns, min_size=3, max_size=3),
        zs=st.lists(signs, min_size=3, max_size=3),
    )
    def test_defect_preserved(self, ts, ss, es, zs):
        # conjugation by a potential, with the reference algebra, is isometric
        nerve = triangle_nerve()
        om = {e: O2(t, s) for e, t, s in zip(nerve.edges, es, zs)}
        phi = {j: O2(t, s) for (j,), t, s in zip(nerve.vertices, ts, ss)}
        hat = {(j, k): phi[j] @ v @ phi[k].inverse() for (j, k), v in om.items()}
        got = cocycle_defect(witness_of(nerve, hat))
        assert got == pytest.approx(cocycle_defect(witness_of(nerve, om)), abs=1e-10)


class TestRestrict:
    def test_restrict_to_stage(self):
        nerve = filtration_order(tetra_nerve())
        sub = stage_subcomplex(nerve, 8)
        c = Cochain(nerve, 1, "R", {e: float(sum(e)) for e in nerve.edges})
        rc = restrict(c, sub)
        assert set(rc.values) == set(sub.edges)
        for e in sub.edges:
            assert rc.values[e] == c.values[e]

    def test_witness_restricts_by_edge(self):
        # a parsed nerve may list its edges out of lex order
        nerve = filtration_order(tetra_nerve())
        shuffled = Nerve({p: list(reversed(v)) for p, v in nerve.simplices.items()})
        shuffled.order, shuffled.index = nerve.order, nerve.index
        wit = witness_of(shuffled, {e: O2(sum(e) / 10.0, (-1) ** e[0]) for e in nerve.edges})
        sub = stage_subcomplex(nerve, 8)
        rw = wit.restrict(sub)
        assert isinstance(rw, Witness) and rw.nerve is sub
        assert o2_values(rw) == {e: o2_values(wit)[e] for e in sub.edges}
