"""Twisted Cech cochains as arrays and the witness: coboundaries, defects, restriction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import o2_matrices
from circlet.cochains import (
    Witness,
    check_sign_cocycle,
    coboundary,
    cocycle_defect,
    sign_coboundary,
)
from circlet.errors import DegreeUnsupported, NotACocycle, ShapeMismatch
from circlet.nerve import Cover, Nerve, build_nerve, filtration_order, stage_subcomplex
from circlet.projection import _transitions
from circlet.synthetic import gen_lens_bundle, gen_rp2_bundle, gen_s1_bundle

from oracles import (O2, dense_boundary, loop_defect, o2_values, partition_from_rows,
                     trivial_twist, tuples, witness_of)


def triangle_nerve():
    return build_nerve(Cover.of({j: {99, j} for j in range(3)}))


def tetra_nerve():
    return build_nerve(Cover.of({j: {99, j} for j in range(4)}))


def sign_cocycle_from_vertices(nerve, vertex_signs):
    """delta of a vertex sign assignment: always a cocycle."""
    return np.array([vertex_signs[j] * vertex_signs[k] for (j, k) in tuples(nerve.edges)])


turns = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32)
signs = st.sampled_from([1, -1])


class TestCochainContainer:
    def test_domain_must_match(self):
        # a cochain is an array with one value per simplex of its degree
        nerve = triangle_nerve()
        with pytest.raises(ShapeMismatch):
            coboundary(np.array([0.5]), nerve, 1)
        with pytest.raises(ShapeMismatch):
            sign_coboundary(np.ones(4, dtype=np.int64), nerve, 1)

    def test_sign_values_checked(self):
        nerve = triangle_nerve()
        with pytest.raises(ValueError):
            check_sign_cocycle(np.array([1, 0, 1]), nerve)

    def test_permuted_pair_lookup_o2(self):
        # the witness is kept on ascending edges (j, k), the transition from
        # j into k; in frame layout entry [a, b] is the transition from set b
        # into set a, so [k, j] holds the witness and [j, k] its inverse
        nerve = triangle_nerve()
        vals = {(0, 1): O2(0.3, -1), (0, 2): O2(0.3, 1), (1, 2): O2(0.85, 1)}
        rho = partition_from_rows({7: {0: 0.5, 1: 0.25, 2: 0.25}}, (0, 1, 2), "indicator")
        (t,) = _transitions(witness_of(nerve, vals), rho.groups, rho.sets)
        for (j, k), om in vals.items():
            assert np.array_equal(t[0, k, j], o2_matrices(om.turn, om.sign))
            assert np.allclose(t[0, j, k], om.inverse().matrix, atol=1e-15)
            assert np.allclose(t[0, j, k] @ t[0, k, j], np.eye(2), atol=1e-15)
        assert np.array_equal(t[0, 1, 1], np.eye(2))


class TestSignCocycleCheck:
    def test_coboundary_signs_pass(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: 1, 1: -1, 2: -1})
        check_sign_cocycle(omega, nerve)

    def test_odd_triangle_fails(self):
        nerve = triangle_nerve()
        with pytest.raises(NotACocycle):
            check_sign_cocycle(np.array([-1, 1, 1]), nerve)  # -1 on (0, 1)


class TestTwistedCoboundary:
    # the triangle nerve's edges are (0, 1), (0, 2), (1, 2)

    def test_zero_cochain_stays_zero(self):
        nerve = tetra_nerve()
        for deg in (0, 1, 2):
            d = coboundary(np.zeros(len(nerve.simplices[deg])), nerve, deg)
            assert len(d) == len(nerve.simplices[deg + 1]) and not d.any()

    def test_triangle_real_lift_defect(self):
        # frozen worked value: 0.4 + 0.4 - (-0.2) = 1.0
        nerve = triangle_nerve()
        theta = np.array([0.4, -0.2, 0.4])
        d = coboundary(theta, nerve, 1, trivial_twist(nerve))
        assert d.tolist() == [pytest.approx(1.0)]

    def test_twist_flips_leading_term(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: -1, 1: 1, 2: 1})
        theta = np.array([0.4, -0.2, 0.4])
        d = coboundary(theta, nerve, 1, omega)
        # omega_01 = -1: -0.4 + 0.2 + 0.4
        assert d[0] == pytest.approx(0.2)

    def test_degree0_formula(self):
        nerve = triangle_nerve()
        omega = sign_cocycle_from_vertices(nerve, {0: 1, 1: -1, 2: 1})
        d = coboundary(np.array([0.1, 0.2, 0.3]), nerve, 0, omega)
        assert d[0] == pytest.approx(-1 * 0.2 - 0.1)
        assert d[2] == pytest.approx(-1 * 0.3 - 0.2)
        assert d[1] == pytest.approx(1 * 0.3 - 0.1)

    def test_degree0_sign_cochain_multiplicative(self):
        nerve = triangle_nerve()
        d = sign_coboundary(np.array([1, -1, 1]), nerve, 0)
        assert d.tolist() == [-1, 1, -1]

    def test_unsupported_degree(self):
        nerve = tetra_nerve()
        with pytest.raises(DegreeUnsupported):
            coboundary(np.zeros(len(tuples(nerve.simplices[3]))), nerve, 3)

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
        c = np.array(vals, dtype=float)
        dd = coboundary(coboundary(c, nerve, 0, omega), nerve, 1, omega)
        assert np.all(np.abs(dd) < 1e-9)

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
        c = np.array(vals, dtype=float)
        dd = coboundary(coboundary(c, nerve, 1, omega), nerve, 2, omega)
        assert np.all(np.abs(dd) < 1e-9)
        # integers, degree 2 -> 3: exactly zero on the tetrahedron
        z = np.array([int(round(4 * v)) for v in vals])
        dd = coboundary(coboundary(z, nerve, 1, omega), nerve, 2, omega)
        assert dd.dtype.kind == "i" and dd.tolist() == [0]


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
        nerve = build_nerve(Cover.of({0: {0, 1}, 1: {1, 2}}))
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
        nerve = build_nerve(Cover.of({j: {99, j} for j in range(n)}))
        vals = {e: O2(data.draw(turns), data.draw(signs)) for e in tuples(nerve.edges)}
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
        om = {e: O2(t, s) for e, t, s in zip(tuples(nerve.edges), es, zs)}
        phi = {j: O2(t, s) for (j,), t, s in zip(tuples(nerve.vertices), ts, ss)}
        hat = {(j, k): phi[j] @ v @ phi[k].inverse() for (j, k), v in om.items()}
        got = cocycle_defect(witness_of(nerve, hat))
        assert got == pytest.approx(cocycle_defect(witness_of(nerve, om)), abs=1e-10)


class TestRestrict:
    def test_restrict_to_stage(self):
        # an edge array restricts to a stage through the witness that carries it
        nerve = filtration_order(tetra_nerve())
        sub = stage_subcomplex(nerve, 8)
        turn = np.array([sum(e) / 10.0 for e in tuples(nerve.edges)])
        rw = Witness(nerve, turn, np.ones(len(turn), dtype=np.int64)).restrict(sub)
        assert rw.turn.tolist() == [sum(e) / 10.0 for e in tuples(sub.edges)]
        assert len(sub.edges) < len(nerve.edges)

    def test_witness_restricts_by_edge(self):
        # a nerve built by hand may list its edges out of lex order
        nerve = filtration_order(tetra_nerve())
        shuffled = Nerve({p: v[::-1] for p, v in nerve.simplices.items()},
                         stage={p: v[::-1] for p, v in nerve.stage.items()})
        values = {e: O2(sum(e) / 10.0, (-1) ** e[0]) for e in tuples(nerve.edges)}
        wit = witness_of(shuffled, values)
        sub = stage_subcomplex(nerve, 8)
        rw = wit.restrict(sub)
        assert isinstance(rw, Witness) and rw.nerve is sub
        assert o2_values(rw) == {e: o2_values(wit)[e] for e in tuples(sub.edges)}


# synth nerves the arrays are compared on, by their exact generator arguments
ORACLE_SCENARIOS = {
    "lens1": (gen_lens_bundle, (1,), {"n_samples": 2000, "n_sets": 16, "radius": 0.85}),
    "lens2": (gen_lens_bundle, (2,), {"n_samples": 4000, "n_sets": 64, "radius": 0.44}),
    "rp2": (gen_rp2_bundle, (1,), {"n_samples": 2000, "n_sets": 20}),
    "klein": (gen_s1_bundle, (False,), {}),
    "torus": (gen_s1_bundle, (True,), {}),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_coboundary_matches_dense_boundary(name, seed, filtered_witness):
    # integer and sign p-cochains, p = 0, 1, 2, against the transpose of the
    # dense twisted boundary restated from the definition
    gen, args, kwargs = ORACLE_SCENARIOS[name]
    nerve = filtered_witness(gen, *args, seed=seed, **kwargs).nerve
    rng = np.random.default_rng(seed)
    twists = [trivial_twist(nerve), rng.choice([-1, 1], len(nerve.edges))]
    for p in (0, 1, 2):
        ints = rng.integers(-3, 4, len(nerve.simplices[p]))
        signs = rng.choice([-1, 1], len(nerve.simplices[p]))
        for twist in twists:
            D, faces, cofaces = dense_boundary(nerve, twist, p + 1)
            # the dense matrix is in filtration order, the arrays in lex order
            lex = [{s: i for i, s in enumerate(tuples(nerve.simplices[q]))} for q in (p, p + 1)]
            rows, cols = [lex[0][s] for s in faces], [lex[1][s] for s in cofaces]
            dense = D.T.astype(np.int64)
            assert coboundary(ints, nerve, p, twist)[cols].tolist() == (dense @ ints[rows]).tolist()
            odd = (np.abs(dense) @ (signs[rows] < 0)) % 2
            assert sign_coboundary(signs, nerve, p)[cols].tolist() == (1 - 2 * odd).tolist()
