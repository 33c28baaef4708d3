"""Smith normal form, the exact solvers, and the coboundary rows they solve."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.cochains import coboundary, coboundary_rows
from circlet.errors import NotACocycle
import circlet.intlinalg as intlinalg
from circlet.classes import euler_cochain
from circlet.intlinalg import (
    integer_kernel,
    integer_solvable,
    sign_potential,
    sign_solvable_prefixes,
    smith_normal_form,
    solve_gf2,
    solve_integer,
    solvable_prefixes,
)
from circlet.nerve import CoverSet, build_nerve, edge_weights, filtration_order
from circlet.synthetic import gen_lens_bundle, gen_rp2_bundle, gen_s1_bundle
from circlet.witness import assemble_witness

from oracles import (
    brute_force_integer_solvable,
    dense_boundary,
    dense_solve_integer,
    gf2_solvable,
    integer_kernel_via_rationals,
    snf_properties,
    trivial_twist,
)


def signs_from_vertices(nerve, vertex_signs):
    return np.array([vertex_signs[j] * vertex_signs[k] for (j, k) in nerve.edges])


def labelled(nerve, p, row):
    """A coboundary row with the facet positions among the p-simplices named."""
    return [(nerve.simplices[p][f], c) for f, c in row.items()]


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(np.eye(3, dtype=int))
        assert snf.diagonal == [1, 1, 1]
        assert snf.rank == 3

    def test_frozen_two_by_two(self):
        # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4
        snf = smith_normal_form(np.array([[2, 4], [6, 8]]))
        assert snf.diagonal == [2, 4]

    def test_small_known(self):
        snf = smith_normal_form(np.array([[1, 2], [3, 4]]))
        assert snf.diagonal == [1, 2]

    def test_zero_matrix(self):
        snf = smith_normal_form(np.zeros((2, 3), dtype=int))
        assert snf.diagonal == [0, 0]
        assert snf.rank == 0

    def test_single_row(self):
        snf = smith_normal_form(np.array([[6, 10, 15]]))
        assert snf.diagonal == [1]

    def test_properties_random(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            A = rng.integers(-9, 10, size=(m, n))
            snf = smith_normal_form(A)
            assert snf_properties(A, snf.L, snf.S, snf.R)

    def test_tracked_inverses(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.integers(-6, 7, size=(5, 6))
            snf = smith_normal_form(A)
            eye_m = np.eye(5, dtype=object)
            eye_n = np.eye(6, dtype=object)
            assert np.array_equal(np.dot(snf.L, snf.Linv), eye_m)
            assert np.array_equal(np.dot(snf.Rinv, snf.R), eye_n)

    def test_large_entries_stay_exact(self):
        # big inputs push the reduction onto arbitrary precision
        rng = np.random.default_rng(3)
        A = rng.integers(-(10**9), 10**9, size=(6, 6))
        snf = smith_normal_form(A)
        assert snf_properties(A, snf.L, snf.S, snf.R)

    def test_pivot_blowup_stays_exact(self):
        # dense matrix whose reduction inflates intermediates far past the input scale
        rng = np.random.default_rng(5)
        A = rng.integers(-40, 41, size=(12, 12))
        snf = smith_normal_form(A)
        assert snf_properties(A, snf.L, snf.S, snf.R)
        assert all(isinstance(x, int) for x in snf.S.ravel())


def solve_dense(A, b):
    """``solve_integer`` on the rows of a dense matrix, as a vector, or None."""
    x = solve_integer(sparse_rows(A), list(b))
    return None if x is None else np.array([x.get(j, 0) for j in range(np.shape(A)[1])], dtype=object)


class TestSolveInteger:
    def test_zero_rhs(self):
        x = solve_dense(np.array([[3, 1], [0, 2]]), np.zeros(2, dtype=int))
        assert list(x) == [0, 0]

    def test_divisibility_obstruction(self):
        assert solve_dense(np.array([[2]]), np.array([3])) is None

    def test_simple_solution(self):
        x = solve_dense(np.array([[2]]), np.array([4]))
        assert list(x) == [2]

    def test_inconsistent_row(self):
        A = np.array([[1, 1], [1, 1]])
        assert solve_dense(A, np.array([1, 2])) is None

    def test_recovers_planted_solution(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            A = rng.integers(-5, 6, size=(m, n))
            x0 = rng.integers(-4, 5, size=n)
            b = A @ x0
            x = solve_dense(A, b)
            assert x is not None
            assert np.array_equal(np.dot(A.astype(object), x), b.astype(object))

    def test_solvability_matches_brute_force(self):
        rng = np.random.default_rng(31)
        checked_none = 0
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = rng.integers(-3, 4, size=(m, n))
            b = rng.integers(-3, 4, size=m)
            got = solve_dense(A, b)
            if got is None:
                # unsolvable verdicts must survive an exhaustive box search
                assert not brute_force_integer_solvable(
                    A.tolist(), b.tolist(), bound=12
                )
                checked_none += 1
            else:
                assert np.array_equal(np.dot(A.astype(object), got), b.astype(object))
        assert checked_none > 0

    def test_free_columns_are_zero(self):
        # x0 + x1 = 3 leaves x1 free; the free column gets 0
        assert solve_integer([{0: 1, 1: 1}], [3]) == {0: 3, 1: 0}

    def test_back_substitutes_through_a_block(self, fallbacks):
        # the block 2 x1 + 4 x2 = 4 x1 + 2 x2 = 6 has no unit entry and goes
        # to the Smith form; x0 then follows from x0 + 2 x1 = 7
        rows = [{0: 1, 1: 2}, {1: 2, 2: 4}, {1: 4, 2: 2}]
        x = solve_integer(rows, [7, 6, 6])
        assert fallbacks == [(2, 2)]
        assert all(sum(v * x[c] for c, v in row.items()) == bi for row, bi in zip(rows, [7, 6, 6]))
        assert solve_integer(rows, [7, 6, 5]) is None


@st.composite
def sparse_systems(draw):
    """A small integer system whose rows are often without a unit entry."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([-2, -1, 0, 0, 0, 1, 2])
    scale = st.sampled_from([1, 1, 2, 3])
    A = np.array([[draw(entry) * k for _ in range(n)] for k in (draw(scale) for _ in range(m))],
                 dtype=object)
    if draw(st.booleans()):
        b = A.dot(np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=object))
    else:
        b = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)), dtype=object)
    return A, b


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_solve_matches_the_dense_oracle(system):
    A, b = system
    x = solve_dense(A, b)
    assert (x is None) == (dense_solve_integer(A, b) is None)
    if x is not None:
        assert np.array_equal(A.dot(x), b)


class TestSolveGF2:
    def test_zero_rhs(self):
        x = solve_gf2(np.array([[1, 0], [1, 1]]), np.zeros(2, dtype=int))
        assert list(x) == [0, 0]

    def test_cycle_with_odd_holonomy(self):
        # vertex potentials cannot produce an odd product around a loop
        A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert solve_gf2(A, np.array([1, 0, 0])) is None

    def test_cycle_with_even_holonomy(self):
        A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        x = solve_gf2(A, np.array([1, 1, 0]))
        assert x is not None
        assert np.array_equal((A @ x) % 2, np.array([1, 1, 0]))

    def test_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(80):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            A = rng.integers(0, 2, size=(m, n))
            b = rng.integers(0, 2, size=m)
            x = solve_gf2(A, b)
            assert (x is not None) == gf2_solvable(A.tolist(), b.tolist())
            if x is not None:
                assert np.array_equal((A @ x) % 2, b)


class TestTwistedBoundaryMatrix:
    """The twisted boundary matrix, read as the transpose of ``coboundary_rows``."""

    def triangle(self):
        return build_nerve([CoverSet(j, {99, j}) for j in range(3)])

    def test_untwisted_is_standard_boundary(self):
        nerve = self.triangle()
        [col] = coboundary_rows(nerve, 1)
        assert labelled(nerve, 1, col) == [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]

    def test_twisted_leading_face(self):
        # frozen column: omega_01 = -1 puts -1 on the face dropping vertex 0
        nerve = self.triangle()
        omega = signs_from_vertices(nerve, {0: -1, 1: 1, 2: 1})
        [col] = coboundary_rows(nerve, 1, omega)
        assert labelled(nerve, 1, col) == [((1, 2), -1), ((0, 2), -1), ((0, 1), 1)]

    def test_degree_one_pattern(self):
        nerve = self.triangle()
        omega = signs_from_vertices(nerve, {0: -1, 1: 1, 2: 1})
        rows = coboundary_rows(nerve, 0, omega)
        assert labelled(nerve, 0, rows[nerve.edges.index((0, 1))]) == [((1,), -1), ((0,), -1)]

    def test_rejects_non_cocycle(self):
        # the classes that read a twist check it first
        from circlet.classes import fundamental_class_twisted

        nerve = self.triangle()
        bad = np.array([-1, 1, 1])  # -1 on (0, 1)
        with pytest.raises(NotACocycle):
            fundamental_class_twisted(nerve, bad)

    def test_chain_complex_property(self):
        rng = np.random.default_rng(57)
        ran = 0
        for trial in range(15):
            n_sets = int(rng.integers(4, 7))
            universe = list(range(12))
            cover = []
            for j in range(n_sets):
                size = int(rng.integers(4, 9))
                members = rng.choice(universe, size=size, replace=False)
                cover.append(CoverSet(j, set(int(x) for x in members)))
            nerve = build_nerve(cover)
            if not nerve.tetrahedra:
                continue
            vs = {j: int(s) for j, s in zip(range(n_sets), rng.choice([1, -1], n_sets))}
            omega = signs_from_vertices(nerve, vs)
            d2 = coboundary_rows(nerve, 1, omega)
            for row in coboundary_rows(nerve, 2, omega):
                total = {}
                for t, a in row.items():
                    for e, v in d2[t].items():
                        total[e] = total.get(e, 0) + a * v
                assert not any(total.values())
            # and the coboundary of a coboundary vanishes
            x = rng.integers(-3, 4, len(nerve.edges))
            assert not coboundary(coboundary(x, nerve, 1, omega), nerve, 2, omega).any()
            ran += 1
        assert ran > 0

    def test_filtration_order_respected(self):
        cover = [CoverSet(j, {99, j}) for j in range(3)]
        nerve = build_nerve(cover)
        nerve.weights[(0, 1)] = 0.3
        nerve.weights[(0, 2)] = 0.1
        nerve.weights[(1, 2)] = 0.2
        ordered = filtration_order(nerve)
        assert np.argsort(nerve.stage_index(1), kind="stable").tolist() == [0, 1, 2]
        assert np.argsort(ordered.stage_index(1), kind="stable").tolist() == [1, 2, 0]
        assert ordered.stage_index(1).tolist() == [7, 5, 6]


def sparse_rows(A):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in np.asarray(A)]


def dense(rows):
    labels = sorted({c for row in rows for c in row})
    pos = {c: j for j, c in enumerate(labels)}
    A = np.zeros((len(rows), len(labels)), dtype=object)
    for i, row in enumerate(rows):
        for c, v in row.items():
            A[i, pos[c]] = v
    return A


def sympy_solvable(A, b):
    # A x = b is solvable over Z iff A and [A | b] share their nonzero
    # invariant factors (which also fixes the rank)
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def factors(M):
        return [d for d in invariant_factors(sympy.Matrix(M), domain=sympy.ZZ) if d != 0]

    A = np.asarray(A).tolist()
    aug = [row + [int(bi)] for row, bi in zip(A, b)]
    return factors(A) == factors(aug)


@pytest.fixture
def fallbacks(monkeypatch):
    """Shapes of the blocks handed to the Smith form for want of a unit pivot."""
    calls = []
    real = intlinalg.smith_normal_form
    monkeypatch.setattr(
        intlinalg, "smith_normal_form", lambda A: calls.append(np.shape(A)) or real(A)
    )
    return calls


class TestIntegerSolvable:
    def test_empty_system(self):
        assert integer_solvable([], [])

    def test_zero_row_needs_zero_rhs(self):
        assert integer_solvable([{}], [0])
        assert not integer_solvable([{"a": 0}], [1])

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError):
            integer_solvable([{0: 1}], [1, 2])

    def test_leaves_rows_untouched(self):
        rows = [{0: 1, 1: 1}, {1: 1, 2: -1}]
        copy = [dict(r) for r in rows]
        integer_solvable(rows, [1, 2])
        assert rows == copy

    def test_inconsistent_units(self):
        assert not integer_solvable([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2])

    def test_torsion_falls_back_to_smith_form(self, fallbacks):
        # [[2]] has no unit pivot: only the Smith form can decide it
        assert not integer_solvable([{0: 2}], [1])
        assert integer_solvable([{0: 2}], [4])
        # a Z/2-torsion block left behind after a unit elimination
        rows = [{0: 1, 1: 1}, {1: 2, 2: 2}, {1: 2, 2: -2}]
        assert integer_solvable(rows, [5, 2, 2])
        assert not integer_solvable(rows, [5, 2, 0])
        assert len(fallbacks) == 4
        assert fallbacks[-1] == (2, 2)

    def test_units_never_fall_back_on_a_triangle(self, fallbacks):
        rows = [{(1, 2): 1, (0, 2): -1, (0, 1): 1}]
        assert integer_solvable(rows, [7])
        assert fallbacks == []

    def test_matches_sympy_on_small_integer_matrices(self):
        rng = np.random.default_rng(61)
        verdicts = set()
        for _ in range(150):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            A = rng.integers(-4, 5, size=(m, n))
            b = rng.integers(-4, 5, size=m)
            got = integer_solvable(sparse_rows(A), b.tolist())
            assert got == sympy_solvable(A, b)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_matches_sympy_on_sparse_unit_matrices(self):
        rng = np.random.default_rng(67)
        verdicts = set()
        for _ in range(150):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            A = rng.choice([-1, 0, 0, 1], size=(m, n))
            # half the time plant a solution, otherwise a random right side
            if rng.uniform() < 0.5:
                b = A @ rng.integers(-3, 4, size=n)
            else:
                b = rng.integers(-2, 3, size=m)
            got = integer_solvable(sparse_rows(A), b.tolist())
            assert got == sympy_solvable(A, b)
            verdicts.add(got)
        assert verdicts == {True, False}


def kernel_basis(kernel):
    """The kernel vectors of unit parameter vectors, as column -> integer."""
    eye = np.eye(kernel.rank, dtype=int)
    return [kernel.vector(row) for row in eye]


class TestSolvablePrefixes:
    def test_empty_system(self):
        assert solvable_prefixes([], []) == [True]

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError):
            solvable_prefixes([{0: 1}], [1, 2])

    def test_torsion_row_stays_in_the_system(self, fallbacks):
        # 2 x = 1 has no unit entry: the Smith form refuses it, and a later
        # unit row on the same column pivots it to 0 = 1
        assert solvable_prefixes([{0: 2}, {0: 1}], [1, 0]) == [True, False, False]
        assert solvable_prefixes([{0: 2}, {0: 1}], [4, 2]) == [True, True, True]
        assert solvable_prefixes([{0: 1, 1: 1}, {0: 1, 1: 1}, {2: 1}], [1, 2, 0]) == [
            True, True, False, False]

    def test_left_over_row_becomes_a_pivot(self, fallbacks):
        # 2 x0 + 3 x1 = 1 waits in the block until x1 = -x0 leaves -x0 = 1
        rows = [{0: 2, 1: 3}, {1: 1, 0: 1}]
        assert solvable_prefixes(rows, [1, 0]) == [True, True, True]
        assert fallbacks == [(1, 2)]

    def test_block_decided_only_when_it_changes(self, fallbacks):
        rows = [{0: 2}, {1: 1}, {2: 1, 1: 1}, {0: 2, 3: 2}]
        assert solvable_prefixes(rows, [4, 0, 0, 5]) == [True, True, True, True, False]
        assert fallbacks == [(1, 1), (2, 2)]

    def test_leaves_rows_untouched(self):
        rows = [{0: 2, 1: 3}, {1: 1, 0: 1}, {0: 1, 2: 2}]
        copy = [dict(r) for r in rows]
        solvable_prefixes(rows, [1, 0, 3])
        assert rows == copy


@st.composite
def row_systems(draw):
    """Sparse rows with entries in -2..2, some of them torsion rows like 2 x = 1."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([-2, -1, 0, 0, 0, 1, 2])
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)):
            rows.append({c: draw(entry) for c in range(n)})
        else:
            rows.append({draw(st.integers(0, n - 1)): 2})
        rhs.append(draw(st.integers(-3, 3)))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(row_systems())
def test_solvable_prefixes_decide_every_prefix(system):
    rows, rhs = system
    expected = [integer_solvable(rows[:n], rhs[:n]) for n in range(len(rows) + 1)]
    assert solvable_prefixes(rows, rhs) == expected


class TestIntegerKernel:
    def test_free_columns_and_back_substitution(self):
        # x0 + x1 = 0, x1 - x2 = 0 over columns 0..3: column 3 meets no row
        kernel = integer_kernel([{0: 1, 1: 1}, {1: 1, 2: -1}], [0, 1, 2, 3])
        assert kernel.rank == 2 and kernel.block == []
        for x in kernel_basis(kernel):
            assert x[0] + x[1] == 0 and x[1] - x[2] == 0

    def test_block_without_unit_pivot_goes_to_smith_form(self, monkeypatch):
        calls = []
        real = intlinalg.smith_normal_form
        monkeypatch.setattr(
            intlinalg, "smith_normal_form", lambda A: calls.append(np.shape(A)) or real(A)
        )
        # 2 x0 + 2 x1 = 0 has no unit pivot; x2 is free
        kernel = integer_kernel([{0: 2, 1: 2}], [0, 1, 2])
        assert calls == [(1, 2)]
        assert sorted(kernel.block) == [0, 1] and kernel.free == [2]
        assert kernel.rank == 2
        for x in kernel_basis(kernel):
            assert 2 * x[0] + 2 * x[1] == 0
        # a block with no kernel still leaves the free column
        kernel = integer_kernel([{0: 2}], [0, 1])
        assert kernel.rank == 1 and kernel.vector([5]) == {0: 0, 1: 5}

    def test_matches_rational_rank_and_round_trips(self):
        rng = np.random.default_rng(71)
        for _ in range(120):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 8))
            A = rng.choice([-2, -1, 0, 0, 0, 1, 1, 2], size=(m, n))
            kernel = integer_kernel(sparse_rows(A), list(range(n)))
            assert kernel.rank == integer_kernel_via_rationals(A.tolist())[1]
            for x in kernel_basis(kernel):
                assert set(x) <= set(range(n))
                vec = np.array([x.get(j, 0) for j in range(n)])
                assert not np.any(A @ vec)
            t = rng.integers(-3, 4, size=kernel.rank).tolist()
            assert kernel.parameters(kernel.vector(t)) == t


class TestCoboundaryRows:
    @pytest.mark.parametrize("simplex, twisted, untwisted", [
        ((2, 5), [((5,), -1), ((2,), -1)], [((5,), 1), ((2,), -1)]),
        (
            (1, 3, 4),
            [((3, 4), -1), ((1, 4), -1), ((1, 3), 1)],
            [((3, 4), 1), ((1, 4), -1), ((1, 3), 1)],
        ),
        (
            (0, 2, 3, 7),
            [((2, 3, 7), -1), ((0, 3, 7), -1), ((0, 2, 7), 1), ((0, 2, 3), -1)],
            [((2, 3, 7), 1), ((0, 3, 7), -1), ((0, 2, 7), 1), ((0, 2, 3), -1)],
        ),
    ], ids=["p1", "p2", "p3"])
    def test_hand_written_rows(self, simplex, twisted, untwisted):
        # facets in order; the one without the leading vertex carries the
        # twist on the leading edge, facet i otherwise carries (-1)**i
        nerve = build_nerve([CoverSet(j, {99}) for j in simplex])
        p = len(simplex) - 1
        at = nerve.simplices[p].index(simplex)
        twist = np.array([-1 if e == simplex[:2] else 1 for e in nerve.edges])
        assert labelled(nerve, p - 1, coboundary_rows(nerve, p - 1, twist)[at]) == twisted
        assert labelled(nerve, p - 1, coboundary_rows(nerve, p - 1)[at]) == untwisted

    def test_rows_are_the_boundary_transpose(self):
        rng = np.random.default_rng(71)
        ran = 0
        for _ in range(10):
            cover = [
                CoverSet(j, set(int(x) for x in rng.choice(12, size=6, replace=False)))
                for j in range(6)
            ]
            nerve = build_nerve(cover)
            if not nerve.triangles:
                continue
            vs = {j: int(s) for j, s in zip(range(6), rng.choice([1, -1], 6))}
            omega = signs_from_vertices(nerve, vs)
            d2, edges, tris = dense_boundary(nerve, omega, 2)
            rows = coboundary_rows(nerve, 1, omega)
            for t, column in zip(tris, d2.T):
                row = rows[nerve.triangles.index(t)]
                assert dict(labelled(nerve, 1, row)) == {e: int(v) for e, v in zip(edges, column) if v}
            ran += 1
        assert ran > 0

    def test_no_twist_is_the_constant_sign(self):
        nerve = build_nerve([CoverSet(j, {99, j}) for j in range(3)])
        assert coboundary_rows(nerve, 1) == coboundary_rows(nerve, 1, trivial_twist(nerve))


def scenario(bundle):
    ds, cover, trivs = bundle
    nerve = build_nerve(cover)
    nerve = filtration_order(edge_weights(nerve, trivs, assemble_witness(trivs, nerve)))
    return nerve, euler_cochain(assemble_witness(trivs, nerve))


SCENARIOS = {
    "lens:1": lambda: gen_lens_bundle(1, n_samples=1000, n_sets=20, seed=1),
    "rp2:1": lambda: gen_rp2_bundle(1, n_samples=1000, n_sets=20, seed=0),
    "klein": lambda: gen_s1_bundle(False, seed=0),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_stages_match_dense_solvers(name):
    # every stage of the filtration: the Euler class and a random right
    # side against the dense Smith-form solve, the sign class against the
    # dense GF(2) solve, and the sweeps against both
    nerve, result = scenario(SCENARIOS[name]())
    rng = np.random.default_rng(73)
    tris, edges = [], {}
    verts = [v[0] for v in nerve.vertices]
    sign_verdicts, euler_verdicts = [True], [True]
    at = {s: i for p in (1, 2) for i, s in enumerate(nerve.simplices[p])}
    all_rows = coboundary_rows(nerve, 1, result.sw)
    for s in nerve.order:
        if len(s) == 2:
            edges[s] = int(result.sw[at[s]])
            A = np.zeros((len(edges), len(verts)), dtype=np.uint8)
            for i, (j, k) in enumerate(edges):
                A[i, verts.index(j)] = A[i, verts.index(k)] = 1
            b = [1 if v < 0 else 0 for v in edges.values()]
            sign_verdicts.append(solve_gf2(A, b) is not None)
            assert (sign_potential(edges) is not None) == sign_verdicts[-1]
        if len(s) == 3:
            tris.append(s)
            rows = [all_rows[at[t]] for t in tris]
            euler = [int(result.euler[at[t]]) for t in tris]
            for b in (euler, rng.integers(-1, 2, len(tris)).tolist()):
                expected = dense_solve_integer(dense(rows), b) is not None
                assert integer_solvable(rows, b) == expected
                x = solve_integer(rows, b)
                assert (x is not None) == expected
                if x is not None:
                    assert [sum(v * x[c] for c, v in row.items()) for row in rows] == b
                if b is euler:
                    euler_verdicts.append(expected)
    # one sweep in filtration order decides every stage the same way
    assert sign_solvable_prefixes(edges) == sign_verdicts
    rows = [all_rows[at[t]] for t in tris]
    assert solvable_prefixes(rows, [int(result.euler[at[t]]) for t in tris]) == euler_verdicts


def reference_potential(verts, signs):
    """The vertex signs from the dense GF(2) solve on ascending vertex columns."""
    col = {j: i for i, j in enumerate(verts)}
    A = np.zeros((len(signs), len(verts)), dtype=np.uint8)
    b = np.zeros(len(signs), dtype=np.uint8)
    for i, ((j, k), s) in enumerate(signs.items()):
        A[i, col[j]] = A[i, col[k]] = 1
        b[i] = s < 0
    x = solve_gf2(A, b)
    return None if x is None else {j: -1 if x[col[j]] else 1 for j in verts}


class TestSignPotential:
    def test_empty(self):
        assert sign_potential({}) == {}
        assert sign_potential({}, [3, 1]) == {3: 1, 1: 1}

    def test_odd_cycle(self):
        assert sign_potential({(0, 1): -1, (1, 2): 1, (0, 2): 1}) is None

    def test_root_is_the_largest_vertex(self):
        phi = sign_potential({(0, 1): -1, (1, 2): -1}, [5])
        assert phi == {0: 1, 1: -1, 2: 1, 5: 1}

    def test_matches_dense_gf2_on_random_graphs(self):
        rng = np.random.default_rng(79)
        verdicts = set()
        for _ in range(200):
            n = int(rng.integers(1, 12))
            verts = sorted(int(v) for v in rng.choice(40, size=n, replace=False))
            pairs = [(j, k) for a, j in enumerate(verts) for k in verts[a + 1:]]
            keep = rng.uniform(size=len(pairs)) < rng.uniform(0.05, 0.5)
            edges = [e for e, kept in zip(pairs, keep) if kept]
            # several components and isolated vertices; signs from a planted
            # potential stay solvable, flipped edges usually do not
            planted = {j: int(rng.choice([1, -1])) for j in verts}
            signs = {(j, k): planted[j] * planted[k] for (j, k) in edges}
            for e in edges:
                if rng.uniform() < 0.1:
                    signs[e] = -signs[e]
            phi = sign_potential(signs, verts)
            assert phi == reference_potential(verts, signs)
            prefixes = [dict(list(signs.items())[:n]) for n in range(len(signs) + 1)]
            assert sign_solvable_prefixes(signs) == [
                sign_potential(p) is not None for p in prefixes]
            if phi is not None:
                assert all(phi[j] * phi[k] == s for (j, k), s in signs.items())
            verdicts.add(phi is None)
        assert verdicts == {True, False}
