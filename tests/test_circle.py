import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import (
    enclosing_arcs,
    enclosing_width,
    karcher_mean,
    o2_matrices,
    principal_turn,
    s1_angle,
    s1_point,
    turn_chord,
)
from circlet.errors import DiameterTooLarge

from oracles import O2, gap_scan_arc, grid_karcher

turns = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
signs = st.sampled_from([1, -1])
o2s = st.builds(O2, turn=turns, sign=signs)
IDENTITY = O2(0.0, 1)


def mat(a: O2) -> np.ndarray:
    """The package's matrix form of a reference isometry."""
    return o2_matrices(a.turn, a.sign)


def frobenius(a: O2, b: O2) -> float:
    return float(np.linalg.norm(mat(a) - mat(b)))


def arc_of(angles):
    """The one-segment ``enclosing_arcs`` as plain floats: midpoint, width, max gap, ties."""
    arc = enclosing_arcs(angles, [0, len(angles)])
    return float(arc.midpoint[0]), float(arc.width[0]), float(arc.max_gap[0]), int(arc.ties[0])


class TestCompose:
    """Turns add through the first sign and signs multiply: the rule the witness arrays follow."""

    def test_rotations_add(self):
        c = O2(0.25) @ O2(0.25)
        assert (c.turn, c.sign) == (0.5, 1)
        assert np.allclose(mat(O2(0.25)) @ mat(O2(0.25)), mat(c), atol=1e-12)

    def test_reflection_then_rotation(self):
        c = O2(0.25, -1) @ O2(0.10, 1)
        assert c.sign == -1
        assert c.turn == pytest.approx(0.15)
        assert np.allclose(mat(O2(0.25, -1)) @ mat(O2(0.10, 1)), mat(c), atol=1e-12)

    def test_two_reflections_make_a_rotation(self):
        c = O2(0.20, -1) @ O2(0.30, -1)
        assert c.sign == 1
        assert c.turn == pytest.approx(0.90)
        assert np.allclose(mat(O2(0.20, -1)) @ mat(O2(0.30, -1)), mat(c), atol=1e-12)

    @given(o2s, o2s)
    def test_matches_matrix_product(self, a, b):
        assert np.allclose(mat(a @ b), mat(a) @ mat(b), atol=1e-12)

    @given(o2s, o2s, o2s)
    def test_associative(self, a, b, c):
        assert np.allclose(mat((a @ b) @ c), mat(a @ (b @ c)), atol=1e-10)

    @given(o2s)
    def test_identity_and_inverse(self, a):
        assert np.array_equal(mat(IDENTITY), np.eye(2))
        # a rotation's inverse negates its turn and a reflection is its own inverse
        back = O2(float(np.where(a.sign == 1, -a.turn % 1.0, a.turn)), a.sign)
        assert np.allclose(mat(a) @ mat(back), np.eye(2), atol=1e-12)
        assert np.allclose(mat(back) @ mat(a), np.eye(2), atol=1e-12)

    @given(turns, turns)
    def test_reflection_conjugates_rotation_to_inverse(self, t, r):
        refl = mat(O2(r, -1))
        assert np.allclose(refl @ mat(O2(t, 1)) @ refl, mat(O2(-t, 1)), atol=1e-12)

    def test_batched(self):
        t = np.array([[0.1, 0.6], [0.35, 0.0]])
        sg = np.array([[1, -1], [-1, 1]])
        m = o2_matrices(t, sg)
        assert m.shape == (2, 2, 2, 2)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(m[i, j], o2_matrices(t[i, j], sg[i, j]))


class TestApply:
    """An isometry moves the angle t to turn + sign * t."""

    def test_identity(self):
        assert np.allclose(mat(IDENTITY) @ [1.0, 0.0], [1.0, 0.0])

    def test_quarter_turn(self):
        assert np.allclose(mat(O2(0.25)) @ [1.0, 0.0], [0.0, 1.0], atol=1e-12)

    def test_conjugation(self):
        assert np.allclose(mat(O2(0.0, -1)) @ [0.0, 1.0], [0.0, -1.0], atol=1e-12)

    @given(o2s, turns)
    def test_matches_matrix_vector_product(self, a, t):
        assert np.allclose(mat(a) @ s1_point(t), s1_point(a.turn + a.sign * t), atol=1e-12)


class TestLog:
    """``principal_turn``, the principal logarithm of a rotation in turns."""

    def test_identity_is_zero(self):
        assert principal_turn(0.0) == 0.0

    def test_quarter(self):
        assert principal_turn(0.25) == pytest.approx(0.25)

    def test_principal_branch(self):
        assert principal_turn(0.75) == pytest.approx(-0.25)
        assert principal_turn(np.array([0.25, 0.75, -0.5])).tolist() == [0.25, -0.25, 0.5]

    @given(st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, exclude_min=True))
    def test_roundtrip(self, t):
        # near the branch point the roundtrip may land on the other lift,
        # so compare modulo a full turn
        gap = abs(principal_turn(t % 1.0) - t) % 1.0
        assert min(gap, 1.0 - gap) < 1e-12

    def test_branch_endpoint(self):
        assert principal_turn(0.5) == 0.5
        assert principal_turn(-0.5) == 0.5


class TestDistance:
    """``turn_chord``, the chord between angles a turn difference apart."""

    def test_coincident(self):
        assert turn_chord(0.3 - 0.3) == 0.0

    def test_antipodal(self):
        assert turn_chord(0.5) == pytest.approx(2.0)
        assert np.linalg.norm(s1_point(0.0) - s1_point(0.5)) == pytest.approx(2.0)

    def test_quarter_apart(self):
        assert turn_chord(0.1 - 0.35) == pytest.approx(math.sqrt(2.0))

    @given(turns, turns)
    def test_chord_geodesic_relation(self, s, t):
        chord = np.linalg.norm(s1_point(s) - s1_point(t))
        assert turn_chord(s - t) == pytest.approx(chord, abs=1e-12)


class TestFrobenius:
    """The closed form of the Frobenius gap that ``cocycle_defect`` uses where signs agree."""

    def test_coincident(self):
        a = O2(0.37, -1)
        assert frobenius(a, a) == 0.0

    def test_half_turn_apart(self):
        assert frobenius(O2(0.1), O2(0.6)) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_identity_vs_pure_reflection(self):
        assert frobenius(IDENTITY, O2(0.0, -1)) == pytest.approx(2.0)

    @given(o2s, o2s)
    def test_matches_matrix_norm(self, a, b):
        if a.sign == b.sign:
            closed = math.sqrt(8.0) * abs(math.sin(math.pi * (a.turn - b.turn)))
            assert frobenius(a, b) == pytest.approx(closed, abs=1e-12)

    @given(o2s, o2s)
    def test_opposite_signs_at_least_two(self, a, b):
        if a.sign != b.sign:
            assert frobenius(a, b) >= 2.0 - 1e-12


class TestEnclosingArc:
    def test_single_angle(self):
        mid, width, gap, ties = arc_of([0.3])
        assert (mid, width, gap, ties) == (0.3, 0.0, 1.0, 1)

    def test_wraparound_cluster(self):
        # frozen from the exhaustive gap-scan oracle
        mid, width, gap, _ = arc_of([0.1, 0.2, 0.9])
        assert mid == pytest.approx(0.05)
        assert width == pytest.approx(0.3)
        assert gap == pytest.approx(0.7)

    def test_four_equal_gaps_tie(self):
        assert arc_of([0.0, 0.25, 0.5, 0.75])[3] == 4

    def test_width_is_one_minus_gap(self):
        _, width, gap, _ = arc_of([0.05, 0.3, 0.32])
        assert width == pytest.approx(1.0 - gap)

    @given(st.lists(turns, min_size=2, max_size=12, unique=True))
    @settings(max_examples=200)
    def test_matches_gap_scan_oracle(self, angles):
        mid, width, _, ties = arc_of(angles)
        if ties > 1:
            return
        want_mid, want_width = gap_scan_arc(angles)
        assert width == pytest.approx(want_width, abs=1e-12)
        assert principal_turn(mid - want_mid) == pytest.approx(0.0, abs=1e-9)

    @given(st.lists(turns, min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_contains_every_angle(self, angles):
        mid, width, _, ties = arc_of(angles)
        if ties > 1:
            return
        for t in angles:
            assert abs(principal_turn(t - mid)) <= width / 2.0 + 1e-12


class TestKarcherMean:
    def test_single_point(self):
        p = s1_point(0.81)
        assert np.allclose(karcher_mean(p[None, :], [1.0]), p)

    def test_midpoint_of_two(self):
        pts = s1_point(np.array([0.1, 0.3]))
        m = karcher_mean(pts, [0.5, 0.5])
        assert s1_angle(m) == pytest.approx(0.2)

    def test_wraparound_weighted(self):
        # frozen from the 1e-5 grid oracle: 0.005 turns
        pts = s1_point(np.array([0.0, 0.05, 0.95]))
        m = karcher_mean(pts, [0.5, 0.3, 0.2])
        assert principal_turn(s1_angle(m) - 0.005) == pytest.approx(0.0, abs=1e-12)

    def test_spread_rejected(self):
        pts = s1_point(np.array([0.0, 0.3, 0.6]))
        with pytest.raises(DiameterTooLarge):
            karcher_mean(pts, [1 / 3, 1 / 3, 1 / 3])

    def test_zero_weight_point_ignored_by_guard(self):
        # the far point carries no weight, so it does not trip the guard
        pts = s1_point(np.array([0.0, 0.1, 0.5]))
        m = karcher_mean(pts, [0.5, 0.5, 0.0])
        assert s1_angle(m) == pytest.approx(0.05)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            center = rng.uniform(0.0, 1.0)
            ang = (center + rng.uniform(-0.2, 0.2, size=n)) % 1.0
            w = rng.uniform(0.05, 1.0, size=n)
            w = w / w.sum()
            m = s1_angle(karcher_mean(s1_point(ang), w))
            t = grid_karcher(ang, w)
            assert abs(principal_turn(m - t)) < 1e-5 + 1e-9

    def test_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            ang = (0.4 + rng.uniform(-0.2, 0.2, size=n)) % 1.0
            w = rng.dirichlet(np.ones(n))
            g = o2_matrices(rng.uniform(), int(rng.choice([1, -1])))
            direct = karcher_mean(s1_point(ang) @ g.T, w)
            mapped = g @ karcher_mean(s1_point(ang), w)
            assert np.allclose(direct, mapped, atol=1e-10)


class TestEnclosingWidth:
    @given(st.lists(turns, min_size=2, max_size=10, unique=True))
    @settings(max_examples=100)
    def test_agrees_with_arc(self, angles):
        _, width, _, ties = arc_of(angles)
        if ties > 1:
            _, width = gap_scan_arc(angles)
        assert enclosing_width(angles) == pytest.approx(width, abs=1e-12)
