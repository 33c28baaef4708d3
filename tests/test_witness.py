"""Minimax Procrustes witnesses and quality reports."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import s1_angle
from circlet.cochains import cocycle_defect
from circlet.errors import DiameterTooLarge, TooFewSamples
from circlet.doublecover import carry_charts
from circlet.nerve import Cover, build_nerve
from circlet.witness import (
    assemble_witness,
    coverage_gap,
    procrustes_o2,
    triv_quality,
)

from oracles import O2, chart, charts_of, grid_procrustes, o2_values, tuples


def fit(alpha, beta):
    """One minimax fit of two angle lists, as ``(turn, sign, error)``."""
    turns, signs, errs = procrustes_o2(alpha, beta, [0, len(alpha)])
    return turns[0], signs[0], errs[0]


class TestProcrustes:
    def test_identical_gives_identity(self):
        f = np.array([0.1, 0.3, 0.7])
        turns, signs, errs = procrustes_o2(f, f, [0, 3])
        assert (turns.dtype, signs.dtype.kind, errs.dtype) == (float, "i", float)
        assert signs.tolist() == [1]
        assert turns[0] == pytest.approx(0.0, abs=1e-12)
        assert errs[0] == pytest.approx(0.0, abs=1e-12)

    def test_pure_conjugation(self):
        alpha = np.array([0.05, 0.2, 0.4])
        turn, sign, err = fit(alpha, -alpha)
        assert sign == -1
        assert turn == pytest.approx(0.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_frozen_rotation_instance(self):
        # frozen derived value: constant offset 0.13 recovered exactly
        alpha = np.array([0.0, 0.10, 0.25, 0.40, 0.77])
        turn, sign, err = fit(alpha, alpha - 0.13)
        assert sign == 1
        assert turn == pytest.approx(0.13, abs=1e-9)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit([0.1], [0.2])
        with pytest.raises(TooFewSamples):
            fit([], [])

    def test_diameter_guard(self):
        # beta constant: both residual sets equal alpha, evenly spread
        alpha = np.array([0.0, 0.25, 0.5, 0.75])
        beta = np.zeros(4)
        with pytest.raises(DiameterTooLarge):
            fit(alpha, beta)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            alpha = rng.random(n)
            if rng.random() < 0.5:
                true = O2(float(rng.random()), 1)
            else:
                true = O2(float(rng.random()), -1)
            # beta = true^{-1} applied to alpha, plus small noise
            if true.sign == 1:
                beta = (alpha - true.turn) % 1.0
            else:
                beta = (true.turn - alpha) % 1.0
            beta = (beta + rng.normal(0.0, 0.01, n)) % 1.0
            turn, sign, err = fit(alpha, beta)
            g_turn, g_sign, g_err = grid_procrustes(alpha, beta)
            assert err <= g_err + 1e-4
            assert sign == g_sign

    def test_minimax_beats_all_rotations(self):
        rng = np.random.default_rng(77)
        alpha = rng.random(6) * 0.3
        beta = (alpha - 0.2 + rng.normal(0, 0.02, 6)) % 1.0
        turn, sign, err = fit(alpha, beta)
        from circlet.circle import turn_chord

        for t in np.linspace(0, 1, 400, endpoint=False):
            trial = float(np.max(turn_chord(alpha - (t + beta))))
            assert err <= trial + 1e-12


GAUGES = {0: O2(0.0, 1), 1: O2(0.8, 1), 2: O2(0.45, -1)}


def expected_transition(j, k):
    return GAUGES[j] @ GAUGES[k].inverse()


def three_set_nerve_and_charts(n_shared=5, seed=0):
    """Gauged charts of one circle coordinate over a 3-set cover.

    Every chart is a fixed isometry applied to the sample's true angle,
    so the pairwise transitions are exactly the gauge quotients and form
    a cocycle; the cover has pairwise regions plus a triple region.
    """
    rng = np.random.default_rng(seed)
    regions = {
        (0, 1): list(range(0, n_shared)),
        (0, 2): list(range(1000, 1000 + n_shared)),
        (1, 2): list(range(2000, 2000 + n_shared)),
        (0, 1, 2): list(range(3000, 3000 + n_shared)),
    }
    members = {j: set() for j in range(3)}
    for region, ids in regions.items():
        for j in region:
            members[j].update(ids)
    all_ids = sorted(set().union(*regions.values()))
    theta = {s: float(rng.random()) for s in all_ids}
    tables = {
        j: {
            s: (g.turn + g.sign * theta[s]) % 1.0
            for s in members[j]
        }
        for j, g in GAUGES.items()
    }
    nerve = build_nerve(Cover.of(members))
    return nerve, charts_of(tables)


def turn_table(trivs, j):
    """Chart ``j`` as {sample id: angle in turns}, in sample-id order."""
    c = chart(trivs, j)
    return dict(zip(c.ids.tolist(), c.turns.tolist()))


class TestAssembleWitness:
    def test_recovers_exact_transitions(self):
        nerve, trivs = three_set_nerve_and_charts()
        witness = o2_values(assemble_witness(trivs, nerve))
        assert witness[(0, 1)].turn == pytest.approx(0.2, abs=1e-9)
        for (j, k) in tuples(nerve.edges):
            want = expected_transition(j, k)
            got = witness[(j, k)]
            assert got.sign == want.sign
            gap = abs(got.turn - want.turn) % 1.0
            assert min(gap, 1.0 - gap) < 1e-9

    def test_single_edge_nerve(self):
        nerve = build_nerve(Cover.of({0: {0, 1, 2}, 1: {1, 2, 3}}))
        trivs = charts_of(
            {0: {0: 0.1, 1: 0.2, 2: 0.3}, 1: {1: 0.1, 2: 0.2, 3: 0.5}}
        )
        witness = assemble_witness(trivs, nerve)
        assert witness.nerve is nerve
        assert witness.turn.dtype == np.float64 and witness.sign.dtype == np.int64
        om = o2_values(witness)[(0, 1)]
        assert om.sign == 1
        assert om.turn == pytest.approx(0.1, abs=1e-9)

    def test_edge_error_carries_edge_identity(self):
        nerve = build_nerve(Cover.of({0: {0, 1}, 1: {1, 2}}))
        trivs = charts_of({0: {0: 0.1, 1: 0.2}, 1: {1: 0.4, 2: 0.5}})
        with pytest.raises(TooFewSamples, match=r"\(0, 1\)"):
            assemble_witness(trivs, nerve)

    def test_equivariance_under_global_rotation(self):
        nerve, trivs = three_set_nerve_and_charts(seed=3)
        witness = assemble_witness(trivs, nerve)
        c = 0.17
        rotated = charts_of(
            {
                j: {s: (t + c) % 1.0 for s, t in turn_table(trivs, j).items()}
                for j in trivs.set_ids.tolist()
            }
        )
        witness_rot = o2_values(assemble_witness(rotated, nerve))
        # the gauge action of the constant rotation c, in the reference algebra
        expected = {e: O2(c) @ om @ O2(c).inverse() for e, om in o2_values(witness).items()}
        for e in tuples(nerve.edges):
            got, want = witness_rot[e], expected[e]
            assert got.sign == want.sign
            gap = abs(got.turn - want.turn) % 1.0
            assert min(gap, 1.0 - gap) < 1e-9

    def test_defect_bounded_by_alpha(self):
        rng = np.random.default_rng(8)
        nerve, trivs = three_set_nerve_and_charts(n_shared=40, seed=5)
        assert tuples(nerve.triangles) == [(0, 1, 2)]
        noisy = charts_of(
            {
                j: {
                    s: (t + rng.normal(0.0, 0.005)) % 1.0
                    for s, t in turn_table(trivs, j).items()
                }
                for j in trivs.set_ids.tolist()
            }
        )
        witness = assemble_witness(noisy, nerve)
        report = triv_quality(noisy, witness, nerve)
        assert cocycle_defect(witness) <= 3 * np.sqrt(2) * report.alpha + 1e-9


class TestCoverageGap:
    def test_half_circle_gap(self):
        # image occupying half the circle: g = pi, gap = 2 sin(pi/4)
        turns = np.linspace(0.0, 0.5, 50)
        assert coverage_gap(turns, [0, 50]) == pytest.approx(np.sqrt(2.0), abs=1e-2)

    def test_dense_circle_small(self):
        turns = np.linspace(0.0, 1.0, 200, endpoint=False)
        assert coverage_gap(turns, [0, 200]) < 0.02

    def test_empty_and_single(self):
        assert coverage_gap(np.array([]), [0, 0]) == 2.0
        assert coverage_gap(np.array([0.3]), [0, 1]) == pytest.approx(2.0)
        assert coverage_gap(np.array([]), [0]) == 0.0


class TestTrivQuality:
    def test_perfect_data(self):
        nerve, trivs = three_set_nerve_and_charts(n_shared=200, seed=9)
        witness = assemble_witness(trivs, nerve)
        report = triv_quality(trivs, witness, nerve)
        assert report.epsilon == pytest.approx(0.0, abs=1e-9)
        assert report.cocycle_epsilon == pytest.approx(0.0, abs=1e-9)
        assert report.alpha == pytest.approx(0.0, abs=1e-9)
        assert report.delta < 0.2
        assert report.delta == max(report.delta_pairwise, report.delta_triple)
        assert len(report.edges) == 3
        for row in report.edges:
            assert row.max_err == pytest.approx(0.0, abs=1e-9)

    def test_noise_band(self):
        sigma = 0.01
        rng = np.random.default_rng(21)
        nerve, trivs = three_set_nerve_and_charts(n_shared=150, seed=13)
        noisy = charts_of(
            {
                j: {
                    s: (t + rng.normal(0.0, sigma)) % 1.0
                    for s, t in turn_table(trivs, j).items()
                }
                for j in trivs.set_ids.tolist()
            }
        )
        witness = assemble_witness(noisy, nerve)
        report = triv_quality(noisy, witness, nerve)
        # chord scale of the injected angular noise
        scale = 2 * np.pi * sigma
        assert scale <= report.epsilon <= 8 * scale


class TestFromTurns:
    def test_huge_finite_turn_is_reduced_before_the_multiply(self):
        huge = {0: {0: 1e308, 1: -1e308, 2: 0.25}}
        reduced = {0: {s: t % 1.0 for s, t in huge[0].items()}}
        big, small = charts_of(huge), charts_of(reduced)
        assert np.isfinite(chart(big, 0).points).all()
        assert np.array_equal(chart(big, 0).points, chart(small, 0).points)
        assert np.array_equal(chart(big, 0).turns, chart(small, 0).turns)


# chart domains over a dozen sample ids: disjoint, single-sample and
# triple overlaps all turn up
domains_st = st.dictionaries(
    st.integers(0, 5), st.sets(st.integers(0, 11), max_size=8), min_size=1, max_size=5
)


def random_charts(domains, seed=0):
    rng = np.random.default_rng(seed)
    return charts_of(
        {j: {s: float(rng.random()) for s in ids} for j, ids in domains.items()}
    )


def vector_dicts(trivs):
    """The charts as {set id: {sample id: 2-vector}}, the reference layout."""
    return {
        j: dict(zip(chart(trivs, j).ids.tolist(), chart(trivs, j).points))
        for j in trivs.set_ids.tolist()
    }


def assert_charts_equal(trivs, reference):
    assert trivs.set_ids.tolist() == sorted(reference)
    for j, table in reference.items():
        c = chart(trivs, j)
        assert c.ids.tolist() == sorted(table)
        assert np.array_equal(c.points.reshape(-1, 2),
                              np.array([table[s] for s in sorted(table)]).reshape(-1, 2))
        assert np.array_equal(c.turns, s1_angle(c.points))


class TestOverlap:
    @settings(max_examples=200, deadline=None)
    @given(domains=domains_st, data=st.data())
    def test_matches_set_intersection(self, domains, data):
        trivs = random_charts(domains)
        sets = data.draw(
            st.lists(st.sampled_from(sorted(domains)), min_size=1, max_size=3, unique=True)
        )
        ov = trivs.overlaps([tuple(sets)])
        expected = sorted(set.intersection(*(set(domains[j]) for j in sets)))
        assert ov.indptr.tolist() == [0, len(expected)]
        assert ov.ids.tolist() == expected
        assert len(ov.turns) == len(sets)
        tables = vector_dicts(trivs)
        for j, turns in zip(sets, ov.turns):
            for s, t in zip(expected, turns):
                assert t == s1_angle(tables[j][s])


class TestRestrict:
    @settings(max_examples=200, deadline=None)
    @given(domains=domains_st, data=st.data())
    def test_stage_cut_matches_dict_comprehension(self, domains, data):
        trivs = random_charts(domains, seed=1)
        members = {j: data.draw(st.sets(st.sampled_from(sorted(ids)))) if ids else set()
                   for j, ids in domains.items()}
        charts = vector_dicts(trivs)
        reference = {j: {s: charts[j][s] for s in m} for j, m in members.items()}
        cut = trivs.restrict(Cover.of(members))
        assert_charts_equal(cut, reference)

    @settings(max_examples=200, deadline=None)
    @given(
        domains=domains_st,
        split=st.dictionaries(
            st.tuples(st.integers(0, 7), st.integers(0, 1)),
            st.sets(st.integers(0, 13), max_size=8),
            max_size=6,
        ),
    )
    def test_carry_charts_matches_dict_comprehension(self, domains, split):
        # cluster c of parent j is set 2j + c; parents 6 and 7 never have a
        # chart, and members may leave the parent
        trivs = random_charts(domains, seed=2)
        result = SimpleNamespace(cover=Cover.of({2 * j + c: m for (j, c), m in split.items()}))
        charts = vector_dicts(trivs)
        reference = {}
        for (j, c), members in split.items():
            parent = charts.get(j)
            if parent is None:
                continue
            reference[2 * j + c] = {s: parent[s] for s in members if s in parent}
        assert_charts_equal(carry_charts(trivs, result), reference)
