"""Tests for the synthetic bundle generators.

Expected values marked as frozen were produced by the oracles in this
file's history: the noise calibration band is the min/max of the witness
epsilon over 50 seeds at sigma = 0.05 (padded ten percent), and the
four-ball nerve shape was read off a direct run.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from circlet import synthetic
from circlet.classes import (
    euler_cochain,
    euler_number,
    fundamental_class_twisted,
)
from circlet.cochains import cocycle_defect
from circlet.doublecover import (
    connectivity_cocycle,
    unwrap_double_cover,
)
from circlet.errors import LiftUndefined, NotACover, SectionUndefined
from circlet.intlinalg import solve_gf2
from circlet.nerve import BundleDataset, build_nerve
from circlet.synthetic import (
    E1,
    fibonacci_sphere,
    gen_disconnected_fiber,
    gen_lens_bundle,
    gen_rp2_bundle,
    gen_s1_bundle,
    make_cover,
    quat_rotate,
)
from circlet.witness import assemble_witness, triv_quality
from oracles import (
    chart,
    charts_of,
    clusters_of,
    cover_sets,
    bfs_unwrap,
    loop_generator_charts,
    loop_set_charts,
    loop_trim_flat,
    loop_trim_labels,
    o2_values,
    oracle_quaternions,
    oracle_split_quaternions,
    tuples,
)

TAU = 2.0 * math.pi

# frozen by the 50-seed calibration oracle at sigma = 0.05
NOISE_BAND = (0.1538, 0.2644)


def circle_dataset(n=600):
    a = TAU * np.arange(n) / n
    base = np.stack([np.cos(a), np.sin(a)], axis=1)
    return BundleDataset(ids=tuple(range(n)), base=base, kind="circle")


def sphere_dataset(n=2000, seed=5):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return BundleDataset(ids=tuple(range(n)), base=v, kind="sphere")


def shared(trivs, j, k):
    """Shared sample ids of charts ``j`` and ``k`` with both charts' angles."""
    ov = trivs.overlaps([(j, k)])
    return ov.ids, ov.turns[0], ov.turns[1]


def sign_coboundary(nerve, cochain) -> bool:
    verts = [v[0] for v in tuples(nerve.simplices[0])]
    col = {v: i for i, v in enumerate(verts)}
    rows, rhs = [], []
    for (j, k), val in zip(tuples(nerve.edges), cochain.tolist()):
        row = [0] * len(verts)
        row[col[j]] = 1
        row[col[k]] = 1
        rows.append(row)
        rhs.append(0 if val == 1 else 1)
    return solve_gf2(rows, rhs) is not None


def run_classes(dataset, cover, trivs):
    nerve = build_nerve(cover)
    wit = assemble_witness(trivs, nerve)
    res = euler_cochain(wit)
    mu = fundamental_class_twisted(nerve, res.sw)
    return nerve, wit, res, euler_number(res.euler, mu)


@pytest.fixture(scope="module")
def torus():
    return gen_s1_bundle(True, seed=0)


@pytest.fixture(scope="module")
def klein():
    return gen_s1_bundle(False, seed=0)


@pytest.fixture(scope="module")
def lens1():
    bundle = gen_lens_bundle(1, n_samples=2000, n_sets=34, seed=1)
    return bundle, run_classes(*bundle)


@pytest.fixture(scope="module")
def rp21():
    bundle = gen_rp2_bundle(1, n_samples=8000, n_sets=48, seed=3)
    return bundle, run_classes(*bundle)


def on_cover(bundle):
    """The bundle's charts on its cover's geometry, as the CLI loads them."""
    c = bundle.cover
    return replace(bundle.trivs, center=c.center, radius=c.radius, clipped=c.clipped)


@pytest.fixture(scope="module")
def disconnected1():
    return gen_disconnected_fiber(1, n_samples=8000, n_sets=36, seed=2)


class TestMakeCover:
    def test_circle_ring_nerve(self):
        cover = make_cover(circle_dataset(), 12, math.pi / 8)
        nerve = build_nerve(cover)
        assert len(nerve.simplices[0]) == 12
        assert len(nerve.edges) == 12
        assert len(nerve.triangles) == 0

    def test_radius_below_covering_raises(self):
        with pytest.raises(NotACover):
            make_cover(circle_dataset(), 12, math.pi / 30)

    def test_empty_arc_is_named(self):
        # 30 samples over 12 arcs leave arc 4 empty; a cover with an empty
        # set would be refused by every command that reads it
        with pytest.raises(NotACover) as exc:
            gen_s1_bundle(orientable=True, n_samples=30, n_arcs=12, seed=0)
        assert str(exc.value) == ("cover set 4 holds no sample; 30 samples over 12 sets "
                                  "leave it empty, try fewer --sets")

    def test_empty_ball_is_named_before_trimming(self):
        # the first ball without a sample, found by the metric definition
        base = quat_rotate(oracle_quaternions(10, 0), E1)
        dist = np.arccos(np.clip(base @ fibonacci_sphere(50).T, -1.0, 1.0))
        held = (dist < 1.3 * dist.min(axis=1).max()).any(axis=0)
        j = int(np.argmin(held))
        assert not held[j]
        with pytest.raises(NotACover) as exc:
            gen_lens_bundle(1, n_samples=10, n_sets=50, seed=0)
        assert str(exc.value) == (f"cover set {j} holds no sample; 10 samples over 50 sets "
                                  "leave it empty, try fewer --sets")

    def test_four_giant_balls_tetrahedral(self):
        cover = make_cover(sphere_dataset(), 4)
        nerve = build_nerve(cover)
        sizes = [len(nerve.simplices.get(d, [])) for d in range(4)]
        assert sizes == [4, 6, 4, 0]

    def test_projective_centers_upper_half(self):
        q = gen_rp2_bundle(1, n_samples=2000, n_sets=20, seed=0)
        centers = np.array([cs.center for cs in cover_sets(q.cover)])
        lattice = fibonacci_sphere(40)[:20]
        np.testing.assert_allclose(centers, lattice, atol=1e-12)
        assert np.all(centers[:, 2] > 0)

    def test_membership_is_metric_ball(self):
        ds = sphere_dataset(1500, seed=9)
        cover = make_cover(ds, 16)
        for cs in cover_sets(cover):
            dots = np.clip(ds.base @ cs.center, -1.0, 1.0)
            inside = np.arccos(dots) < cs.radius
            assert cs.members == frozenset(np.nonzero(inside)[0].tolist())

    def test_every_sample_covered_after_trim(self, lens1):
        bundle, _ = lens1
        union = set()
        for cs in cover_sets(bundle.cover):
            union |= set(cs.members)
        assert union == set(bundle.dataset.ids)

    def test_trimmed_overlaps_not_thin(self, lens1):
        bundle, _ = lens1
        members = [set(cs.members) for cs in cover_sets(bundle.cover)]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert len(a & b) == 0 or len(a & b) >= 6


class TestDeterminism:
    def test_s1_bit_identical(self):
        a = gen_s1_bundle(True, noise=0.02, seed=11)
        b = gen_s1_bundle(True, noise=0.02, seed=11)
        assert a.trivs.set_ids.tolist() == b.trivs.set_ids.tolist()
        for j in a.trivs.set_ids.tolist():
            for x, y in zip(chart(a.trivs, j), chart(b.trivs, j)):
                assert np.array_equal(x, y)

    def test_s1_seed_sensitivity(self):
        a = gen_s1_bundle(True, seed=11)
        b = gen_s1_bundle(True, seed=12)
        assert not np.array_equal(a.dataset.base, b.dataset.base)

    def test_lens_bit_identical(self):
        a = gen_lens_bundle(2, n_samples=500, n_sets=12, seed=4)
        b = gen_lens_bundle(2, n_samples=500, n_sets=12, seed=4)
        assert np.array_equal(a.dataset.base, b.dataset.base)
        for j in a.trivs.set_ids.tolist():
            for x, y in zip(chart(a.trivs, j), chart(b.trivs, j)):
                assert np.array_equal(x, y)


class TestTorus:
    def test_witness_is_exact_cocycle(self, torus):
        dataset, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        assert cocycle_defect(wit) <= 1e-9
        q = triv_quality(trivs, wit, nerve)
        assert q.epsilon <= 1e-9

    def test_transitions_constant_rotations(self, torus):
        dataset, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        for (j, k), om in o2_values(wit).items():
            assert om.sign == 1
            ids, aj, ak = shared(trivs, j, k)
            diffs = (aj - ak) % 1.0
            spread = diffs.max() - diffs.min()
            assert min(spread, 1.0 - spread) <= 1e-9
            gap = (diffs[0] - om.turn) % 1.0
            assert min(gap, 1.0 - gap) <= 1e-9

    def test_sw_is_coboundary(self, torus):
        dataset, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        res = euler_cochain(wit)
        assert sign_coboundary(nerve, res.sw)

    def test_scenario_record(self, torus):
        s = torus.scenario
        assert s.model == "s1-torus"
        assert s.sw_trivial is True
        assert s.euler_number == 0
        assert s.cover_sets == 12


class TestKlein:
    def test_witness_is_exact_cocycle(self, klein):
        dataset, cover, trivs = klein
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        assert cocycle_defect(wit) <= 1e-9

    def test_orientation_class_nontrivial(self, klein):
        dataset, cover, trivs = klein
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        res = euler_cochain(wit)
        assert not sign_coboundary(nerve, res.sw)
        flips = sum(1 for om in o2_values(wit).values() if om.sign == -1)
        assert flips % 2 == 1

    def test_loop_holonomy_reverses(self, klein):
        dataset, cover, trivs = klein
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        par = 1
        n_arcs = klein.scenario.cover_sets
        for j in range(n_arcs):
            k = (j + 1) % n_arcs
            par *= o2_values(wit)[(min(j, k), max(j, k))].sign
        assert par == -1

    def test_seam_edges_are_reflections(self, klein):
        dataset, cover, trivs = klein
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        for (j, k), om in o2_values(wit).items():
            ids, aj, ak = shared(trivs, j, k)
            if om.sign == 1:
                resid = (aj - ak) % 1.0
            else:
                resid = (aj + ak) % 1.0
            spread = resid.max() - resid.min()
            assert min(spread, 1.0 - spread) <= 1e-9


class TestNoiseCalibration:
    @pytest.mark.parametrize("seed", [0, 7, 23, 41])
    def test_epsilon_in_frozen_band(self, seed):
        dataset, cover, trivs = gen_s1_bundle(True, noise=0.05, seed=seed)
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        q = triv_quality(trivs, wit, nerve)
        assert NOISE_BAND[0] <= q.epsilon <= NOISE_BAND[1]

    def test_noise_is_reproducible(self):
        a = gen_s1_bundle(True, noise=0.05, seed=3)
        b = gen_s1_bundle(True, noise=0.05, seed=3)
        j = a.trivs.set_ids.tolist()[0]
        assert np.array_equal(chart(a.trivs, j).points[0], chart(b.trivs, j).points[0])

    def test_noise_changes_angles(self):
        a = gen_s1_bundle(True, noise=0.0, seed=3)
        b = gen_s1_bundle(True, noise=0.05, seed=3)
        j = a.trivs.set_ids.tolist()[0]
        assert not np.array_equal(chart(a.trivs, j).points[0], chart(b.trivs, j).points[0])


class TestLensBundle:
    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            gen_lens_bundle(0, n_samples=200, n_sets=8)

    def test_rejects_hemisphere_radius(self):
        with pytest.raises(SectionUndefined):
            gen_lens_bundle(1, n_samples=2000, n_sets=8, radius=math.pi / 2)

    def test_hopf_euler_magnitude(self, lens1):
        bundle, (nerve, wit, res, eu) = lens1
        assert abs(eu) == 1
        assert res.bracket_margin > 0.3
        assert all(om.sign == 1 for om in o2_values(wit).values())
        assert cocycle_defect(wit) < 0.5

    def test_euler_scaling_p2(self):
        bundle = gen_lens_bundle(2, n_samples=6000, n_sets=48, seed=1)
        _, _, _, eu = run_classes(*bundle)
        assert abs(eu) == 2

    def test_scenario_record(self, lens1):
        bundle, _ = lens1
        s = bundle.scenario
        assert s.model == "lens(1)"
        assert s.sw_trivial is True
        assert s.euler_number == 1


class TestRp2Bundle:
    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            gen_rp2_bundle(0, n_samples=200, n_sets=8)

    def test_rejects_wide_radius(self):
        with pytest.raises(LiftUndefined):
            gen_rp2_bundle(1, n_samples=2000, n_sets=8, radius=math.pi / 4)

    def test_determinant_pattern_from_centers(self, rp21):
        bundle, (nerve, wit, res, eu) = rp21
        centers = {cs.id: cs.center for cs in cover_sets(bundle.cover)}
        for (j, k), om in o2_values(wit).items():
            expected = 1 if float(centers[j] @ centers[k]) > 0 else -1
            assert om.sign == expected

    def test_orientation_class_nontrivial(self, rp21):
        bundle, (nerve, wit, res, eu) = rp21
        assert not sign_coboundary(nerve, res.sw)

    def test_twisted_euler_magnitude(self, rp21):
        bundle, (nerve, wit, res, eu) = rp21
        assert abs(eu) == 1
        assert res.bracket_margin > 0.3

    def test_scenario_record(self, rp21):
        bundle, _ = rp21
        assert bundle.scenario.model == "rp2(1)"
        assert bundle.scenario.sw_trivial is False
        assert bundle.scenario.euler_number == 1


class TestDisconnectedFiber:
    def test_connectivity_class_nontrivial(self, disconnected1):
        nerve = build_nerve(disconnected1.cover)
        nu = connectivity_cocycle(disconnected1.cover, disconnected1.clusters, nerve)
        assert not sign_coboundary(nerve, nu)

    def test_unwrap_recovers_double_euler(self, disconnected1):
        b = disconnected1
        res = unwrap_double_cover(b.dataset, on_cover(b), b.clusters)
        assert res.components == 1
        assert res.dataset.kind == "sphere"
        for j in {sid // 2 for sid in res.orientations}:
            assert res.orientations[2 * j] == -res.orientations[2 * j + 1]
        lifted = res.cover
        ln = build_nerve(lifted)
        wit = assemble_witness(lifted, ln)
        cres = euler_cochain(wit)
        assert sign_coboundary(ln, cres.sw)
        mu = fundamental_class_twisted(ln, cres.sw)
        assert abs(euler_number(cres.euler, mu)) == 2

    def test_lifted_overlaps_not_thin(self, disconnected1):
        b = disconnected1
        res = unwrap_double_cover(b.dataset, b.cover, b.clusters)
        members = [set(cs.members) for cs in cover_sets(res.cover)]
        for i, a in enumerate(members):
            for c in members[i + 1 :]:
                assert len(a & c) == 0 or len(a & c) >= 6

    def test_split_variant_trivial_class(self):
        b = gen_disconnected_fiber(1, n_samples=6000, n_sets=36, seed=2, split=True)
        res = unwrap_double_cover(b.dataset, b.cover, b.clusters)
        assert set(res.nu.tolist()) == {1}
        assert res.components == 2
        assert res.dataset.kind == "projective_plane"
        assert res.orientations == {}

    @pytest.mark.parametrize("split, seed", [
        (True, 0), (True, 2), (True, 4), (False, 1), (False, 3),
    ])
    def test_small_inputs_unwrap(self, split, seed):
        # at 1000 samples these seeds give overlaps that show one label
        # combination only; unless the generator sheds them, unwrapping
        # rejects its own input
        b = gen_disconnected_fiber(1, n_samples=1000, seed=seed, split=split)
        lifted = unwrap_double_cover(b.dataset, on_cover(b), b.clusters).cover
        assert lifted.set_ids.tolist() == [2 * j + c for j in b.cover.set_ids.tolist()
                                           for c in (0, 1)]
        assert len(lifted.turns) == len(b.trivs.turns)

    @pytest.mark.parametrize("split, seed", [(True, 3), (False, 0), (False, 5)])
    def test_emptied_set_is_named(self, split, seed):
        # at 1000 samples the default 36 sets leave overlaps so thin that
        # trimming empties a set; the guard names it and suggests fewer sets
        with pytest.raises(
            NotACover,
            match=r"emptied cover set \d+, which held \d+ samples before trimming; "
            r"1000 samples over 36 sets .*try fewer --sets",
        ):
            gen_disconnected_fiber(1, n_samples=1000, seed=seed, split=split)
        b = gen_disconnected_fiber(1, n_samples=1000, n_sets=30, seed=seed, split=split)
        assert len(b.cover.set_ids) == 30

    def test_scenario_records(self, disconnected1):
        s = disconnected1.scenario
        assert s.model == "disconnected(1)"
        assert s.sw_trivial is True
        assert s.euler_number == 2
        t = gen_disconnected_fiber(
            1, n_samples=2000, n_sets=12, seed=2, split=True
        ).scenario
        assert t.model == "disconnected(1)-split"
        assert t.sw_trivial is False
        assert t.euler_number == 1


def _cover_state(cover):
    sets = cover_sets(cover)
    return {cs.id: set(cs.members) for cs in sets}, {cs.id for cs in sets if cs.clipped}


class TestTrimmingOracles:
    """The one trimming pass against the loops it replaced, on the untrimmed cover."""

    @pytest.mark.parametrize("gen", [gen_lens_bundle, gen_rp2_bundle])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_rule(self, gen, seed):
        b = gen(1, n_samples=1500, n_sets=40, seed=seed)
        expected = loop_trim_flat(make_cover(b.dataset, 40, None))
        assert expected[1] and _cover_state(b.cover) == expected

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_label_rule_and_unwrap(self, split, seed):
        b = gen_disconnected_fiber(1, n_samples=1500, n_sets=24, seed=seed, split=split)
        ds = b.dataset
        centers = {cs.id: cs.center for cs in cover_sets(b.cover)}
        base = dict(zip(ds.ids.tolist(), ds.base))

        def label(j, s):
            if split:
                return s < 2_000_000
            return float(base[s] @ centers[j]) > 0

        expected = loop_trim_labels(make_cover(ds, 24, None), label)
        assert expected[1] and _cover_state(b.cover) == expected
        clusters = clusters_of(b.cover, b.clusters)
        for cs in cover_sets(b.cover):
            assert clusters[cs.id] == tuple(
                frozenset(s for s in cs.members if label(cs.id, s) == side)
                for side in (True, False)
            )

        res = unwrap_double_cover(ds, b.cover, b.clusters)
        ref = bfs_unwrap(ds, b.cover, b.clusters)
        assert dict(zip(tuples(res.nerve.edges), res.nu.tolist())) == ref["nu"]
        assert res.components == ref["components"] == (2 if split else 1)
        assert res.orientations == ref["orientations"]
        assert res.dataset.kind == ref["kind"]
        assert np.array_equal(res.dataset.base, ref["base"])
        for cs in cover_sets(res.cover):
            members, center = ref["sets"][cs.id]
            assert cs.members == members
            assert np.array_equal(cs.center, center)
            assert cs.clipped == b.cover.clipped[cs.id // 2]


# set-by-sample incidences: a single set, samples in no set and sets
# holding no sample all turn up
incidence_st = st.tuples(st.integers(1, 8), st.integers(0, 16)).flatmap(
    lambda shape: hnp.arrays(bool, shape))


@settings(max_examples=200, deadline=None)
@given(inc=incidence_st)
@example(inc=np.zeros((4, 6), bool))
@example(inc=np.ones((1, 5), bool))
def test_overlap_counts_are_the_incidence_products(inc):
    wide = inc.astype(np.int64)
    counts = synthetic._overlap_counts(inc)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, wide @ wide.T)


class TestGeneratorPreconditions:
    def test_s1_needs_three_arcs(self):
        with pytest.raises(ValueError):
            gen_s1_bundle(True, n_arcs=2)

    def test_bundle_unpacks_as_triple(self, torus):
        dataset, cover, trivs = torus
        assert dataset is torus.dataset
        assert cover is torus.cover
        assert trivs is torus.trivs


# generator, its arguments besides the seed, the per-set oracle chart and
# the power it takes; default sizes and the benchmark's sizes
CHART_CASES = {
    "lens1-default": (gen_lens_bundle, dict(p=1), "lens", 1),
    "lens1-2000-16": (gen_lens_bundle, dict(p=1, n_samples=2000, n_sets=16, radius=0.85),
                      "lens", 1),
    "lens2-4000-64": (gen_lens_bundle, dict(p=2, n_samples=4000, n_sets=64, radius=0.44),
                      "lens", 2),
    "lens2-2000-64": (gen_lens_bundle, dict(p=2, n_samples=2000, n_sets=64, radius=0.44),
                      "lens", 2),
    "rp2-default": (gen_rp2_bundle, dict(p=1), "hemisphere", 1),
    "rp2:2-2000-20": (gen_rp2_bundle, dict(p=2, n_samples=2000, n_sets=20), "hemisphere", 2),
    "disconnected-default": (gen_disconnected_fiber, dict(p=5), "two-sheet", 5),
    "split-default": (gen_disconnected_fiber, dict(p=5, split=True), "hemisphere", 5),
}


def _labels(kind, dataset, cover):
    """The two-fiber generators' labels, restated; None for one-fiber models."""
    centers = {cs.id: cs.center for cs in cover_sets(cover)}
    if kind == "two-sheet":
        base = dict(zip(dataset.ids.tolist(), dataset.base))
        return lambda j, s: float(base[s] @ centers[j]) > 0
    if dataset.ids[-1] >= 2_000_000:
        return lambda j, s: s < 2_000_000
    return None


class TestChartOracles:
    """The batched chart pass against one chart call per set, exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", list(CHART_CASES))
    def test_generator_matches_per_set_loops(self, case, seed):
        gen, kwargs, kind, p = CHART_CASES[case]
        b = gen(seed=seed, **kwargs)
        ds = b.dataset
        split = kwargs.get("split", False)
        q = (oracle_split_quaternions if split else oracle_quaternions)(len(ds), seed)
        assert np.array_equal(quat_rotate(q, E1), ds.base)

        label = _labels(kind, ds, b.cover)
        n_sets = kwargs.get("n_sets", len(b.cover.set_ids))
        untrimmed = make_cover(ds, n_sets, kwargs.get("radius"))
        if label is None:
            expected = loop_trim_flat(untrimmed)
        else:
            expected = loop_trim_labels(untrimmed, label)
        assert _cover_state(b.cover) == expected

        tables, clusters = loop_generator_charts(kind, q, ds, b.cover, p, label)
        want = charts_of({j: dict(zip(*t)) for j, t in tables.items()})
        assert b.trivs.set_ids.tolist() == want.set_ids.tolist()
        for j in want.set_ids.tolist():
            got, ref = chart(b.trivs, j), chart(want, j)
            assert np.array_equal(got.ids, ref.ids)
            assert np.array_equal(got.points, ref.points)
        assert (b.clusters is None) == (label is None)
        assert label is None or clusters_of(b.cover, b.clusters) == clusters


def _crafted_rows(seed=0, per_set=40):
    """Rows of four sets around axis-aligned centers, on both hemispheres of each.

    Centers lie on coordinate axes (or between two), so a base point on
    another axis sits exactly on a set's seam.
    """
    centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                        [math.sqrt(0.5), math.sqrt(0.5), 0.0]])
    q = oracle_quaternions(4000, seed)
    b = quat_rotate(q, E1)
    rows = []
    for c in centers:
        rows.append(np.flatnonzero(np.abs(b @ c) > 0.6)[:per_set])
    at = np.concatenate(rows)
    sets = np.repeat(np.arange(len(centers)), per_set)
    return q[at].copy(), b[at].copy(), centers, sets


def _break(kind, q, b, centers, sets, j, what, far=False):
    """Make set j fail one check, on a row of its near (or far) side."""
    centers = centers[sets]
    side = np.sign(np.einsum("ij,ij->i", b, centers))
    r = np.flatnonzero((sets == j) & (side == (-1 if far else 1)))[3]
    if what == "antipode":
        b[r] = -centers[r]
    elif what == "seam":
        b[r] = {0: [0.0, 0.0, 1.0], 1: [1.0, 0.0, 0.0], 2: [0.0, 1.0, 0.0],
                3: [0.0, 0.0, 1.0]}[j]
    elif what == "nudge":  # a slight drift off the section's plane
        q[r] = q[r] + np.array([0.0, 0.0, 1e-4, 0.0])
        q[r] /= np.linalg.norm(q[r])
    else:  # drift: the quaternion no longer lies over its base point
        q[r] = q[(r + 7) % len(q)]


_FAILURES = {
    "lens": [
        [], [(2, "antipode")], [(1, "drift"), (2, "antipode")], [(0, "nudge")],
        [(2, "drift"), (1, "antipode")], [(3, "drift"), (3, "antipode")],
    ],
    "hemisphere": [
        [], [(2, "seam")], [(1, "drift"), (2, "seam")], [(2, "drift"), (2, "seam")],
        [(3, "seam"), (0, "drift")],
    ],
    "two-sheet": [
        [], [(1, "seam")], [(1, "drift", True), (2, "drift")],
        [(1, "drift", True), (1, "drift")], [(1, "drift", True), (1, "nudge")],
        [(2, "drift", True), (2, "seam", True)],
        [(0, "drift", True), (3, "seam")],
    ],
}
_BATCHED = {
    "lens": synthetic._lens_turns,
    "hemisphere": synthetic._hemisphere_turns,
    "two-sheet": synthetic._two_sheet_turns,
}


def _outcome(fn, *args):
    try:
        return "turns", fn(*args)
    except (LiftUndefined, SectionUndefined) as exc:
        return type(exc).__name__, str(exc)


class TestChartErrors:
    """Chart failures keep their type and message and name the first failing set."""

    @pytest.mark.parametrize("kind, failures", [
        (kind, f) for kind, cases in _FAILURES.items() for f in cases
    ], ids=lambda x: x if isinstance(x, str) else "+".join(
        f"{c[0]}{c[1]}{'-far' if len(c) > 2 else ''}" for c in x) or "none")
    def test_batched_charts_fail_like_the_set_loop(self, kind, failures):
        q, b, centers, sets = _crafted_rows()
        for failure in failures:
            _break(kind, q, b, centers, sets, *failure)
        got = _outcome(_BATCHED[kind], q, b, centers, 2, sets)
        want = _outcome(loop_set_charts, kind, q, b, centers, 2, sets)
        assert got[0] == want[0]
        if got[0] == "turns":
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1] == want[1]
        assert (got[0] == "turns") == (not failures)

    @pytest.mark.parametrize("gen, error, message", [
        (lambda: gen_lens_bundle(1, n_samples=2000, n_sets=8, radius=math.pi / 2),
         SectionUndefined, f"ball radius {math.pi / 2:.3f} reaches the section antipode"),
        (lambda: gen_rp2_bundle(1, n_samples=2000, n_sets=8, radius=math.pi / 4),
         LiftUndefined,
         f"ball radius {math.pi / 4:.3f} is too large for coherent hemisphere lifts"),
        (lambda: gen_disconnected_fiber(1, n_samples=2000, n_sets=8, radius=0.8),
         LiftUndefined, "ball radius 0.800 is too large for coherent hemisphere lifts"),
    ], ids=["lens", "rp2", "disconnected"])
    def test_lift_radius(self, gen, error, message):
        with pytest.raises(error) as exc:
            gen()
        assert str(exc.value) == message

    @pytest.mark.parametrize("gen, n, seed, split", [
        (gen_lens_bundle, 60, 0, False),
        (gen_rp2_bundle, 100, 0, False),
        (gen_disconnected_fiber, 1000, 0, False),
        (gen_disconnected_fiber, 1000, 3, True),
    ], ids=["lens", "rp2", "disconnected", "split"])
    def test_emptied_set(self, gen, n, seed, split):
        kwargs = dict(n_samples=n, seed=seed)
        if gen is gen_disconnected_fiber:
            kwargs["split"] = split
            n_sets = 36
        else:
            kwargs["n_sets"] = n_sets = 16
        with pytest.raises(NotACover) as exc:
            gen(1, **kwargs)

        q = (oracle_split_quaternions if split else oracle_quaternions)(n, seed)
        ids = (tuple(range(n // 2)) + tuple(2_000_000 + t for t in range(n // 2))
               if split else tuple(range(n)))
        kind = "sphere" if gen is gen_lens_bundle else "projective_plane"
        ds = BundleDataset(ids=ids, base=quat_rotate(q, E1), kind=kind)
        cover = make_cover(ds, n_sets)
        if gen is gen_disconnected_fiber:
            label = _labels("hemisphere" if split else "two-sheet", ds, cover)
            members, _ = loop_trim_labels(cover, label)
        else:
            members, _ = loop_trim_flat(cover)
        j = min(k for k in members if not members[k])
        assert str(exc.value) == (
            f"overlap trimming emptied cover set {j}, which held {np.count_nonzero(cover.sets == j)} "
            f"samples before trimming; {len(ids)} samples over {n_sets} sets leave "
            "overlaps too thin, try fewer --sets"
        )
