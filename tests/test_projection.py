"""Partition, projection, reduction, and coordinatization tests.

Measured bounds (projection distances, residuals, independence jumps)
were frozen from oracle runs of this module on the fixed seeds below;
the paper-derived constants (9 epsilon, sqrt(2) epsilon) are asserted
as stated.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from circlet.circle import o2_matrices, principal_turn, s1_angle
from circlet.classes import euler_cochain
from circlet.cochains import Witness, coboundary, cocycle_defect
from circlet.errors import (
    DiameterTooLarge,
    EigengapTooSmall,
    NotTrivializable,
    RankDeficient,
    ShapeMismatch,
    UncoveredPoint,
)
from circlet.nerve import BundleDataset, Cover, Nerve, base_geodesic, build_nerve
from circlet.projection import (
    BundleMapResult,
    FrameField,
    SupportGroup,
    _chart_means,
    _project,
    _top_plane,
    bundle_map,
    frame_field,
    global_trivialize,
    partition_of_unity,
    reduction_curve,
    stiefel_fiber_project,
    stiefel_reduce,
)
from circlet.synthetic import gen_lens_bundle, gen_s1_bundle, make_cover
from circlet.witness import assemble_witness, triv_quality

from oracles import (
    O2, charts_of, cover_sets, partition_from_rows, projection_distances, tuples, witness_of,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def torus():
    ds, cover, trivs = gen_s1_bundle(orientable=True, n_samples=600, n_arcs=12, seed=0)
    nerve = build_nerve(cover)
    wit = assemble_witness(trivs, nerve)
    rho = partition_of_unity(cover, ds)
    return ds, cover, trivs, nerve, wit, rho


@pytest.fixture(scope="module")
def noisy_torus():
    ds, cover, trivs = gen_s1_bundle(
        orientable=True, n_samples=600, n_arcs=12, seed=3, noise=0.05
    )
    nerve = build_nerve(cover)
    wit = assemble_witness(trivs, nerve)
    rho = partition_of_unity(cover, ds)
    return ds, cover, trivs, nerve, wit, rho


@pytest.fixture(scope="module")
def lens():
    ds, cover, trivs = gen_lens_bundle(1, n_samples=2000, n_sets=34, seed=1)
    nerve = build_nerve(cover)
    rho = partition_of_unity(cover, ds)
    return ds, cover, trivs, nerve, rho


@pytest.fixture(scope="module")
def defect_apparatus(lens):
    """Exact gauge coboundary on the sphere nerve plus scaled random bumps."""
    _, _, _, nerve, _ = lens
    rng = np.random.default_rng(11)
    gauge = {j: O2(rng.uniform(), 1) for (j,) in tuples(nerve.vertices)}
    ident = O2(0.0, 1)
    values = {(j, k): gauge[j] @ (ident @ gauge[k].inverse()) for (j, k) in tuples(nerve.edges)}
    base = witness_of(nerve, values)
    bump = {e: rng.uniform(-1, 1) for e in tuples(nerve.edges)}

    def perturbed(scale):
        vals = {e: O2(om.turn + scale * bump[e], om.sign) for e, om in values.items()}
        return witness_of(nerve, vals)

    def with_defect(target):
        lo, hi = 0.0, 0.2
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if cocycle_defect(perturbed(mid)) < target:
                lo = mid
            else:
                hi = mid
        return perturbed(0.5 * (lo + hi))

    return base, with_defect


def degenerate_triangle():
    """A witness and a partition of unity over one base point, sample 7."""
    nerve = Nerve(
        simplices={
            0: [(0,), (1,), (2,)],
            1: [(0, 1), (0, 2), (1, 2)],
            2: [(0, 1, 2)],
        }
    )
    rho = partition_from_rows(
        {7: {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}}, sets=(0, 1, 2), mode="indicator"
    )
    # maximally inconsistent triangle: the averaged frames tie
    om = witness_of(nerve, {(0, 1): O2(0.0, 1), (0, 2): O2(0.0, 1), (1, 2): O2(0.5, 1)})
    return om, rho


def row_of(rho, s):
    """Supporting set ids of sample ``s``, ascending, and their weights."""
    i = int(np.searchsorted(rho.ids, s))
    assert rho.ids[i] == s
    lo, hi = rho.indptr[i], rho.indptr[i + 1]
    return [rho.sets[k] for k in rho.slots[lo:hi]], rho.weights[lo:hi]


def projected(omega, rho, samples=None):
    """The frame field of a witness and its ``_project`` stages 1-3."""
    ff = frame_field(omega, rho, samples)
    return ff, _project(ff)


def repaired_charts(trivs, omega, rho):
    """Stage 4 on the projected transitions: groups, turns, signs and chart means."""
    ff, (_, _, pairs) = projected(omega, rho)
    turns, signs, _ = zip(*pairs)
    return ff.groups, turns, signs, _chart_means(trivs, ff.groups, turns, signs)


def compat_residual(groups, turns, signs, means):
    """Worst gap between a repaired chart value and a transition applied to another one."""
    worst = 0.0
    for g, turn, sign, mean in zip(groups, turns, signs, means):
        for i in range(len(g.ids)):
            for a, b in itertools.combinations(range(g.sets.shape[1]), 2):
                rhs = o2_matrices(turn[i, a, b], sign[i, a, b]) @ mean[i, b]
                worst = max(worst, float(np.linalg.norm(mean[i, a] - rhs)))
    return worst


def chart_moves(trivs, groups, means):
    """Largest distance a repaired chart value moved from its input."""
    return max(
        float(np.linalg.norm(mean - trivs.at(g.ids[:, None], g.sets)[0], axis=-1).max())
        for g, mean in zip(groups, means)
    )


class TestPartitionOfUnity:
    def test_rows_normalize_with_contained_support(self, torus):
        ds, cover, _, _, _, rho = torus
        assert rho.mode == "distance"
        member_of = {s: set() for s in ds.ids}
        for j, s in zip(cover.sets.tolist(), cover.samples.tolist()):
            member_of[s].add(j)
        for s in ds.ids:
            supp, w = row_of(rho, s)
            assert abs(sum(w) - 1.0) <= 1e-12
            assert all(w > 0)
            assert set(supp) <= member_of[s]

    def test_single_holder_gets_weight_one(self, torus):
        ds, _, _, _, _, rho = torus
        solo = [s for s in ds.ids if len(row_of(rho, s)[0]) == 1]
        assert solo  # arcs overlap only pairwise, interiors are single-held
        for s in solo[:20]:
            (w,) = row_of(rho, s)[1]
            assert w == 1.0

    def test_equidistant_equal_arcs_split_evenly(self):
        ds = BundleDataset(ids=(0,), base=np.array([[1.0, 0.0]]), kind="circle")
        c = math.cos(0.3), math.sin(0.3)
        cover = Cover.of({0: {0}, 1: {0}}, center=[[c[0], c[1]], [c[0], -c[1]]], radius=0.5)
        rho = partition_of_unity(cover, ds)
        assert row_of(rho, 0)[0] == [0, 1]
        assert row_of(rho, 0)[1][0] == pytest.approx(0.5, abs=1e-12)
        assert row_of(rho, 0)[1][1] == pytest.approx(0.5, abs=1e-12)

    def test_indicator_mode_without_geometry(self, torus):
        ds, cover, _, _, _, _ = torus
        bare = Cover(cover.set_ids, cover.indptr, cover.samples)
        rho = partition_of_unity(bare, ds)
        assert rho.mode == "indicator"
        two = [s for s in ds.ids if len(row_of(rho, s)[0]) == 2]
        assert two
        assert all(w == pytest.approx(0.5) for s in two[:10] for w in row_of(rho, s)[1])

    def test_uncovered_sample_raises(self):
        ds = BundleDataset(
            ids=(0, 1, 2),
            base=np.array([[1, 0], [0, 1], [-1, 0]], dtype=float),
            kind="circle",
        )
        cover = Cover.of({0: {0, 1}})
        with pytest.raises(UncoveredPoint, match="2"):
            partition_of_unity(cover, ds)

    def test_trimmed_samples_get_no_weight(self, lens):
        # trimming sheds samples that still sit inside the ball; the
        # partition must follow membership, not geometry
        ds, cover, _, _, rho = lens
        clipped = [c for c in cover_sets(cover) if c.clipped]
        assert clipped
        masked = 0
        for c in clipped:
            dist = base_geodesic(ds.kind, ds.base, c.center)
            for i, s in enumerate(ds.ids):
                if dist[i] < c.radius and s not in c.members:
                    masked += 1
                    assert c.id not in row_of(rho, s)[0]
        assert masked > 0

    def test_ambient_counts_two_rows_per_set(self, torus):
        _, _, _, _, _, rho = torus
        assert rho.ambient == 24
        assert rho.sets[0] == min(rho.sets)


class TestGrProject:
    """The nearest rank-2 projector, ``_top_plane``, that stage 1 applies."""

    def test_projector_is_fixed_point(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        p = q[:, :2] @ q[:, :2].T
        assert np.allclose(_top_plane(p)[0], p, atol=1e-12)

    def test_ordered_eigenvalues_pick_top_plane(self):
        out = _top_plane(np.diag([3.0, 2.0, 1.0]))[0]
        assert np.allclose(out, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_matches_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            p = q[:, :2] @ q[:, :2].T
            e = rng.normal(size=(6, 6))
            e = 0.05 * (e + e.T) / np.linalg.norm(e + e.T)
            a = p + e
            vals, vecs = scipy.linalg.eigh(a)
            idx = np.argsort(vals)[::-1][:2]
            expect = vecs[:, idx] @ vecs[:, idx].T
            assert np.allclose(_top_plane(a)[0], expect, atol=1e-9)

    def test_output_is_projector(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            try:
                p = _top_plane(a + a.T)[0]
            except EigengapTooSmall:
                continue
            assert np.allclose(p, p.T, atol=1e-10)
            assert np.allclose(p @ p, p, atol=1e-10)
            assert np.trace(p) == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_gap_raises(self):
        with pytest.raises(EigengapTooSmall):
            _top_plane(np.eye(3))


class TestStiefelFiberProject:
    def test_frame_in_range_is_fixed(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = q[:, :2]
        p = a @ a.T
        assert np.allclose(stiefel_fiber_project(p, a), a, atol=1e-12)

    def test_identity_projector_orthonormalizes(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 2))
        u = stiefel_fiber_project(np.eye(4), a)
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)
        expect = a @ scipy.linalg.inv(scipy.linalg.sqrtm(a.T @ a)).real
        assert np.allclose(u, expect, atol=1e-9)

    def test_closest_frame_in_fiber(self):
        # sampled optimality: no random frame of the same plane is closer
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        basis = q[:, :2]
        p = basis @ basis.T
        a = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        u = stiefel_fiber_project(p, a)
        best = np.linalg.norm(u - a)
        for _ in range(100):
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array(
                [[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]
            )
            if rng.random() < 0.5:
                rot = rot @ np.diag([1.0, -1.0])
            v = basis @ rot
            assert np.linalg.norm(v - a) >= best - 1e-9
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)
        assert np.allclose(p @ u, u, atol=1e-10)

    def test_orthogonal_plane_raises(self):
        p = np.zeros((4, 4))
        p[0, 0] = p[1, 1] = 1.0
        a = np.zeros((4, 2))
        a[2, 0] = a[3, 1] = 1.0
        with pytest.raises(RankDeficient):
            stiefel_fiber_project(p, a)


class TestFrameField:
    def test_columns_orthonormal(self, lens):
        ds, _, trivs, nerve, rho = lens
        wit = assemble_witness(trivs, nerve)
        ff = frame_field(wit, rho, samples=rho.ids[:50])
        assert sum(len(g.ids) for g in ff.groups) == 50
        for f in ff.frames:
            assert np.allclose(f.swapaxes(-1, -2) @ f, np.eye(2), atol=1e-10)

    def test_dense_embedding_places_blocks(self, torus):
        _, _, _, _, wit, rho = torus
        s = rho.ids[0]
        ff = frame_field(wit, rho, samples=[s])
        (group,) = ff.groups
        support = group.sets[0].tolist()
        rows = ff.rows(0)[0]
        assert rows.tolist() == [
            r for i in support for r in (2 * rho.sets.index(i), 2 * rho.sets.index(i) + 1)
        ]
        dense = np.zeros((rho.ambient, 2))
        dense[rows] = ff.frames[0][0, 0]
        hot = {rho.sets.index(i) for i in support}
        for slot in range(len(rho.sets)):
            block = dense[2 * slot : 2 * slot + 2, :]
            if slot in hot:
                assert np.linalg.norm(block) > 0
            else:
                assert np.linalg.norm(block) == 0.0

    def test_frame_layout(self, noisy_torus):
        # rows 2b, 2b + 1 of frame a: the transition from set b into set a, times sqrt(w_b)
        _, _, _, _, wit, rho = noisy_torus
        ff = frame_field(wit, rho)
        edge = dict(zip(tuples(wit.nerve.edges), o2_matrices(wit.turn, wit.sign)))
        (g, group), = [(g, grp) for g, grp in enumerate(ff.groups) if grp.sets.shape[1] == 2]
        for sets, w, f in zip(group.sets[:20], group.weights, ff.frames[g]):
            for a, b in itertools.product(range(2), repeat=2):
                j, k = int(sets[a]), int(sets[b])
                into = np.eye(2) if a == b else edge[(k, j)] if b < a else edge[(j, k)].T
                assert np.allclose(f[a, 2 * b : 2 * b + 2], np.sqrt(w[b]) * into, atol=1e-14)

    def test_rejects_wrong_degree(self, torus):
        # a witness with no values on the nerve's edges, only its vertices
        _, _, _, nerve, _, rho = torus
        bare = Witness(Nerve({0: nerve.vertices}), np.empty(0), np.empty(0, np.int64))
        with pytest.raises(ShapeMismatch, match="witness has no value on edge"):
            frame_field(bare, rho)


class TestPeakMemory:
    """The frames and the error curve of lens:2 2000/64 hold one copy of their largest array."""

    @pytest.fixture(scope="class")
    def lens2(self, scenario):
        ds, cover, trivs = scenario(gen_lens_bundle, 2, n_samples=2000, n_sets=64, radius=0.44,
                                    seed=0)
        return assemble_witness(trivs, build_nerve(cover)), partition_of_unity(cover, ds)

    @staticmethod
    def traced(call):
        """``call()`` and the most bytes it held at once beyond what was held before it."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = call()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_frame_field_holds_one_copy_of_its_frames(self, lens2):
        ff, peak = self.traced(lambda: frame_field(*lens2))
        assert peak <= 1.5 * sum(f.nbytes for f in ff.frames)

    def test_reduction_curve_holds_one_error_table(self, lens2):
        ff = frame_field(*lens2)
        curve, peak = self.traced(lambda: reduction_curve(ff))
        assert len(curve) == ff.dim - 1 == 127
        frames = sum(f.shape[0] * f.shape[1] for f in ff.frames)
        assert peak <= 1.5 * len(curve) * frames * np.dtype(float).itemsize


class TestClassifyingMap:
    """Stage 1 of ``_project``: weighted frame averages and their projectors."""

    def test_exact_cocycle_gives_projectors(self, torus):
        _, _, _, _, wit, rho = torus
        ff, out = projected(wit, rho)
        assert projection_distances(wit, ff, out)["projector"] <= 1e-12
        assert min(gap.min() for _, _, gap in out[0]) > 0.99

    def test_single_set_point_already_projector(self, torus):
        ds, _, _, _, _, _ = torus
        cover1 = make_cover(ds, 1, radius=3.2)
        nerve1 = build_nerve(cover1)
        rho1 = partition_of_unity(cover1, ds)
        wit1 = witness_of(nerve1, {})
        ff, out = projected(wit1, rho1)
        assert projection_distances(wit1, ff, out)["projector"] <= 1e-12
        assert min(gap.min() for _, _, gap in out[0]) > 0.99

    def test_defective_cocycle_within_sqrt2_epsilon(self, lens, defect_apparatus):
        _, _, _, _, rho = lens
        _, with_defect = defect_apparatus
        w = with_defect(0.1)
        eps = cocycle_defect(w)
        distance = projection_distances(w, *projected(w, rho))["projector"]
        assert 0.0 < distance <= SQRT2 * eps

    def test_degenerate_point_named_in_error(self):
        om, rho = degenerate_triangle()
        with pytest.raises(EigengapTooSmall, match="base point 7"):
            projected(om, rho, samples=[7])


class TestProjectCocycle:
    """Stages 1-3 of ``_project``: exactly multiplicative rounded transitions."""

    def test_exact_input_unchanged(self, torus):
        _, _, _, _, wit, rho = torus
        got = projection_distances(wit, *projected(wit, rho))
        assert got["cocycle"] <= 1e-12
        assert got["ortho"] <= 1e-12
        assert got["defect"] <= 1e-12

    def test_triangle_free_nerve_is_already_exact(self, noisy_torus):
        # any 1-cochain on a graph nerve is a cocycle; projection is a no-op
        _, _, _, _, wit, rho = noisy_torus
        assert projection_distances(wit, *projected(wit, rho))["cocycle"] <= 1e-9

    @pytest.mark.parametrize("target", [0.02, 0.05, 0.1])
    def test_nine_epsilon_distance_bound(self, lens, defect_apparatus, target):
        _, _, _, _, rho = lens
        _, with_defect = defect_apparatus
        w = with_defect(target)
        eps = cocycle_defect(w)
        assert eps == pytest.approx(target, rel=1e-6)
        got = projection_distances(w, *projected(w, rho))
        assert 0.5 * eps <= got["cocycle"] <= 9.0 * eps
        assert got["defect"] <= 1e-8


class TestProjectTrivialization:
    """Stage 4, ``_chart_means``: charts repaired through the rounded transitions."""

    def test_exact_charts_unchanged(self, torus):
        _, _, trivs, nerve, wit, rho = torus
        groups, turns, signs, means = repaired_charts(trivs, wit, rho)
        assert chart_moves(trivs, groups, means) <= 1e-12
        assert compat_residual(groups, turns, signs, means) <= 1e-9

    def test_noisy_charts_become_exactly_compatible(self, noisy_torus):
        _, _, trivs, nerve, wit, rho = noisy_torus
        groups, turns, signs, means = repaired_charts(trivs, wit, rho)
        assert compat_residual(groups, turns, signs, means) <= 1e-9

    def test_distance_bounded_by_alpha_delta(self, noisy_torus):
        _, _, trivs, nerve, wit, rho = noisy_torus
        q = triv_quality(trivs, wit, nerve)
        distance = projection_distances(wit, *projected(wit, rho))["cocycle"]
        groups, _, _, means = repaired_charts(trivs, wit, rho)
        moved = chart_moves(trivs, groups, means)
        assert moved <= q.alpha + distance / SQRT2
        assert moved <= 0.2  # frozen: 0.139 measured at this seed and noise

    def test_diameter_error_names_sample(self, torus):
        # a two-chart support never exceeds the half-circle guard, so
        # spread three transported copies a third of a turn apart
        ds, _, _, _, _, _ = torus
        cover3 = make_cover(ds, 3, radius=2.2)
        nerve3 = build_nerve(cover3)
        ang = dict(zip(ds.ids.tolist(), s1_angle(ds.base).tolist()))
        trivs3 = charts_of({c.id: {s: ang[s] for s in c.members} for c in cover_sets(cover3)})
        wit3 = assemble_witness(trivs3, nerve3)
        rho3 = partition_of_unity(cover3, ds)
        ff, (_, _, pairs) = projected(wit3, rho3)
        turns, signs, _ = zip(*pairs)
        group, turn = next(
            (g, t) for g, t in zip(ff.groups, turns) if g.sets.shape[1] == 3
        )
        victim = group.ids[0]
        # rotate the first three-set sample's transitions into set 0
        turn[0, 0, 1] += 1.0 / 3.0
        turn[0, 0, 2] -= 1.0 / 3.0
        with pytest.raises(DiameterTooLarge, match=f"sample {victim}"):
            _chart_means(trivs3, ff.groups, turns, signs)


class TestStiefelReduce:
    def _field(self, frames_by_sample, dim):
        # one dense frame per sample, as a single support group
        ids = np.array(sorted(frames_by_sample))
        one = np.zeros((len(ids), 1), dtype=int)
        group = SupportGroup(np.arange(len(ids)), ids, one, one, np.ones((len(ids), 1)))
        stack = np.stack([frames_by_sample[s][0] for s in ids])[:, None]
        return FrameField(groups=[group], frames=[stack], dim=dim, restricted=False)

    def test_full_dimension_distinct_spectrum_is_identity(self):
        # column degrees 4,3,2,1 make the principal basis the standard one
        def frame(a, b, dim=4):
            m = np.zeros((dim, 2))
            m[a, 0] = 1.0
            m[b, 1] = 1.0
            return m

        frames = {
            0: {0: frame(0, 1)},
            1: {0: frame(0, 1)},
            2: {0: frame(0, 2)},
            3: {0: frame(0, 3)},
            4: {0: frame(1, 2)},
        }
        red = stiefel_reduce(self._field(frames, 4), 4)
        assert red.method == "psc-substitute"
        for i, s in enumerate(sorted(frames)):
            assert np.allclose(red.frames[0][i, 0], frames[s][0], atol=1e-9)
        assert red.errors[0].max() <= 1e-9

    def test_fixed_subspace_projects_without_error(self):
        rng = np.random.default_rng(10)
        frames = {}
        for s in range(6):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            m = np.zeros((8, 2))
            m[:4, :] = q[:, :2]
            frames[s] = {0: m}
        red = stiefel_reduce(self._field(frames, 8), 4)
        assert red.errors[0].max() <= 1e-9
        for u in red.frames[0][:, 0]:
            assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)

    def test_error_curve_monotone(self, lens, defect_apparatus):
        _, _, _, _, rho = lens
        _, with_defect = defect_apparatus
        ff = frame_field(with_defect(0.1), rho)
        curve = reduction_curve(ff, dims=[2, 4, 8, 16, 32, 68])
        maxes = [row[2] for row in curve]
        assert all(a >= b - 1e-12 for a, b in zip(maxes, maxes[1:]))
        # full dimension loses nothing; sqrt(2 - |y|^2) turns rounding
        # noise into ~1e-7, so the floor is loose
        assert maxes[-1] <= 1e-6

    def test_curve_summarizes_reduce_errors(self, lens, defect_apparatus):
        # both read one principal basis, so each curve row is the mean and
        # max of the per-frame errors of the reduction to that dimension
        _, _, _, _, rho = lens
        _, with_defect = defect_apparatus
        ff = frame_field(with_defect(0.1), rho, samples=rho.ids[:400])
        dims = [2, 3, 8, 33, 68]
        curve = reduction_curve(ff, dims=dims)
        assert [row[0] for row in curve] == dims
        for d, mean, worst in curve:
            errs = np.concatenate([e.ravel() for e in stiefel_reduce(ff, d).errors])
            assert mean == pytest.approx(errs.mean(), abs=1e-6)
            assert worst == pytest.approx(errs.max(), abs=1e-6)

    def test_cut_inside_eigenvalue_pair_warns(self, lens, caplog):
        # an exact lens:1 witness has no reflections, so its moment
        # eigenvalues pair up: 3 splits the second pair, 4 does not
        _, _, trivs, nerve, rho = lens
        ff = frame_field(assemble_witness(trivs, nerve), rho)
        for d, warned in ((3, 1), (4, 0)):
            caplog.clear()
            with caplog.at_level("WARNING", logger="circlet.projection"):
                stiefel_reduce(ff, d)
            hits = [r for r in caplog.records if "inside a pair" in r.message]
            assert len(hits) == warned

    def test_collapsed_frame_raises(self):
        def frame(a, b, dim=4):
            m = np.zeros((dim, 2))
            m[a, 0] = 1.0
            m[b, 1] = 1.0
            return m

        # weight the first plane so it wins the principal directions
        frames = {s: {0: frame(0, 1)} for s in range(5)}
        frames[5] = {0: frame(2, 3)}
        with pytest.raises(RankDeficient, match="sample 5"):
            stiefel_reduce(self._field(frames, 4), 2)

    def test_dimension_bounds(self, torus):
        _, _, _, _, wit, rho = torus
        ff = frame_field(wit, rho, samples=rho.ids[:5])
        with pytest.raises(ValueError):
            stiefel_reduce(ff, 1)
        with pytest.raises(ValueError):
            stiefel_reduce(ff, 25)


class TestBundleMap:
    def test_torus_low_dimension_consistent(self, torus):
        _, _, trivs, _, wit, rho = torus
        bm = bundle_map(trivs, wit, rho, d=4)
        assert bm.dim == 4
        assert bm.method == "psc-substitute"
        assert bm.overlap_residual <= 1e-8
        assert bm.plane_residual <= 1e-8
        norms = np.linalg.norm(bm.vectors, axis=1)
        assert max(abs(n - 1.0) for n in norms) <= 1e-9

    def test_noisy_torus_still_agrees_on_overlaps(self, noisy_torus):
        _, _, trivs, _, wit, rho = noisy_torus
        bm = bundle_map(trivs, wit, rho, d=4)
        assert bm.overlap_residual <= 1e-8
        norms = np.linalg.norm(bm.vectors, axis=1)
        assert max(abs(n - 1.0) for n in norms) <= 1e-9

    def test_full_dimension_reduction_lossless(self, torus):
        _, _, trivs, _, wit, rho = torus
        bm = bundle_map(trivs, wit, rho, d=24)
        assert bm.reduction_errors.max() <= 1e-6
        assert bm.overlap_residual <= 1e-8

    def test_single_set_reduces_to_frame_times_chart(self, torus):
        ds, _, _, _, _, _ = torus
        cover1 = make_cover(ds, 1, radius=3.2)
        nerve1 = build_nerve(cover1)
        rng = np.random.default_rng(0)
        trivs1 = charts_of({0: {s: rng.uniform() for s in ds.ids}})
        wit1 = witness_of(nerve1, {})
        rho1 = partition_of_unity(cover1, ds)
        bm = bundle_map(trivs1, wit1, rho1, d=2)
        ids = trivs1.samples.tolist()
        chart = trivs1.points
        assert bm.ids.tolist() == ids
        out = bm.vectors
        m, *_ = np.linalg.lstsq(chart, out, rcond=None)
        m = m.T
        # one fixed isometry: the principal-basis convention
        assert np.allclose(m @ m.T, np.eye(2), atol=1e-9)
        assert np.abs(out - chart @ m.T).max() <= 1e-9

    def test_eigengap_error_names_base_point(self):
        om, rho = degenerate_triangle()
        trivs = charts_of({j: {7: 0.0} for j in range(3)})
        with pytest.raises(EigengapTooSmall, match="base point 7"):
            bundle_map(trivs, om, rho, d=6)

    def test_diameter_error_names_sample_and_chart(self, torus):
        ds, _, _, _, _, _ = torus
        cover3 = make_cover(ds, 3, radius=2.2)
        nerve3 = build_nerve(cover3)
        ang = dict(zip(ds.ids.tolist(), s1_angle(ds.base).tolist()))
        tables = {c.id: {s: ang[s] for s in c.members} for c in cover_sets(cover3)}
        wit3 = assemble_witness(charts_of(tables), nerve3)
        rho3 = partition_of_unity(cover3, ds)
        victim = next(s for s in rho3.ids.tolist() if len(row_of(rho3, s)[0]) == 3)
        # the exact witness transports the victim's three chart values to
        # points a third of a turn apart
        tables[1][victim] += 1.0 / 3.0
        tables[2][victim] -= 1.0 / 3.0
        with pytest.raises(DiameterTooLarge, match=f"sample {victim}, chart 0:"):
            bundle_map(charts_of(tables), wit3, rho3, d=6)


class TestGlobalTrivialize:
    def test_torus_gets_global_coordinate(self, torus):
        ds, _, trivs, _, wit, rho = torus
        g = global_trivialize(trivs, wit, rho)
        assert g.residual <= 1e-8
        assert set(g.phi.values()) == {1}
        assert np.array_equal(g.edges, wit.nerve.edges) and not g.beta.any()
        assert np.array_equal(g.ids, np.sort(np.array(ds.ids)))
        assert g.turns.size == len(ds.ids)
        assert g.turns.max() - g.turns.min() > 0.5  # genuinely covers the fiber

    def test_winding_solve_on_a_nerve_with_triangles(self, torus):
        # a trivial bundle over three arcs with a triple overlap, charts
        # rotated by 0, 0.4 and 0.8 turns: the rounded class is not zero
        ds, _, _, _, _, _ = torus
        cover3 = make_cover(ds, 3, radius=2.2)
        nerve3 = build_nerve(cover3)
        ang = dict(zip(ds.ids.tolist(), s1_angle(ds.base).tolist()))
        trivs3 = charts_of(
            {c.id: {s: ang[s] + 0.4 * c.id for s in c.members} for c in cover_sets(cover3)}
        )
        wit3 = assemble_witness(trivs3, nerve3)
        g = global_trivialize(trivs3, wit3, partition_of_unity(cover3, ds))
        euler = euler_cochain(wit3).euler
        assert len(nerve3.triangles) and euler.any()
        assert coboundary(g.beta, nerve3, 1).tolist() == euler.tolist()
        assert g.residual <= 1e-8

    def test_noisy_torus_residual_stays_small(self, noisy_torus):
        ds, _, trivs, _, wit, rho = noisy_torus
        g = global_trivialize(trivs, wit, rho)
        assert g.residual <= 0.25  # frozen: 0.156 at noise 0.05

    def test_klein_obstructed_by_sign_class(self):
        ds, cover, trivs = gen_s1_bundle(
            orientable=False, n_samples=600, n_arcs=12, seed=0
        )
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        rho = partition_of_unity(cover, ds)
        with pytest.raises(NotTrivializable) as info:
            global_trivialize(trivs, wit, rho)
        assert info.value.reason == "sw"

    def test_twisted_sphere_bundle_obstructed_by_integer_class(self, lens):
        ds, _, trivs, nerve, rho = lens
        wit = assemble_witness(trivs, nerve)
        with pytest.raises(NotTrivializable) as info:
            global_trivialize(trivs, wit, rho)
        assert info.value.reason == "euler"

    def test_partition_choice_shifts_continuously(self, torus):
        # two continuous partitions give coordinates that differ by a
        # base-continuous rotation: adjacent samples never jump far
        ds, _, trivs, _, wit, rho = torus
        sq = {}
        for s in rho.ids.tolist():
            supp, w = row_of(rho, s)
            tot = sum(v * v for v in w)
            sq[s] = {j: v * v / tot for j, v in zip(supp, w)}
        rho_sq = partition_from_rows(sq, rho.sets, mode="distance")
        g1 = global_trivialize(trivs, wit, rho)
        g2 = global_trivialize(trivs, wit, rho_sq)
        base_ang = dict(zip(ds.ids.tolist(), s1_angle(ds.base).tolist()))
        order = sorted(ds.ids, key=lambda s: base_ang[s])
        angle1 = dict(zip(g1.ids.tolist(), g1.turns.tolist()))
        angle2 = dict(zip(g2.ids.tolist(), g2.turns.tolist()))
        diffs = [principal_turn(angle1[s] - angle2[s]) for s in order]
        jumps = [
            abs(principal_turn(b - a)) for a, b in zip(diffs, diffs[1:] + diffs[:1])
        ]
        assert max(diffs) - min(diffs) > 0.02  # the partitions genuinely differ
        assert max(jumps) <= 0.12  # frozen: 0.078 measured; indicator gives 0.29
