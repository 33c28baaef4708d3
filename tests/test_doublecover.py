"""Tests for connectivity signs and base unwrapping of two-cluster data.

The main fixture is a ring of three sets along a projective line inside
the projective plane.  Samples are built from an explicit double-cover
angle, so the expected sign pattern, the lifted cover shape, and the
correct per-sample lifts are all known by construction.
"""

import math

import numpy as np
import pytest

from circlet.doublecover import (
    UnwrapResult,
    connectivity_cocycle,
    unwrap_double_cover,
)
from circlet.errors import (
    InconsistentClusters,
    LiftUndefined,
    NotUnwrappable,
    PropagationConflict,
    SchemaError,
)
from circlet.intlinalg import solve_gf2
from circlet.nerve import BundleDataset, Cover, build_nerve
from oracles import bfs_unwrap, clusters_of, cover_sets, tuples

TAU = 2 * math.pi

# chosen double-cover preimage interval of each ring set
INTERVALS = {0: (-0.2, 0.7), 1: (0.4, 1.3), 2: (1.0, math.pi + 0.1)}


def in_arc(x, lo, hi, period=TAU):
    return (x - lo) % period < (hi - lo)


def label_of(cover, clusters):
    """The label column of ``{set id: (cluster 0, cluster 1)}`` on the cover's pairs."""
    return np.array([s in clusters[j][0] for j, s in zip(cover.sets.tolist(),
                                                         cover.samples.tolist())])


def ring_fixture(n=40):
    """Three-set chain along a projective line, connected double cover.

    Returns (dataset, cover, label, angles).  Cluster 0 of set j holds
    the samples whose double-cover angle lies in the set's chosen
    preimage interval; cluster 1 holds the antipodal preimage.
    """
    angles = [TAU * t / n for t in range(n)]
    base = np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])
    clusters, members, centers, radii = {}, {}, [], []
    for j, (lo, hi) in INTERVALS.items():
        c0 = {t for t, a in enumerate(angles) if in_arc(a, lo, hi)}
        c1 = {t for t, a in enumerate(angles)
              if in_arc(a, lo + math.pi, hi + math.pi)}
        clusters[j] = (frozenset(c0), frozenset(c1))
        mid = (lo + hi) / 2
        members[j] = c0 | c1
        centers.append([math.cos(mid), math.sin(mid), 0.0])
        radii.append((hi - lo) / 2)
    cover = Cover.of(members, center=centers, radius=radii)
    dataset = BundleDataset(ids=tuple(range(n)), base=base,
                            kind="projective_plane")
    return dataset, cover, label_of(cover, clusters), angles


def two_copy_fixture(n=20):
    """Two disjoint circle-bundle copies over a three-arc circle cover."""
    arcs = {0: (-0.7, 1.7), 1: (1.2, 3.5), 2: (3.0, 5.9)}
    angles = [TAU * t / n for t in range(n)]
    point = [[math.cos(a), math.sin(a)] for a in angles]
    ids = tuple(100 + t for t in range(n)) + tuple(200 + t for t in range(n))
    base = np.array(point + point)
    clusters, members, centers, radii = {}, {}, [], []
    for j, (lo, hi) in arcs.items():
        hit = {t for t, a in enumerate(angles) if in_arc(a, lo, hi)}
        a_part = frozenset(100 + t for t in hit)
        b_part = frozenset(200 + t for t in hit)
        clusters[j] = (a_part, b_part)
        mid = (lo + hi) / 2
        members[j] = a_part | b_part
        centers.append([math.cos(mid), math.sin(mid)])
        radii.append((hi - lo) / 2)
    cover = Cover.of(members, center=centers, radius=radii)
    return BundleDataset(ids=ids, base=base, kind="circle"), cover, label_of(cover, clusters)


class TestConnectivityCocycle:
    def test_ring_sign_pattern(self):
        dataset, cover, label, _ = ring_fixture()
        nerve = build_nerve(cover)
        assert tuples(nerve.edges) == [(0, 1), (0, 2), (1, 2)]
        assert not len(nerve.triangles)
        nu = connectivity_cocycle(cover, label, nerve)
        assert nu.tolist() == [1, -1, 1]

    def test_globally_consistent_labels(self):
        dataset, cover, label = two_copy_fixture()
        nu = connectivity_cocycle(cover, label, build_nerve(cover))
        assert set(nu.tolist()) == {1}

    def test_flip_one_set_changes_by_its_coboundary(self):
        _, cover, label, _ = ring_fixture()
        nerve = build_nerve(cover)
        nu = connectivity_cocycle(cover, label, nerve)
        nu2 = connectivity_cocycle(cover, label ^ (cover.sets == 1), nerve)
        for (j, k) in tuples(nerve.edges):
            factor = -1 if 1 in (j, k) else 1
            i = tuples(nerve.edges).index((j, k))
            assert nu2[i] == factor * nu[i]

    def test_empty_cluster_rejected(self):
        # set 0 shows one label on its edges, so each meets one combination only
        _, cover, label, _ = ring_fixture()
        bad = label | (cover.sets == 0)
        with pytest.raises(InconsistentClusters, match=r"edge \(0, 1\) meets label combinations"):
            connectivity_cocycle(cover, bad, build_nerve(cover))

    def test_mixed_combination_rejected(self):
        # moving one shared sample across set 1's clusters makes the
        # (0,1) overlap meet three label combinations
        _, cover, label, angles = ring_fixture()
        clusters = clusters_of(cover, label)
        moved = next(t for t in clusters[0][0] & clusters[1][0]
                     if in_arc(angles[t], 0.4, 0.7))
        bad = label.copy()
        bad[cover.find(moved, 1)] = False
        with pytest.raises(InconsistentClusters, match=r"\(True, True, False, True\)"):
            connectivity_cocycle(cover, bad, build_nerve(cover))


class TestUnwrapTrivial:
    def test_two_disjoint_copies(self):
        dataset, cover, label = two_copy_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        assert isinstance(res, UnwrapResult)
        assert len(res.cover.set_ids) == 6
        assert res.components == 2
        assert res.orientations == {}
        assert res.dataset.kind == "circle"
        assert np.array_equal(res.dataset.base, dataset.base)
        # the lifted nerve is two disjoint rings with no cross edges
        lifted = build_nerve(res.cover)
        for (a, b) in lifted.edges:
            assert a % 2 == b % 2
        assert len(lifted.edges) == 6

    def test_membership_split(self):
        dataset, cover, label = two_copy_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        clusters = clusters_of(cover, label)
        assert res.cover.set_ids.tolist() == [0, 1, 2, 3, 4, 5]
        for new_set in cover_sets(res.cover):
            j, c = divmod(new_set.id, 2)
            assert new_set.members == clusters[j][c]


class TestUnwrapGeometric:
    def test_connected_six_set_lift(self):
        dataset, cover, label, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        assert len(res.cover.set_ids) == 6
        assert res.components == 1
        assert res.dataset.kind == "sphere"
        lifted = build_nerve(res.cover)
        assert len(lifted.edges) == 6
        # one hexagonal ring: every lifted set has exactly two neighbors
        degree = {v[0]: 0 for v in lifted.vertices}
        for (a, b) in lifted.edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2}

    def test_lift_matches_double_cover_angles(self):
        # the fixture's stored vectors are the true circle points, so
        # the chosen lifts must agree with them up to one global flip
        dataset, cover, label, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        assert np.array_equal(res.dataset.ids, dataset.ids)
        labeled = np.isin(dataset.ids, cover.samples)
        dots = np.einsum("ij,ij->i", res.dataset.base, dataset.base)[labeled]
        assert set(np.round(dots, 9).tolist()) in ({1.0}, {-1.0})

    def test_orientations_oppose_within_a_set(self):
        dataset, cover, label, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        for j in (0, 1, 2):
            assert res.orientations[2 * j] == -res.orientations[2 * j + 1]

    def test_pulled_back_class_bounds(self):
        dataset, cover, label, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        nu = dict(zip(tuples(res.nerve.edges), res.nu.tolist()))
        assert res.nu.tolist() == connectivity_cocycle(cover, label, build_nerve(cover)).tolist()
        lifted = build_nerve(res.cover)
        edges = lifted.edges
        verts = [v[0] for v in lifted.vertices]
        col = {v: i for i, v in enumerate(verts)}
        A = np.zeros((len(edges), len(verts)), dtype=np.uint8)
        b = np.zeros(len(edges), dtype=np.uint8)
        for i, (a, c) in enumerate(edges):
            A[i, col[a]] = 1
            A[i, col[c]] = 1
            ja, jc = a // 2, c // 2
            edge = (min(ja, jc), max(ja, jc))
            b[i] = 0 if nu[edge] == 1 else 1
        assert solve_gf2(A, b) is not None

    def test_lifted_centers_follow_orientation(self):
        dataset, cover, label, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, label)
        old = {c.id: c for c in cover_sets(cover)}
        for s in cover_sets(res.cover):
            o = res.orientations[s.id]
            assert np.allclose(s.center, o * old[s.id // 2].center)

    def test_seam_conflict_detected(self):
        # corrupt one shared sample so its hemisphere vote disagrees
        # with its cluster mates
        dataset, cover, label, angles = ring_fixture()
        clusters = clusters_of(cover, label)
        victim = sorted(clusters[0][0] & clusters[1][0])[-1]
        c0, c1 = cover.center[0], cover.center[1]
        u = 0.9 * c0 - 1.0 * c1
        u /= np.linalg.norm(u)
        assert float(u @ c0) > 0 > float(u @ c1)
        base = np.array(dataset.base, copy=True)
        base[victim] = u
        broken = BundleDataset(ids=dataset.ids, base=base,
                               kind="projective_plane")
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(PropagationConflict):
                unwrap(broken, cover, label)

    def test_equatorial_sample_rejected(self):
        dataset, cover, label, _ = ring_fixture()
        clusters = clusters_of(cover, label)
        victim = sorted(clusters[0][0] & clusters[1][0])[0]
        c0 = cover.center[0]
        perp = np.array([-c0[1], c0[0], 0.0])
        base = np.array(dataset.base, copy=True)
        base[victim] = perp / np.linalg.norm(perp)
        broken = BundleDataset(ids=dataset.ids, base=base,
                               kind="projective_plane")
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(LiftUndefined):
                unwrap(broken, cover, label)

    def test_set_without_center_rejected_only_where_it_must_lift(self):
        dataset, cover, label, _ = ring_fixture()
        center = cover.center.copy()
        center[1] = np.nan
        blind = Cover(cover.set_ids, cover.indptr, cover.samples, center, cover.radius)
        with pytest.raises(SchemaError, match="^set 1 has no center; cannot pick hemispheres$"):
            unwrap_double_cover(dataset, blind, label)
        # a piece that splits never reads its centers
        dataset, cover, label = two_copy_fixture()
        res = unwrap_double_cover(dataset, Cover(cover.set_ids, cover.indptr, cover.samples),
                                  label)
        assert res.components == 2 and res.cover.center is None

    def test_wrong_base_kind_rejected(self):
        # crossing the two copies inside set 2 makes the class
        # nontrivial, and a circle-kind base cannot unwrap
        dataset, cover, label = two_copy_fixture(n=20)
        angle = {100 + t: TAU * t / 20 for t in range(20)}
        angle.update({200 + t: TAU * t / 20 for t in range(20)})
        low = np.array([in_arc(angle[s], 3.0, 4.5) for s in cover.samples.tolist()])
        crossed = np.where(cover.sets == 2, label ^ low, label)
        nerve = build_nerve(cover)
        nu = connectivity_cocycle(cover, crossed, nerve)
        assert dict(zip(tuples(nerve.edges), nu.tolist())) == {(0, 1): 1, (0, 2): 1, (1, 2): -1}
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(NotUnwrappable, match="antipodal"):
                unwrap(dataset, cover, crossed)

    def test_stored_sign_convention_is_irrelevant(self):
        # projective base points are only defined up to sign; flipping
        # stored representatives must not change the lifted structure
        dataset, cover, label, _ = ring_fixture()
        rng = np.random.default_rng(5)
        signs = rng.choice([1.0, -1.0], size=len(dataset))
        base = dataset.base * signs[:, None]
        flipped = BundleDataset(ids=dataset.ids, base=base,
                                kind="projective_plane")
        a = unwrap_double_cover(dataset, cover, label)
        b = unwrap_double_cover(flipped, cover, label)
        assert a.orientations == b.orientations
        # both lifts agree up to one global antipodal flip
        dots = [float(a.dataset.base[i] @ b.dataset.base[i])
                for i in range(len(dataset))]
        assert set(round(d, 9) for d in dots) in ({1.0}, {-1.0})


def _flipped_ring():
    dataset, cover, label, _ = ring_fixture()
    signs = np.random.default_rng(5).choice([1.0, -1.0], size=len(dataset))
    flipped = BundleDataset(ids=dataset.ids, base=dataset.base * signs[:, None],
                            kind="projective_plane")
    return flipped, cover, label


def _shuffled_ring():
    """The ring with its samples stored in another order under other ids."""
    dataset, cover, label, _ = ring_fixture()
    perm = np.random.default_rng(7).permutation(len(dataset))
    ids = 10**12 - 3 * dataset.ids
    shuffled = BundleDataset(ids=ids[perm], base=dataset.base[perm], kind="projective_plane")
    members = {j: ids[cover.samples[cover.sets == j]].tolist() for j in cover.set_ids.tolist()}
    moved = Cover.of(members, center=cover.center, radius=cover.radius)
    relabel = label_of(moved, {j: (set(ids[sorted(a)].tolist()), None)
                               for j, (a, _) in clusters_of(cover, label).items()})
    return shuffled, moved, relabel


@pytest.mark.parametrize("build", [
    lambda: ring_fixture()[:3],
    lambda: ring_fixture(n=41)[:3],
    _flipped_ring,
    _shuffled_ring,
    two_copy_fixture,
], ids=["ring", "odd-ring", "flipped-ring", "shuffled-ring", "two-copies"])
def test_matches_breadth_first_oracle(build):
    # the union-find passes reproduce the breadth-first unwrap exactly
    dataset, cover, label = build()
    res = unwrap_double_cover(dataset, cover, label)
    ref = bfs_unwrap(dataset, cover, label)
    assert dict(zip(tuples(res.nerve.edges), res.nu.tolist())) == ref["nu"]
    assert (res.components, res.orientations) == (ref["components"], ref["orientations"])
    assert res.cover.set_ids.tolist() == sorted(ref["sets"])
    assert res.dataset.kind == ref["kind"]
    assert np.array_equal(res.dataset.base, ref["base"])
    for cs in cover_sets(res.cover):
        members, center = ref["sets"][cs.id]
        assert cs.members == members and np.array_equal(cs.center, center)
