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
    PropagationConflict,
)
from circlet.intlinalg import solve_gf2
from circlet.nerve import BundleDataset, CoverSet, build_nerve
from oracles import bfs_unwrap

TAU = 2 * math.pi

# chosen double-cover preimage interval of each ring set
INTERVALS = {0: (-0.2, 0.7), 1: (0.4, 1.3), 2: (1.0, math.pi + 0.1)}


def in_arc(x, lo, hi, period=TAU):
    return (x - lo) % period < (hi - lo)


def ring_fixture(n=40):
    """Three-set chain along a projective line, connected double cover.

    Returns (dataset, cover, clusters, angles).  Cluster 0 of set j holds
    the samples whose double-cover angle lies in the set's chosen
    preimage interval; cluster 1 holds the antipodal preimage.
    """
    angles = [TAU * t / n for t in range(n)]
    base = np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])
    clusters = {}
    cover = []
    for j, (lo, hi) in INTERVALS.items():
        c0 = {t for t, a in enumerate(angles) if in_arc(a, lo, hi)}
        c1 = {t for t, a in enumerate(angles)
              if in_arc(a, lo + math.pi, hi + math.pi)}
        clusters[j] = (frozenset(c0), frozenset(c1))
        mid = (lo + hi) / 2
        cover.append(CoverSet(
            id=j, members=c0 | c1,
            center=np.array([math.cos(mid), math.sin(mid), 0.0]),
            radius=(hi - lo) / 2,
        ))
    dataset = BundleDataset(ids=tuple(range(n)), base=base,
                            kind="projective_plane")
    return dataset, cover, clusters, angles


def two_copy_fixture(n=20):
    """Two disjoint circle-bundle copies over a three-arc circle cover."""
    arcs = {0: (-0.7, 1.7), 1: (1.2, 3.5), 2: (3.0, 5.9)}
    angles = [TAU * t / n for t in range(n)]
    point = [[math.cos(a), math.sin(a)] for a in angles]
    ids = tuple(100 + t for t in range(n)) + tuple(200 + t for t in range(n))
    base = np.array(point + point)
    clusters = {}
    cover = []
    for j, (lo, hi) in arcs.items():
        hit = {t for t, a in enumerate(angles) if in_arc(a, lo, hi)}
        a_part = frozenset(100 + t for t in hit)
        b_part = frozenset(200 + t for t in hit)
        clusters[j] = (a_part, b_part)
        mid = (lo + hi) / 2
        cover.append(CoverSet(
            id=j, members=a_part | b_part,
            center=np.array([math.cos(mid), math.sin(mid)]),
            radius=(hi - lo) / 2,
        ))
    return BundleDataset(ids=ids, base=base, kind="circle"), cover, clusters


class TestConnectivityCocycle:
    def test_ring_sign_pattern(self):
        dataset, cover, clusters, _ = ring_fixture()
        nerve = build_nerve(cover)
        assert nerve.edges == [(0, 1), (0, 2), (1, 2)]
        assert not nerve.triangles
        nu = connectivity_cocycle(clusters, nerve)
        assert nu.tolist() == [1, -1, 1]

    def test_globally_consistent_labels(self):
        dataset, cover, clusters = two_copy_fixture()
        nu = connectivity_cocycle(clusters, build_nerve(cover))
        assert set(nu.tolist()) == {1}

    def test_flip_one_set_changes_by_its_coboundary(self):
        _, cover, clusters, _ = ring_fixture()
        nerve = build_nerve(cover)
        nu = connectivity_cocycle(clusters, nerve)
        flipped = dict(clusters)
        flipped[1] = (clusters[1][1], clusters[1][0])
        nu2 = connectivity_cocycle(flipped, nerve)
        for (j, k) in nerve.edges:
            factor = -1 if 1 in (j, k) else 1
            i = nerve.edges.index((j, k))
            assert nu2[i] == factor * nu[i]

    def test_empty_cluster_rejected(self):
        _, cover, clusters, _ = ring_fixture()
        bad = dict(clusters)
        bad[0] = (clusters[0][0] | clusters[0][1], frozenset())
        with pytest.raises(InconsistentClusters):
            connectivity_cocycle(bad, build_nerve(cover))

    def test_overlapping_clusters_rejected(self):
        _, cover, clusters, _ = ring_fixture()
        some = next(iter(clusters[0][0]))
        bad = dict(clusters)
        bad[0] = (clusters[0][0], clusters[0][1] | {some})
        with pytest.raises(InconsistentClusters):
            connectivity_cocycle(bad, build_nerve(cover))

    def test_mixed_combination_rejected(self):
        # moving one shared sample across set 1's clusters makes the
        # (0,1) overlap meet three label combinations
        _, cover, clusters, angles = ring_fixture()
        moved = next(t for t in clusters[0][0] & clusters[1][0]
                     if in_arc(angles[t], 0.4, 0.7))
        bad = dict(clusters)
        bad[1] = (clusters[1][0] - {moved}, clusters[1][1] | {moved})
        with pytest.raises(InconsistentClusters):
            connectivity_cocycle(bad, build_nerve(cover))

    def test_unlabeled_edge_rejected(self):
        _, cover, clusters, _ = ring_fixture()
        with pytest.raises(InconsistentClusters):
            connectivity_cocycle({0: clusters[0], 1: clusters[1]},
                                 build_nerve(cover))


class TestUnwrapTrivial:
    def test_two_disjoint_copies(self):
        dataset, cover, clusters = two_copy_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        assert isinstance(res, UnwrapResult)
        assert len(res.cover) == 6
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
        dataset, cover, clusters = two_copy_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        for nid, (j, c) in res.set_map.items():
            assert nid == 2 * j + c
            new_set = next(s for s in res.cover if s.id == nid)
            assert new_set.members == clusters[j][c]


class TestUnwrapGeometric:
    def test_connected_six_set_lift(self):
        dataset, cover, clusters, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        assert len(res.cover) == 6
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
        dataset, cover, clusters, angles = ring_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        labeled = set().union(*(p for parts in clusters.values() for p in parts))
        dots = []
        for t in sorted(labeled):
            truth = dataset.base_of(t)
            dots.append(float(res.dataset.base[res.dataset.position(t)] @ truth))
        assert set(round(d, 9) for d in dots) in ({1.0}, {-1.0})

    def test_orientations_oppose_within_a_set(self):
        dataset, cover, clusters, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        for j in (0, 1, 2):
            assert res.orientations[2 * j] == -res.orientations[2 * j + 1]

    def test_pulled_back_class_bounds(self):
        dataset, cover, clusters, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        nu = dict(zip(res.nerve.edges, res.nu.tolist()))
        assert res.nu.tolist() == connectivity_cocycle(clusters, build_nerve(cover)).tolist()
        lifted = build_nerve(res.cover)
        edges = lifted.edges
        verts = [v[0] for v in lifted.vertices]
        col = {v: i for i, v in enumerate(verts)}
        A = np.zeros((len(edges), len(verts)), dtype=np.uint8)
        b = np.zeros(len(edges), dtype=np.uint8)
        for i, (a, c) in enumerate(edges):
            A[i, col[a]] = 1
            A[i, col[c]] = 1
            ja, jc = res.set_map[a][0], res.set_map[c][0]
            edge = (min(ja, jc), max(ja, jc))
            b[i] = 0 if nu[edge] == 1 else 1
        assert solve_gf2(A, b) is not None

    def test_lifted_centers_follow_orientation(self):
        dataset, cover, clusters, _ = ring_fixture()
        res = unwrap_double_cover(dataset, cover, clusters)
        old = {c.id: c for c in cover}
        for s in res.cover:
            j, _ = res.set_map[s.id]
            o = res.orientations[s.id]
            assert np.allclose(s.center, o * old[j].center)

    def test_partition_must_cover_members(self):
        dataset, cover, clusters, _ = ring_fixture()
        some = next(iter(clusters[2][1]))
        bad = dict(clusters)
        bad[2] = (clusters[2][0], clusters[2][1] - {some})
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(InconsistentClusters):
                unwrap(dataset, cover, bad)

    def test_seam_conflict_detected(self):
        # corrupt one shared sample so its hemisphere vote disagrees
        # with its cluster mates
        dataset, cover, clusters, angles = ring_fixture()
        shared = sorted(clusters[0][0] & clusters[1][0])
        victim = shared[-1]
        c0, c1 = cover[0].center, cover[1].center
        u = 0.9 * c0 - 1.0 * c1
        u /= np.linalg.norm(u)
        assert float(u @ c0) > 0 > float(u @ c1)
        base = np.array(dataset.base, copy=True)
        base[victim] = u
        broken = BundleDataset(ids=dataset.ids, base=base,
                               kind="projective_plane")
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(PropagationConflict):
                unwrap(broken, cover, clusters)

    def test_equatorial_sample_rejected(self):
        dataset, cover, clusters, _ = ring_fixture()
        victim = sorted(clusters[0][0] & clusters[1][0])[0]
        c0 = cover[0].center
        perp = np.array([-c0[1], c0[0], 0.0])
        base = np.array(dataset.base, copy=True)
        base[victim] = perp / np.linalg.norm(perp)
        broken = BundleDataset(ids=dataset.ids, base=base,
                               kind="projective_plane")
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(LiftUndefined):
                unwrap(broken, cover, clusters)

    def test_wrong_base_kind_rejected(self):
        # crossing the two copies inside set 2 makes the class
        # nontrivial, and a circle-kind base cannot unwrap
        dataset, cover, clusters = two_copy_fixture(n=20)
        angles = {100 + t: TAU * t / 20 for t in range(20)}
        angles.update({200 + t: TAU * t / 20 for t in range(20)})
        low = {s for s in cover[2].members if in_arc(angles[s], 3.0, 4.5)}
        high = cover[2].members - low
        a_side = {s for s in cover[2].members if s < 200}
        crossed = dict(clusters)
        crossed[2] = (frozenset((high & a_side) | (low - a_side)),
                      frozenset((low & a_side) | (high - a_side)))
        nerve = build_nerve(cover)
        nu = connectivity_cocycle(crossed, nerve)
        assert dict(zip(nerve.edges, nu.tolist())) == {(0, 1): 1, (0, 2): 1, (1, 2): -1}
        for unwrap in (unwrap_double_cover, bfs_unwrap):
            with pytest.raises(ValueError, match="antipodal"):
                unwrap(dataset, cover, crossed)

    def test_stored_sign_convention_is_irrelevant(self):
        # projective base points are only defined up to sign; flipping
        # stored representatives must not change the lifted structure
        dataset, cover, clusters, _ = ring_fixture()
        rng = np.random.default_rng(5)
        signs = rng.choice([1.0, -1.0], size=len(dataset))
        base = dataset.base * signs[:, None]
        flipped = BundleDataset(ids=dataset.ids, base=base,
                                kind="projective_plane")
        a = unwrap_double_cover(dataset, cover, clusters)
        b = unwrap_double_cover(flipped, cover, clusters)
        assert a.orientations == b.orientations
        # both lifts agree up to one global antipodal flip
        dots = [float(a.dataset.base[i] @ b.dataset.base[i])
                for i in range(len(dataset))]
        assert set(round(d, 9) for d in dots) in ({1.0}, {-1.0})


def _flipped_ring():
    dataset, cover, clusters, _ = ring_fixture()
    signs = np.random.default_rng(5).choice([1.0, -1.0], size=len(dataset))
    flipped = BundleDataset(ids=dataset.ids, base=dataset.base * signs[:, None],
                            kind="projective_plane")
    return flipped, cover, clusters


@pytest.mark.parametrize("build", [
    lambda: ring_fixture()[:3],
    lambda: ring_fixture(n=41)[:3],
    _flipped_ring,
    two_copy_fixture,
], ids=["ring", "odd-ring", "flipped-ring", "two-copies"])
def test_matches_breadth_first_oracle(build):
    # the union-find passes reproduce the breadth-first unwrap exactly
    dataset, cover, clusters = build()
    res = unwrap_double_cover(dataset, cover, clusters)
    ref = bfs_unwrap(dataset, cover, clusters)
    assert dict(zip(res.nerve.edges, res.nu.tolist())) == ref["nu"]
    assert (res.components, res.orientations, res.set_map) == (
        ref["components"], ref["orientations"], ref["set_map"])
    assert res.dataset.kind == ref["kind"]
    assert np.array_equal(res.dataset.base, ref["base"])
    for cs in res.cover:
        members, center = ref["sets"][cs.id]
        assert cs.members == members and np.array_equal(cs.center, center)
