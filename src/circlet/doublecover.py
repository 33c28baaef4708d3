"""Two-cluster fiber labels: the connectivity sign class and base unwrapping.

A bundle whose fiber is two disjoint circles carries a sign 1-cocycle nu
recording whether the component labels flip across each overlap.  When
nu is a coboundary the total space splits into two circle bundles over
the same base; when it is not, the base unwraps to its double cover and
the labels select a lift of every base point.  For antipodal-quotient
bases the lift is concrete: each cluster picks a hemisphere around its
set's (signed) center, and a parity union-find over the cluster relations
propagates the hemisphere choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cochains import check_sign_cocycle
from .errors import InconsistentClusters, LiftUndefined, PropagationConflict
from .intlinalg import ParityForest
from .nerve import BundleDataset, CoverSet, Nerve, build_nerve
from .witness import Trivialization


# base-point dot products against a set center smaller than this cannot
# select a hemisphere
PERP_TOL = 1e-12


def _validated_clusters(clusters: dict) -> dict[int, tuple[frozenset, frozenset]]:
    out = {}
    for j, parts in clusters.items():
        if len(parts) != 2:
            raise InconsistentClusters(f"set {j} needs exactly two clusters")
        a, b = frozenset(parts[0]), frozenset(parts[1])
        if not a or not b:
            raise InconsistentClusters(f"set {j} has an empty cluster")
        if a & b:
            raise InconsistentClusters(f"clusters of set {j} overlap")
        out[j] = (a, b)
    return out


def connectivity_cocycle(clusters: dict, nerve: Nerve) -> np.ndarray:
    """Sign 1-cochain of two-cluster labels, on the nerve's edges: -1 where the labels flip.

    On every edge the shared samples must realize exactly the two
    matching label combinations (plus/plus with minus/minus, or
    plus/minus with minus/plus); anything else is inconsistent data.
    The result is validated to be a cocycle on the nerve's triangles.
    """
    cl = _validated_clusters(clusters)
    vals = []
    for (j, k) in nerve.edges:
        if j not in cl or k not in cl:
            raise InconsistentClusters(f"edge ({j}, {k}) has an unlabeled set")
        pj, mj = cl[j]
        pk, mk = cl[k]
        meets = (bool(pj & pk), bool(pj & mk), bool(mj & pk), bool(mj & mk))
        if meets not in ((True, False, False, True), (False, True, True, False)):
            raise InconsistentClusters(
                f"edge ({j}, {k}) meets label combinations "
                f"(++, +-, -+, --) = {meets}"
            )
        vals.append(1 if meets[0] else -1)
    nu = np.array(vals, dtype=np.int64)
    check_sign_cocycle(nu, nerve)
    return nu


@dataclass
class UnwrapResult:
    """A dataset lifted to the double cover selected by the labels.

    Attributes
    ----------
    dataset : BundleDataset
        Same sample ids; base points replaced by their chosen lifts when
        the cover unwrapped geometrically.
    cover : list of CoverSet
        Two sets per original set; old id j becomes 2j and 2j + 1 for
        the first and second cluster.
    set_map : dict
        New set id -> (old set id, cluster index).
    components : int
        Connected components of the lifted cover's overlap graph.
    orientations : dict
        New set id -> +-1 hemisphere orientation, for sets that were
        lifted geometrically; absent ids belong to split components.
    nerve : Nerve
        The nerve of the original cover.
    nu : ndarray
        The connectivity sign class of the labels, on that nerve's edges.
    """

    dataset: BundleDataset
    cover: list[CoverSet]
    set_map: dict
    components: int
    orientations: dict
    nerve: Nerve
    nu: np.ndarray


def unwrap_double_cover(
    dataset: BundleDataset,
    cover: list[CoverSet],
    clusters: dict,
) -> UnwrapResult:
    """Split or unwrap a two-cluster dataset along its connectivity class.

    One parity union-find over the nerve's edges, at nu's signs, yields
    the connected pieces of the cover and whether nu is a coboundary on
    each.  Where it is, the piece splits into two disjoint copies and
    base points are left alone.  Otherwise the base must be an antipodal
    quotient: a second union-find over the cluster relations, plus an odd
    edge between the two clusters of the piece's smallest set (the
    seed), gives every cluster a hemisphere orientation, its parity
    relative to the seed's first cluster.  Each sample's base point is
    replaced by the representative on its cluster's hemisphere.
    """
    cl = _validated_clusters(clusters)
    by_id = {c.id: c for c in cover}
    if set(cl) != set(by_id):
        raise InconsistentClusters("cluster labels and cover sets disagree")
    for j, (plus, minus) in cl.items():
        if plus | minus != by_id[j].members:
            raise InconsistentClusters(
                f"clusters of set {j} do not partition its members"
            )
    nerve = build_nerve(cover)
    nu = connectivity_cocycle(clusters, nerve)

    forest = ParityForest()
    odd = [j for (j, k), v in zip(nerve.edges, nu.tolist()) if not forest.union(j, k, v < 0)]
    pieces: dict = {}
    for j in sorted(v[0] for v in nerve.vertices):
        pieces.setdefault(forest.find(j), []).append(j)
    nontrivial = {forest.find(j) for j in odd}

    base = np.array(dataset.base, dtype=float, copy=True)
    orientations: dict[int, int] = {}
    components = 0
    geometric = False

    labeled = {s for parts in cl.values() for part in parts for s in part}
    orphans = [s for s in dataset.ids if s not in labeled]
    if orphans:
        import logging  # loaded only where a warning is logged

        logging.getLogger(__name__).warning(
            "%d samples belong to no cover set; their base points pass through unlifted",
            len(orphans))

    for root, piece in pieces.items():
        if root not in nontrivial:
            # trivial class: the piece separates into two untouched copies
            components += 2
            continue

        # nontrivial class: unwrap the base geometrically
        if dataset.kind != "projective_plane":
            raise ValueError(
                "nontrivial connectivity class over a "
                f"{dataset.kind!r} base; only antipodal-quotient bases "
                "unwrap geometrically"
            )
        centers = {}
        for j in piece:
            if by_id[j].center is None:
                raise ValueError(f"set {j} has no center; cannot pick hemispheres")
            centers[j] = by_id[j].center

        seed = piece[0]
        sheets = ParityForest()
        sheets.union((seed, 0), (seed, 1), True)
        contradicted = None
        for (j, k) in nerve.edges:
            if j not in centers:
                continue
            for cj in (0, 1):
                for ck in (0, 1):
                    shared = cl[j][cj] & cl[k][ck]
                    if not shared:
                        continue
                    signs = set()
                    for s in sorted(shared):
                        v = dataset.base_of(s)
                        dj = float(v @ centers[j])
                        dk = float(v @ centers[k])
                        if abs(dj) < PERP_TOL or abs(dk) < PERP_TOL:
                            raise LiftUndefined(
                                f"sample {s} sits on the boundary of a "
                                "hemisphere around its set center"
                            )
                        signs.add(1 if dj * dk > 0 else -1)
                    if len(signs) > 1:
                        raise PropagationConflict(
                            f"overlap of clusters ({j},{cj}) and ({k},{ck}) "
                            "straddles the antipodal seam"
                        )
                    if not sheets.union((j, cj), (k, ck), signs.pop() < 0):
                        contradicted = contradicted or (k, ck)
        if contradicted:
            raise PropagationConflict(
                f"cluster {contradicted} is reached with contradictory "
                "hemisphere orientations"
            )
        top = sheets.find((seed, 0))
        flip = sheets.parity.get((seed, 0), 0)
        sample_sign: dict = {}
        for j in piece:
            for c in (0, 1):
                if sheets.find((j, c)) != top:
                    raise PropagationConflict(
                        f"cluster graph is disconnected; {(j, c)} was never reached"
                    )
                sheet = -1 if sheets.parity.get((j, c), 0) ^ flip else 1
                orientations[2 * j + c] = sheet
                axis = sheet * centers[j]
                for s in cl[j][c]:
                    v = dataset.base_of(s)
                    eta = 1 if float(v @ axis) > 0 else -1
                    if sample_sign.setdefault(s, eta) != eta:
                        raise PropagationConflict(f"sample {s} needs two different lifts")
            if orientations[2 * j] == orientations[2 * j + 1]:
                raise PropagationConflict(
                    f"both clusters of set {j} landed on the same sheet"
                )
        for s, eta in sample_sign.items():
            base[dataset.position(s)] = eta * dataset.base_of(s)
        components += 1
        geometric = True

    new_cover = []
    set_map = {}
    for j in sorted(by_id):
        old = by_id[j]
        for c in (0, 1):
            nid = 2 * j + c
            o = orientations.get(nid, 1)
            center = None if old.center is None else o * old.center
            new_cover.append(
                CoverSet(id=nid, members=cl[j][c], center=center,
                         radius=old.radius, clipped=old.clipped)
            )
            set_map[nid] = (j, c)

    kind = "sphere" if geometric else dataset.kind
    distances = dataset.distances if kind == dataset.kind else None
    lifted = BundleDataset(ids=dataset.ids, base=base, kind=kind,
                           distances=distances)
    return UnwrapResult(dataset=lifted, cover=new_cover, set_map=set_map,
                        components=components, orientations=orientations, nerve=nerve, nu=nu)


def carry_charts(trivs: Trivialization, result: UnwrapResult) -> Trivialization:
    """Restrict chart tables to the split cover produced by an unwrap.

    Each split set keeps the angles of its parent chart on the samples it
    retained; the fiber data is untouched because the unwrap only relabels
    the base.  Parent sets absent from the trivialization are skipped.
    """
    return trivs.restrict(
        {cs.id: (result.set_map[cs.id][0], cs.members) for cs in result.cover}
    )
