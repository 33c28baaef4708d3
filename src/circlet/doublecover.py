"""Two-cluster fiber labels: the connectivity sign class and base unwrapping.

A bundle whose fiber is two disjoint circles carries a sign 1-cocycle nu
recording whether the component labels flip across each overlap.  When
nu is a coboundary the total space splits into two circle bundles over
the same base; when it is not, the base unwraps to its double cover and
the labels select a lift of every base point.

The labels are one bool column aligned to the cover's pairs, True in
cluster 0, and nu counts the four label combinations per edge over the
samples its sets share (``witness._shared_rows``).  For
antipodal-quotient bases the lift is concrete: each cluster picks a
hemisphere around its set's (signed) center, the sign of (v.c_j)(v.c_k)
at each shared base point v relating two clusters' hemispheres, and a
parity union-find over those relations, at most four per edge, gives
every pair one lift sign.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cochains import check_sign_cocycle
from .errors import (InconsistentClusters, LiftUndefined, NotUnwrappable, PropagationConflict,
                     SchemaError, ShapeMismatch)
from .intlinalg import ParityForest
from .nerve import BundleDataset, Cover, Nerve, build_nerve
from .witness import _shared_rows


# base-point dot products against a set center smaller than this cannot
# select a hemisphere
PERP_TOL = 1e-12


def _shared_labels(cover: Cover, label: np.ndarray, nerve: Nerve) -> tuple:
    """Every sample an edge's sets share, by edge and then sample, and the labels' class nu.

    Returns each row's edge position, its pairs in the edge's two sets
    and its label combination, 0 to 3 for ++, +-, -+ and --; then nu, as
    ``connectivity_cocycle`` states it.
    """
    which, pick = _shared_rows(cover, np.searchsorted(cover.set_ids, nerve.edges))
    combo = 2 * ~label[pick[:, 0]] + ~label[pick[:, 1]]
    meets = np.bincount(4 * which + combo, minlength=4 * len(nerve.edges)).reshape(-1, 4) > 0
    bad = np.flatnonzero((meets != meets[:, ::-1]).any(axis=1) | (meets[:, 0] == meets[:, 1]))
    if bad.size:
        j, k = nerve.edges[bad[0]].tolist()
        raise InconsistentClusters(f"edge ({j}, {k}) meets label combinations "
                                   f"(++, +-, -+, --) = {tuple(meets[bad[0]].tolist())}")
    nu = np.where(meets[:, 0], 1, -1)
    check_sign_cocycle(nu, nerve)
    return which, pick, combo, nu


def connectivity_cocycle(cover: Cover, label: np.ndarray, nerve: Nerve) -> np.ndarray:
    """Sign 1-cochain of two-cluster labels on the nerve's edges: -1 where the labels flip.

    ``label`` is aligned to the cover's pairs, True in cluster 0.  On
    every edge the shared samples must realize exactly the two matching
    label combinations (plus/plus with minus/minus, or plus/minus with
    minus/plus); anything else is inconsistent data.  The result is
    validated to be a cocycle on the nerve's triangles.
    """
    return _shared_labels(cover, np.asarray(label, bool), nerve)[3]


@dataclass
class UnwrapResult:
    """A dataset lifted to the double cover selected by the labels.

    Attributes
    ----------
    dataset : BundleDataset
        Same sample ids; base points replaced by their chosen lifts when
        the cover unwrapped geometrically.
    cover : Cover
        Two sets per original set: cluster c of set j (c = 0 where the
        label holds) becomes set 2j + c, and its pairs keep every column
        of the input's, so charts in give charts out.
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
    cover: Cover
    components: int
    orientations: dict
    nerve: Nerve
    nu: np.ndarray


def unwrap_double_cover(dataset: BundleDataset, cover: Cover, label: np.ndarray) -> UnwrapResult:
    """Split or unwrap a two-cluster dataset along its connectivity class.

    One parity union-find over the nerve's edges, at nu's signs, yields
    the connected pieces of the cover and whether nu is a coboundary on
    each.  Where it is, the piece splits into two disjoint copies and
    base points are left alone.  Otherwise the base must be an antipodal
    quotient (else ``NotUnwrappable``) and the piece's sets need centers
    (else ``SchemaError``).  Each (edge, cluster, cluster) group of
    shared samples relates two hemispheres; with an odd relation between
    the two clusters of the piece's smallest set (the seed), a second
    union-find gives every cluster an orientation, its parity relative
    to the seed's first cluster.  Each sample's base point is replaced
    by the representative on its clusters' hemisphere.
    """
    label = np.asarray(label, bool)
    nerve = build_nerve(cover)
    which, pick, combo, nu = _shared_labels(cover, label, nerve)

    forest = ParityForest()
    odd = [j for (j, k), v in zip(nerve.edges.tolist(), nu.tolist())
           if not forest.union(j, k, v < 0)]
    pieces: dict = {}
    for j in nerve.vertices[:, 0].tolist():
        pieces.setdefault(forest.find(j), []).append(j)
    nontrivial = {forest.find(j) for j in odd}

    orphans = np.count_nonzero(~np.isin(dataset.ids, cover.samples))
    if orphans:
        import logging  # loaded only where a warning is logged

        logging.getLogger(__name__).warning(
            "%d samples belong to no cover set; their base points pass through unlifted",
            orphans)

    base = dataset.base.copy()
    sheet = np.zeros(2 * len(cover.set_ids), np.int64)  # per new set: +-1 where lifted, else 0
    components = 0
    for root, piece in pieces.items():
        if root not in nontrivial:
            # trivial class: the piece separates into two untouched copies
            components += 2
            continue

        # nontrivial class: unwrap the base geometrically
        if dataset.kind != "projective_plane":
            raise NotUnwrappable(
                "nontrivial connectivity class over a "
                f"{dataset.kind!r} base; only antipodal-quotient bases "
                "unwrap geometrically"
            )
        slots = np.searchsorted(cover.set_ids, piece)
        lacking = np.ones(len(piece), bool) if cover.center is None else np.isnan(
            cover.center[slots]).any(axis=1)
        if lacking.any():
            raise SchemaError(f"set {piece[np.argmax(lacking)]} has no center; "
                              "cannot pick hemispheres")
        if not np.isin(cover.samples, dataset.ids).all():
            raise ShapeMismatch("the cover holds samples outside the dataset")
        order = np.argsort(dataset.ids, kind="stable")
        rows = order[np.searchsorted(dataset.ids, cover.samples, sorter=order)]
        dots = np.einsum("ij,ij->i", dataset.base[rows], cover.center[cover.slots])

        # the piece's shared samples by edge, label combination and sample
        at = np.flatnonzero(np.isin(nerve.edges[which, 0], piece))
        at = at[np.argsort((4 * which + combo)[at], kind="stable")]
        key = (4 * which + combo)[at]
        d = dots[pick[at]]
        flat = np.flatnonzero((np.abs(d) < PERP_TOL).any(axis=1))
        if flat.size:
            raise LiftUndefined(f"sample {cover.samples[pick[at[flat[0]], 0]]} sits on the "
                                "boundary of a hemisphere around its set center")
        flips = d[:, 0] * d[:, 1] <= 0
        head = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = 2 * nerve.edges[key[head] // 4] + np.c_[key[head] % 4 // 2, key[head] % 2]
        mixed = np.flatnonzero(np.logical_and.reduceat(flips, head)
                               != np.logical_or.reduceat(flips, head))
        if mixed.size:
            (j, cj), (k, ck) = (divmod(n, 2) for n in ends[mixed[0]].tolist())
            raise PropagationConflict(f"overlap of clusters ({j},{cj}) and ({k},{ck}) "
                                      "straddles the antipodal seam")

        seed = piece[0]
        sheets = ParityForest()
        sheets.union(2 * seed, 2 * seed + 1, True)
        contradicted = None
        for a, b, o in zip(*ends.T.tolist(), flips[head].tolist()):
            if not sheets.union(a, b, o):
                contradicted = contradicted or divmod(b, 2)
        if contradicted:
            raise PropagationConflict(
                f"cluster {contradicted} is reached with contradictory "
                "hemisphere orientations"
            )
        top = sheets.find(2 * seed)
        flip = sheets.parity.get(2 * seed, 0)
        for j, i in zip(piece, slots.tolist()):
            for c in (0, 1):
                if sheets.find(2 * j + c) != top:
                    raise PropagationConflict(
                        f"cluster graph is disconnected; {(j, c)} was never reached"
                    )
                sheet[2 * i + c] = -1 if sheets.parity.get(2 * j + c, 0) ^ flip else 1
            if sheet[2 * i] == sheet[2 * i + 1]:
                raise PropagationConflict(
                    f"both clusters of set {j} landed on the same sheet"
                )

        # one lift sign per pair of the piece, pairs by sample
        q = cover.by_sample[np.isin(cover.slots, slots)[cover.by_sample]]
        eta = np.where(sheet[2 * cover.slots[q] + ~label[q]] * dots[q] > 0, 1, -1)
        clash = np.flatnonzero((np.diff(cover.samples[q]) == 0) & (np.diff(eta) != 0))
        if clash.size:
            s = cover.samples[q[clash[0]]]
            raise PropagationConflict(f"sample {s} needs two different lifts")
        base[rows[q]] = eta[:, None] * dataset.base[rows[q]]
        components += 1

    new = 2 * cover.slots + ~label  # every pair's new set, by position
    perm = np.argsort(new, kind="stable")
    ids = (2 * cover.set_ids[:, None] + [0, 1]).reshape(-1)
    signs = np.where(sheet == 0, 1, sheet)
    new_cover = replace(
        cover, set_ids=ids, indptr=np.r_[0, np.cumsum(np.bincount(new, minlength=len(ids)))],
        center=None if cover.center is None else signs[:, None] * np.repeat(cover.center, 2, 0),
        radius=None if cover.radius is None else np.repeat(cover.radius, 2),
        clipped=np.repeat(cover.clipped, 2), **{c: getattr(cover, c)[perm] for c in cover._columns})
    orientations = dict(zip(ids[sheet != 0].tolist(), sheet[sheet != 0].tolist()))
    kind = "sphere" if sheet.any() else dataset.kind
    distances = dataset.distances if kind == dataset.kind else None
    lifted = BundleDataset(ids=dataset.ids, base=base, kind=kind, distances=distances)
    return UnwrapResult(dataset=lifted, cover=new_cover, components=components,
                        orientations=orientations, nerve=nerve, nu=nu)

