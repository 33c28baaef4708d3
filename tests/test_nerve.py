"""Nerve construction, weights, filtration order, and base cutting."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import s1_point
from circlet.errors import EmptyOverlap, GuardError, IndexOutOfRange, ShapeMismatch
from circlet.nerve import (
    BundleDataset,
    Cover,
    Nerve,
    build_nerve,
    base_geodesic,
    cut_base,
    edge_weights,
    filtration_order,
    simplex_weights,
    stage_subcomplex,
)
from circlet.synthetic import gen_lens_bundle, gen_rp2_bundle, gen_s1_bundle

from oracles import (
    O2, charts_of, loop_filtration_order, loop_nerve, nerve_order, tuples, witness_of,
)


def circle_dataset(n=8):
    turns = np.arange(n) / n
    return BundleDataset(
        ids=tuple(range(n)),
        base=np.stack([s1_point(t) for t in turns]),
        kind="circle",
    )


class TestDataset:
    def test_rejects_non_unit_base(self):
        with pytest.raises(ValueError):
            BundleDataset(ids=(0,), base=np.array([[2.0, 0.0]]), kind="circle")

    def test_abstract_needs_distances(self):
        with pytest.raises(ValueError):
            BundleDataset(ids=(0, 1), base=np.zeros((2, 0)), kind="abstract")

    def test_positions(self):
        # a sample's position is its index in the int64 ids column
        ds = BundleDataset(ids=(7, -3, 2**62), base=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                           kind="circle")
        assert ds.ids.dtype == np.int64 and ds.ids.tolist() == [7, -3, 2**62]
        assert ds.base[np.flatnonzero(ds.ids == -3)].tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("ids, again", [
        ((5, 3, 3, 5), 3), ((1, 2, 1, 2), 1), ((4, 9, 4, 4), 4), ((2**62, -1, 2**62), 2**62),
    ])
    def test_duplicate_named_by_the_earliest_second_listing(self, ids, again):
        with pytest.raises(ValueError, match=f"^duplicate id: {again}$"):
            BundleDataset(ids=ids, base=np.tile([1.0, 0.0], (len(ids), 1)), kind="circle")

    def test_geodesic_projective_identifies_antipodes(self):
        p = np.array([[0.0, 0.0, 1.0]])
        assert base_geodesic("projective_plane", p, -p[0])[0] == pytest.approx(0.0)
        assert base_geodesic("sphere", p, -p[0])[0] == pytest.approx(np.pi)


class TestBuildNerve:
    def test_three_arcs_circle(self):
        # pairwise overlaps, no triple overlap
        nerve = build_nerve(Cover.of({0: {0, 1, 2, 3}, 1: {3, 4, 5, 6}, 2: {6, 7, 0}}))
        assert tuples(nerve.vertices) == [(0,), (1,), (2,)]
        assert tuples(nerve.edges) == [(0, 1), (0, 2), (1, 2)]
        assert tuples(nerve.triangles) == []

    def test_disjoint_sets(self):
        nerve = build_nerve(Cover.of({0: {0, 1}, 1: {2, 3}}))
        assert len(nerve.vertices) == 2
        assert tuples(nerve.edges) == []

    def test_common_sample_gives_tetrahedron(self):
        nerve = build_nerve(Cover.of({j: {99, j} for j in range(4)}))
        assert len(nerve.vertices) == 4
        assert len(nerve.edges) == 6
        assert len(nerve.triangles) == 4
        assert tuples(nerve.simplices[3]) == [(0, 1, 2, 3)]

    def test_empty_set_dropped(self):
        nerve = build_nerve(Cover.of({0: {0}, 1: set()}))
        assert tuples(nerve.vertices) == [(0,)]


class TestEdgeWeights:
    def nerve_and_charts(self, misalign=0.0):
        nerve = build_nerve(Cover.of({0: {0, 1}, 1: {1, 2}}))
        charts = charts_of({0: {0: 0.1, 1: 0.2}, 1: {1: 0.2 + misalign, 2: 0.9}})
        witness = witness_of(nerve, {(0, 1): O2(0.0, 1)})
        return nerve, charts, witness

    def test_aligned_weights_zero(self):
        nerve, charts, witness = self.nerve_and_charts()
        out = edge_weights(nerve, charts, witness)
        assert out.weights[1][0] == pytest.approx(0.0)  # edge (0, 1)
        assert out.weights[0][0] == 0.0

    def test_quarter_turn_single_sample(self):
        nerve, charts, witness = self.nerve_and_charts(misalign=0.25)
        out = edge_weights(nerve, charts, witness)
        assert out.weights[1][0] == pytest.approx(np.sqrt(2.0))

    def test_witness_turn_absorbs_offset(self):
        # chart offset matched by the witness rotation: zero weight
        nerve, charts, _ = self.nerve_and_charts(misalign=0.3)
        witness = witness_of(nerve, {(0, 1): O2(-0.3, 1)})
        out = edge_weights(nerve, charts, witness)
        assert out.weights[1][0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_overlap_raises(self):
        nerve = build_nerve(Cover.of({0: {0, 1}, 1: {1, 2}}))
        charts = charts_of({0: {0: 0.1}, 1: {2: 0.9}})
        witness = witness_of(nerve, {(0, 1): O2(0.0, 1)})
        with pytest.raises(EmptyOverlap):
            edge_weights(nerve, charts, witness)

    def test_higher_simplex_inherits_max_facet(self):
        nerve = build_nerve(Cover.of({j: {99, j} for j in range(3)}))
        charts = charts_of(
            {
                0: {99: 0.0, 0: 0.0},
                1: {99: 0.1, 1: 0.0},
                2: {99: 0.25, 2: 0.0},
            }
        )
        witness = witness_of(nerve, dict.fromkeys(tuples(nerve.edges), O2(0.0, 1)))
        out = edge_weights(nerve, charts, witness)
        expected = max(out.weights[1])  # edges (0, 1), (0, 2), (1, 2)
        assert out.weights[2][0] == pytest.approx(expected)


class TestFiltrationOrder:
    def test_zero_weights_dimension_then_lex(self):
        nerve = filtration_order(build_nerve(Cover.of({j: {99, j} for j in range(3)})))
        assert nerve_order(nerve) == [
            (0,),
            (1,),
            (2,),
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 1, 2),
        ]
        assert nerve.stage[0][0] == 1
        assert nerve.stage[2][0] == 7

    def test_distinct_weights_sorted(self):
        nerve = build_nerve(Cover.of({j: {9, j} for j in range(3)}))
        nerve.weights[1][:] = [0.3, 0.1, 0.2]  # edges (0, 1), (0, 2), (1, 2)
        nerve.weights[2][0] = 0.3
        ordered = filtration_order(nerve)
        order = nerve_order(ordered)
        assert order.index((0, 2)) < order.index((1, 2))
        assert order.index((1, 2)) < order.index((0, 1))
        # coface never precedes its faces
        for p in (1, 2):
            faces = ordered.stage[p - 1][ordered.facet_positions(p)]
            assert (faces < ordered.stage[p][:, None]).all()

    def test_exact_ties_perturbed_and_recorded(self):
        nerve = build_nerve(Cover.of({j: {99, j} for j in range(3)}))
        nerve.weights[1][:] = 0.5
        ordered = filtration_order(nerve)
        eff = (ordered.weights[1] + ordered.perturbations[1]).tolist()
        assert len(set(eff)) == 3
        assert ordered.perturbations[1][1] == pytest.approx(1e-15)  # edge (0, 2)
        assert ordered.perturbations[1][2] == pytest.approx(2e-15)  # edge (1, 2)
        # vertices stay untouched at zero
        assert all(ordered.weights[0] + ordered.perturbations[0] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from([0.0, 0.1, 1.0, 3.0]),
        step=st.sampled_from([2e-16, 5e-16, 1.5e-15]),
        ks=st.lists(st.integers(0, 8), min_size=10, max_size=10),
    )
    def test_effective_weights_never_decrease(self, base, step, ks):
        # edges on a few near-tied weights, higher simplices at their
        # largest facet's weight, as edge_weights sets them
        nerve = build_nerve(Cover.of({j: {99, j} for j in range(5)}))
        nerve.weights[1][:] = [base + k * step for k in ks]
        for p in (2, 3):
            nerve.weights[p] = nerve.weights[p - 1][nerve.facet_positions(p)].max(axis=1)
        ordered = filtration_order(nerve)
        eff = ordered.stage_weights().tolist()
        assert all(a <= b for a, b in itertools.pairwise(eff)), eff

    def test_tie_block_stays_below_next_weight(self):
        # three edges tied at 0.1, the fourth 1.5e-15 above them
        members = [{10, 11}, {10, 12}, {11, 12, 13}, {13}]
        nerve = build_nerve(Cover.of(dict(enumerate(members))))
        assert tuples(nerve.edges) == [(0, 1), (0, 2), (1, 2), (2, 3)]
        nerve.weights[1][:] = 0.1
        nerve.weights[1][3] = 0.1 + 1.5e-15  # edge (2, 3)
        ordered = filtration_order(nerve)
        eff = ordered.stage_weights()[4:].tolist()
        assert eff[0] < eff[1] < eff[2] < eff[3] == 0.1 + 1.5e-15


class TestStageSubcomplex:
    def ordered_nerve(self):
        return filtration_order(build_nerve(Cover.of({j: {99, j} for j in range(3)})))

    def test_vertex_prefix(self):
        nerve = self.ordered_nerve()
        sub = stage_subcomplex(nerve, 3)
        assert len(sub.vertices) == 3
        assert tuples(sub.edges) == []

    def test_full_prefix(self):
        nerve = self.ordered_nerve()
        sub = stage_subcomplex(nerve, len(nerve))
        assert {p: tuples(s) for p, s in sub.simplices.items()} == {
            p: tuples(s) for p, s in nerve.simplices.items()}

    def test_face_closure(self):
        nerve = self.ordered_nerve()
        for r in range(1, len(nerve) + 1):
            sub = stage_subcomplex(nerve, r)
            for p, simps in sub.simplices.items():
                for s in tuples(simps):
                    if p > 0:
                        for i in range(p + 1):
                            assert s[:i] + s[i + 1:] in tuples(sub.simplices[p - 1])

    def test_facet_positions_handed_on(self):
        rng = np.random.default_rng(0)
        nerve = build_nerve(Cover.of({j: rng.choice(12, 6, replace=False) for j in range(6)}))
        nerve = filtration_order(simplex_weights(nerve, rng.uniform(size=len(nerve.edges))))
        for q in range(1, 4):
            nerve.facet_positions(q)
        for r in range(1, len(nerve) + 1):
            sub = stage_subcomplex(nerve, r)
            assert sorted(sub._facets) == [1, 2, 3]
            for q in range(1, 4):
                fresh = Nerve(sub.simplices).facet_positions(q)
                assert np.array_equal(sub.facet_positions(q), fresh)

    def test_nerve_is_frozen(self):
        nerve = self.ordered_nerve()
        with pytest.raises(AttributeError):
            nerve.stage = None
        with pytest.raises(ValueError):
            nerve.simplices[1][0, 0] = 5

    def test_order_without_faces_refused(self):
        nerve = self.ordered_nerve()
        # move the first edge in the order to its end
        edge = int(np.argmin(nerve.stage[1]))
        first = nerve.stage[1][edge]
        for stage in nerve.stage.values():
            stage[stage > first] -= 1
        nerve.stage[1][edge] = len(nerve)
        with pytest.raises(GuardError, match="face-closed"):
            stage_subcomplex(nerve, len(nerve) - 1)

    def test_out_of_range(self):
        nerve = self.ordered_nerve()
        with pytest.raises(IndexOutOfRange):
            stage_subcomplex(nerve, 0)
        with pytest.raises(IndexOutOfRange):
            stage_subcomplex(nerve, len(nerve) + 1)


class TestPairs:
    members = st.dictionaries(st.integers(-3, 3),
                              st.sets(st.integers(-4, 4) | st.integers(-2**62, 2**62), max_size=5),
                              max_size=4)

    @settings(max_examples=200, deadline=None)
    @given(members=members, queries=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                                             max_size=12))
    def test_find_locates_every_pair(self, members, queries):
        cover = Cover.of(members)
        where = {(s, j): i for i, (j, s) in enumerate(zip(cover.sets.tolist(),
                                                          cover.samples.tolist()))}
        queries += [(s, j) for j, s in zip(cover.sets.tolist(), cover.samples.tolist())]
        samples, sets = np.array(queries, np.int64).reshape(-1, 2).T
        assert cover.find(samples, sets).tolist() == [where.get(q, -1) for q in queries]


class TestCutBase:
    def setup_cover(self):
        ds = circle_dataset(6)
        cover = Cover.of({0: {0, 1, 2}, 1: {2, 3, 4}, 2: {4, 5, 0}})
        nerve = filtration_order(build_nerve(cover))
        return ds, cover, nerve

    def test_full_stage_keeps_cover(self):
        ds, cover, nerve = self.setup_cover()
        out, log = cut_base(ds, cover, nerve, len(nerve))
        assert np.array_equal(out.samples, cover.samples)
        assert np.array_equal(out.indptr, cover.indptr)
        assert log == []
        assert not out.clipped.any()

    def test_single_edge_removal(self):
        ds, cover, nerve = self.setup_cover()
        out, log = cut_base(ds, cover, nerve, len(nerve) - 1)
        removed_simplex = nerve_order(nerve)[-1]
        (s, victim, removed) = log[0]
        assert s == removed_simplex
        assert victim == max(removed_simplex)
        assert out.clipped.tolist() == [j == victim for j in range(3)]
        # removed samples left the victim but stayed in the other vertex
        other = [j for j in removed_simplex if j != victim][0]
        for sample in removed:
            assert sample not in out.samples[out.sets == victim]
            assert sample in out.samples[out.sets == other]

    def test_nerve_matches_stage(self):
        ds, cover, nerve = self.setup_cover()
        for r in range(len(nerve.vertices), len(nerve) + 1):
            out, _ = cut_base(ds, cover, nerve, r)
            target = stage_subcomplex(nerve, r)
            rebuilt = build_nerve(out)
            assert {p: tuples(v) for p, v in rebuilt.simplices.items()} == {
                p: sorted(tuples(v)) for p, v in target.simplices.items()
            }


# synth inputs the array filtration is compared on: the models' defaults, seeds 0-3
SYNTH_MODELS = {
    "lens:1": (gen_lens_bundle, (1,), {}),
    "rp2:1": (gen_rp2_bundle, (1,), {}),
    "torus": (gen_s1_bundle, (), {"orientable": True}),
    "klein": (gen_s1_bundle, (), {"orientable": False}),
}


def assert_matches_reference_order(nerve, cover=None):
    """Simplices, order, weights and offsets equal the tuple reference, bit for bit."""
    simplices = {p: tuples(s) for p, s in nerve.simplices.items()}
    if cover is not None:
        assert simplices == loop_nerve(cover)
    # the reference weights: edges as weighted, every other simplex the max of its facets
    weights = {s: 0.0 for s in simplices[0]}
    weights.update(zip(simplices[1], nerve.weights[1].tolist()))
    for p in (2, 3):
        for s in simplices[p]:
            weights[s] = max(weights[s[:i] + s[i + 1:]] for i in range(p + 1))
    order, offsets = loop_filtration_order(simplices, weights)
    assert nerve_order(nerve) == order
    for p, simps in simplices.items():
        assert dict(zip(simps, nerve.weights[p].tolist())) == {s: weights[s] for s in simps}
        assert dict(zip(simps, nerve.perturbations[p].tolist())) == {
            s: offsets.get(s, 0.0) for s in simps}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("model", sorted(SYNTH_MODELS))
def test_synth_filtration_matches_reference(scenario, filtered_witness, model, seed):
    gen, args, kwargs = SYNTH_MODELS[model]
    _, cover, _ = scenario(gen, *args, seed=seed, **kwargs)
    nerve = filtered_witness(gen, *args, seed=seed, **kwargs).nerve
    # a triangle ties with its heaviest edge, so a nerve with triangles has tie blocks
    assert any(nerve.perturbations[p].any() for p in (1, 2, 3)) or not len(nerve.triangles)
    assert_matches_reference_order(nerve, cover)


@pytest.mark.parametrize("above", [0.5 + 1e-9, 0.5 + 2.5e-15], ids=["exact-ties", "squeezed-ties"])
def test_hand_built_tie_blocks_match_reference(above):
    # six edges of a full tetrahedron: five tied at 0.5 with the two triangles
    # they close, the sixth above them, either far enough for 1e-15 steps or
    # so close that the block is squeezed below it
    nerve = build_nerve(Cover.of({j: {99, j} for j in range(4)}))
    nerve.weights[1][:] = [0.5] * 5 + [above]
    for p in (2, 3):
        nerve.weights[p] = nerve.weights[p - 1][nerve.facet_positions(p)].max(axis=1)
    ordered = filtration_order(nerve)
    step = ordered.perturbations[1][1]
    assert step == 1e-15 if above > 0.5 + 1e-12 else 0 < step < 1e-15
    assert_matches_reference_order(ordered)
