"""The segmented witness layer against its per-overlap oracles, bit for bit.

``tests/oracles.py`` keeps the per-edge and per-triangle computations:
the set-intersection nerve, one minimax fit per edge, and the quality
and edge weights one overlap at a time.  The segmented kernels must give
exactly the same simplices, witness turns and signs, epsilon, deltas and
edge means (``==`` on floats), and the same error type and message when
an edge fails.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet.circle import enclosing_arcs, s1_angle
from circlet.errors import DiameterTooLarge, EmptyOverlap, GuardError
from circlet.nerve import Cover, build_nerve, edge_weights
from circlet.synthetic import (
    gen_disconnected_fiber,
    gen_lens_bundle,
    gen_rp2_bundle,
    gen_s1_bundle,
)
from circlet.witness import (
    assemble_witness,
    coverage_gap,
    procrustes_o2,
    triv_quality,
)

from oracles import (
    O2,
    chart,
    charts_of,
    loop_arc,
    loop_coverage_gap,
    loop_nerve,
    loop_overlap,
    loop_procrustes,
    loop_quality,
    loop_witness,
    o2_values,
    tuples,
    witness_of,
)

SCENARIOS = {
    "lens1": lambda: gen_lens_bundle(1, n_samples=2000, n_sets=16, radius=0.85, seed=0),
    "lens2": lambda: gen_lens_bundle(2, n_samples=2000, n_sets=64, radius=0.44, seed=0),
    "rp2": lambda: gen_rp2_bundle(1, n_samples=2000, n_sets=20, noise=0.02, seed=1),
    "klein": lambda: gen_s1_bundle(orientable=False, n_samples=1500, noise=0.02, seed=2),
    "torus": lambda: gen_s1_bundle(orientable=True, n_samples=3000, n_arcs=16, noise=0.02, seed=3),
}


def assert_layer_matches(cover, trivs, witness_values=None):
    """Nerve, witness, quality and edge weights equal their oracles exactly.

    ``witness_values`` (edge -> O2) replaces the fitted witness for the
    quality and weights, so they can be checked where no fit exists.
    """
    nerve = build_nerve(cover)
    assert {p: tuples(s) for p, s in nerve.simplices.items()} == loop_nerve(cover)
    try:
        expected, worst = loop_witness(trivs, tuples(nerve.edges))
    except GuardError as exc:
        with pytest.raises(type(exc)) as got:
            assemble_witness(trivs, nerve)
        assert str(got.value) == str(exc)
        expected = None
    else:
        witness = assemble_witness(trivs, nerve)
        got = dict(zip(tuples(nerve.edges), zip(witness.turn.tolist(), witness.sign.tolist())))
        assert got == expected
    if witness_values is not None:
        witness = witness_of(nerve, witness_values)
    elif expected is None:
        return
    values = {e: (om.turn, om.sign) for e, om in o2_values(witness).items()}
    want = loop_quality(trivs, values, tuples(nerve.edges), tuples(nerve.triangles))
    q = triv_quality(trivs, witness, nerve)
    rows = zip(tuples(witness.nerve.edges), q.edge_max.tolist(), q.edge_mean.tolist())
    assert list(rows) == want["rows"]
    assert list(zip(witness.turn.tolist(), witness.sign.tolist())) == [
        values[e] for e in tuples(witness.nerve.edges)]
    assert q.epsilon == want["epsilon"]
    assert q.delta_pairwise == want["delta_pairwise"]
    assert q.delta_triple == want["delta_triple"]
    assert q.delta == max(want["delta_pairwise"], want["delta_triple"])
    empty = [e for e in tuples(nerve.edges) if len(loop_overlap(trivs, e)[0]) == 0]
    if empty:
        with pytest.raises(EmptyOverlap, match=rf"edge \({empty[0][0]}, {empty[0][1]}\)"):
            edge_weights(nerve, trivs, witness)
    else:
        weights = edge_weights(nerve, trivs, witness).weights
        assert weights[1].tolist() == [r[2] for r in want["rows"]]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_synth_scenarios_match_oracles(name):
    dataset, cover, trivs = SCENARIOS[name]()
    assert_layer_matches(cover, trivs)


# synth models at their defaults, seed 0: (generator, its first argument)
DEFAULTS = {
    "lens:1": (gen_lens_bundle, 1),
    "rp2:1": (gen_rp2_bundle, 1),
    "torus": (gen_s1_bundle, True),
    "klein": (gen_s1_bundle, False),
    "disconnected:1": (gen_disconnected_fiber, 1),
}


@pytest.mark.parametrize("model", DEFAULTS)
def test_witness_fits_the_stored_angles_as_the_vectors_would(scenario, model):
    """The witness layer reads the charts' stored angles, never their unit vectors.

    That is exact because the stored angles are ``s1_angle`` of the stored
    vectors, bit for bit; so ``assemble_witness`` equals the per-edge fit of
    ``s1_angle`` of the shared chart points, which is how the fit was made
    when it still read the vectors.
    """
    gen, arg = DEFAULTS[model]
    _, cover, trivs = scenario(gen, arg, seed=0)
    assert np.array_equal(s1_angle(trivs.points), trivs.turns)
    nerve = build_nerve(cover)
    wit = assemble_witness(trivs, nerve)
    for (j, k), turn, sign in zip(nerve.edges.tolist(), wit.turn.tolist(), wit.sign.tolist()):
        _, (rj, rk) = loop_overlap(trivs, (j, k))
        turns, signs, _ = procrustes_o2(s1_angle(chart(trivs, j).points[rj]),
                                        s1_angle(chart(trivs, k).points[rk]), [0, len(rj)])
        assert (turns[0], signs[0]) == (turn, sign)


class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1, 15), min_size=1, max_size=9), st.booleans())
    def test_arc_matches_oracle(self, ks, grid):
        # sixteenths of a turn make tied gaps common; random angles rarely tie;
        # -1e-20 reduces to exactly 1.0 mod 1
        rng = np.random.default_rng(len(ks))
        angles = np.array([k / 16.0 if k >= 0 else -1e-20 for k in ks])
        if not grid:
            angles = rng.random(len(ks))
        mid, width, max_gap, mids = loop_arc(angles)
        arc = enclosing_arcs(angles, [0, len(angles)])
        assert arc.ties[0] == len(mids)
        # with tied gaps, the midpoint of the first of them
        assert (arc.midpoint[0], arc.width[0], arc.max_gap[0]) == (mid, width, max_gap)
        assert coverage_gap(angles, [0, len(angles)]) == loop_coverage_gap(angles)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 7), max_size=6), min_size=1, max_size=6))
    def test_segments_are_independent(self, segments):
        angles = np.array([k / 8.0 for seg in segments for k in seg])
        indptr = np.cumsum([0] + [len(seg) for seg in segments])
        arcs = enclosing_arcs(angles, indptr)
        for i, seg in enumerate(segments):
            if not seg:
                assert arcs.max_gap[i] == 1.0 and arcs.ties[i] == 0
                continue
            mid, width, max_gap, mids = loop_arc(np.array(seg) / 8.0)
            assert arcs.ties[i] == len(mids)
            assert (arcs.midpoint[i], arcs.width[i], arcs.max_gap[i]) == (mid, width, max_gap)

    def test_tie_within_tolerance_is_no_candidate(self):
        # gaps 1/2 + 1e-13 and 1/2 - 1e-13 tie: the arc is narrower than a
        # half circle, but not unique, for both the rotation and the reflection
        f = np.array([[1.0, 0.0], [np.cos(np.pi + 2e-13 * np.pi), np.sin(np.pi + 2e-13 * np.pi)]])
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DiameterTooLarge) as want:
            loop_procrustes(f, g)
        with pytest.raises(DiameterTooLarge) as got:
            procrustes_o2(s1_angle(f), s1_angle(g), [0, 2])
        assert str(got.value) == str(want.value)

    def test_tied_rotation_falls_to_the_reflection(self):
        # rotation residuals {0, 1/2} tie; the reflection residuals coincide
        f, g = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]
        assert len(loop_arc([0.0, 0.5])[3]) == 2
        turns, signs, errs = procrustes_o2(s1_angle(f), s1_angle(g), [0, 2])
        assert (turns[0], signs[0], errs[0]) == loop_procrustes(np.array(f), np.array(g))
        assert signs[0] == -1


# small covers: empty sets, single-sample and empty overlaps, reflecting
# charts, and angles on a grid of eighths so that gaps tie
cover_st = st.dictionaries(
    st.integers(0, 6), st.sets(st.integers(0, 9), max_size=7), min_size=1, max_size=5
)


def gauged_charts(domains, grid, draw, consistent=True):
    """Charts of one fiber angle per sample, each under its own O(2) gauge.

    Inconsistent charts draw every value on its own, so fits can fail.
    """
    def angle():
        return draw(st.integers(0, 7)) / 8.0 if grid else draw(st.floats(0.0, 0.999))

    theta = {s: angle() for s in range(10)}
    tables = {}
    for j, ids in domains.items():
        c, sign = draw(st.integers(0, 7)) / 8.0, draw(st.sampled_from([1, -1]))
        tables[j] = {s: (c + sign * (theta[s] if consistent else angle())) % 1.0
                     for s in sorted(ids)}
    return charts_of(tables)


@settings(max_examples=300, deadline=None)
@given(domains=cover_st, grid=st.booleans(), consistent=st.booleans(), data=st.data())
def test_random_covers_match_oracles(domains, grid, consistent, data):
    trivs = gauged_charts(domains, grid, data.draw, consistent)
    cover = Cover.of(domains)
    assert_layer_matches(cover, trivs)
    # an arbitrary witness reaches the quality and the weights even where no fit exists
    nerve = build_nerve(cover)
    values = {e: O2(data.draw(st.integers(0, 7)) / 8.0, data.draw(st.sampled_from([1, -1])))
              for e in tuples(nerve.edges)}
    assert_layer_matches(cover, trivs, values)


@settings(max_examples=100, deadline=None)
@given(domains=cover_st, data=st.data())
def test_charts_narrower_than_the_cover(domains, data):
    # each cover set also holds samples its chart lacks, so overlaps can be empty
    trivs = gauged_charts(domains, True, data.draw)
    cover = Cover.of({j: set(ids) | {10 + j, 20} for j, ids in domains.items()})
    nerve = build_nerve(cover)
    values = {e: O2(0.0, 1) for e in tuples(nerve.edges)}
    assert_layer_matches(cover, trivs, values)


@settings(max_examples=100, deadline=None)
@given(domains=cover_st)
def test_far_apart_member_ids_give_the_same_nerve(domains):
    cover = Cover.of({j: {(s - 5) * 10**15 for s in ids} for j, ids in domains.items()})
    nerve = build_nerve(cover)
    assert {p: tuples(s) for p, s in nerve.simplices.items()} == loop_nerve(cover)


@settings(max_examples=200, deadline=None)
@given(domains=cover_st, data=st.data())
def test_overlap_takes_tuples_in_nerve_order_only(domains, data):
    trivs = gauged_charts(domains, False, data.draw)
    sets = sorted(data.draw(st.permutations(sorted(domains)))[
        : data.draw(st.integers(1, min(3, len(domains))))])
    want_ids, want_rows = loop_overlap(trivs, sets)
    for perm in itertools.permutations(range(len(sets))):
        tup = tuple(sets[i] for i in perm)
        if list(tup) != sets:  # a tuple whose sets do not ascend
            with pytest.raises(ValueError, match="ascending"):
                trivs.overlaps([tup])
            continue
        many = trivs.overlaps([tup])
        assert many.ids.tolist() == want_ids.tolist()
        for p, j in enumerate(sets):
            assert np.array_equal(many.turns[p], chart(trivs, j).turns[want_rows[p]])
    # rows listed twice, or out of lex order
    if len(domains) > 1:
        low, high = sorted(domains)[:2]
        for rows in ([(low,), (low,)], [(high,), (low,)]):
            with pytest.raises(ValueError, match="lex order"):
                trivs.overlaps(rows)
