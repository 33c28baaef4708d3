"""The batched projection pipeline against the per-sample loops it replaced.

``tests/oracles.py`` keeps those loops.  The partition-of-unity weights
and the frame moment must match them bit for bit: for witnesses without
reflections the moment's eigenvalues come in exact pairs, so its
principal basis is fixed only by rounding.  Coordinates, angles and
residuals pass through batched kernels whose last bits may differ
(``np.arctan2`` against ``math.atan2``, stacked products), and must agree
within 1e-12.
"""

import numpy as np
import pytest

from circlet.circle import principal_turn
from circlet.classes import euler_cochain
from circlet.nerve import build_nerve
from circlet.projection import (
    bundle_map,
    frame_field,
    global_trivialize,
    partition_of_unity,
)
from circlet.synthetic import gen_lens_bundle, gen_rp2_bundle, gen_s1_bundle
from circlet.witness import assemble_witness

from oracles import (
    O2,
    loop_bundle_map,
    loop_frames,
    loop_global_angles,
    loop_moment,
    loop_partition_weights,
    o2_values,
    partition_from_rows,
    tuples,
    witness_of,
)

TOL = 1e-12

# the synth inputs of the benchmark's coordinatize and trivialize runs, and rp2:1
CASES = {
    "lens2": (lambda: gen_lens_bundle(2, n_samples=2000, n_sets=64, radius=0.44, seed=0), 4),
    "torus": (lambda: gen_s1_bundle(orientable=True, n_samples=10000, n_arcs=24, seed=0), 4),
    "rp2": (lambda: gen_rp2_bundle(1, n_samples=2000, n_sets=20, seed=0), 6),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, d = CASES[request.param]
    ds, cover, trivs = make()
    nerve = build_nerve(cover)
    wit = assemble_witness(trivs, nerve)
    rho = partition_of_unity(cover, ds)
    rows = loop_partition_weights(cover, ds)
    return request.param, ds, trivs, wit, rho, rows, d


def test_weights_bit_identical(case):
    _, _, _, _, rho, rows, _ = case
    expect = partition_from_rows(rows, rho.sets, rho.mode)
    assert np.array_equal(rho.ids, expect.ids)
    assert np.array_equal(rho.indptr, expect.indptr)
    assert np.array_equal(rho.slots, expect.slots)
    assert np.array_equal(rho.weights, expect.weights)


def test_moment_bit_identical(case):
    _, _, _, wit, rho, rows, _ = case
    expect = loop_moment(loop_frames(o2_values(wit), rows, rho.sets), rho.ambient)
    assert np.array_equal(frame_field(wit, rho).moment(), expect)


def test_bundle_map_matches_loop(case):
    _, _, trivs, wit, rho, rows, d = case
    vectors, overlap, plane, ortho = loop_bundle_map(trivs, o2_values(wit), rows, rho.sets, d)
    bm = bundle_map(trivs, wit, rho, d)
    assert bm.ids.tolist() == sorted(vectors)
    dev = max(float(np.abs(bm.vectors[i] - vectors[s]).max()) for i, s in enumerate(bm.ids.tolist()))
    assert dev <= TOL
    assert abs(bm.overlap_residual - overlap) <= TOL
    assert abs(bm.plane_residual - plane) <= TOL
    assert abs(bm.ortho_residual - ortho) <= TOL


@pytest.mark.parametrize("case", ["torus"], indirect=True)
def test_global_angles_match_loop(case):
    # the torus is the only case with trivial classes
    _, ds, trivs, wit, rho, rows, _ = case
    g = global_trivialize(trivs, wit, rho)
    # the witness conjugated by the reflection fix, in the reference algebra
    fix = {j: O2(0.0, v) for j, v in g.phi.items()}
    hat = {(j, k): fix[j] @ (om @ fix[k].inverse()) for (j, k), om in o2_values(wit).items()}
    lift = euler_cochain(witness_of(wit.nerve, hat)).lift
    shift = dict(zip(tuples(wit.nerve.edges), (lift - g.beta).tolist()))
    angles, residual = loop_global_angles(trivs, rows, g.phi, shift)
    assert g.ids.tolist() == sorted(angles)
    dev = max(abs(principal_turn(t - angles[s])) for s, t in zip(g.ids.tolist(), g.turns.tolist()))
    assert dev <= TOL
    assert abs(g.residual - residual) <= TOL
