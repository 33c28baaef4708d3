"""Tests for cobirth/codeath thresholds along the weights filtration.

Expected stages for cycle covers follow from parity: a sign class on a
closed loop of n sets is solvable exactly while some loop edge is still
missing, so an odd loop dies one stage before the top.  The sweep is
compared against the authoritative per-stage scan throughout (it also
runs internally; disagreement raises).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import circlet
import circlet.intlinalg
from circlet.classes import euler_cochain, sw_class
from circlet.errors import GuardError, NotACocycle, ShapeMismatch
from circlet.nerve import CoverSet, build_nerve, edge_weights, filtration_order, stage_subcomplex
from circlet.persistence import (
    PersistenceReport,
    StageProbe,
    ThresholdPair,
    persistence,
    persistence_brute,
    persistence_report,
)
from circlet.synthetic import gen_lens_bundle, gen_rp2_bundle, gen_s1_bundle
from circlet.witness import assemble_witness

from oracles import O2, witness_of
from test_classes import gauge_witness, nerve_from_tops, rotation_witness


def cycle_nerve(n=12, seed=3):
    """Closed chain of n sets, consecutive overlaps only, distinct weights."""
    cover = [CoverSet(id=j, members={j, (j + 1) % n}) for j in range(n)]
    nerve = build_nerve(cover)
    assert not nerve.triangles
    rng = np.random.default_rng(seed)
    for e in nerve.edges:
        nerve.weights[e] = float(rng.uniform(0.1, 0.9))
    return filtration_order(nerve)


def weighted(nerve, seed=11):
    rng = np.random.default_rng(seed)
    for e in nerve.edges:
        nerve.weights[e] = float(rng.uniform(0.1, 0.9))
    for t in nerve.triangles:
        nerve.weights[t] = max(nerve.weights[(t[0], t[1])],
                               nerve.weights[(t[0], t[2])],
                               nerve.weights[(t[1], t[2])])
    for q in nerve.tetrahedra:
        nerve.weights[q] = max(nerve.weights[f] for f in nerve.triangles
                               if set(f) <= set(q))
    return filtration_order(nerve)


def sign_cochain(nerve, minus_edges=()):
    minus = {tuple(sorted(e)) for e in minus_edges}
    return np.array([-1 if e in minus else 1 for e in nerve.edges])


def zero_class(nerve):
    return np.zeros(len(nerve.triangles), dtype=np.int64)


def restrict(values, nerve, sub, p):
    """An array on the nerve's p-simplices, cut to those of the subcomplex ``sub``."""
    at = {s: i for i, s in enumerate(nerve.simplices[p])}
    return values[[at[s] for s in sub.simplices[p]]]


class TestSignThresholds:
    def test_even_loop_lives_to_the_top(self):
        nerve = cycle_nerve()
        pair = persistence(sign_cochain(nerve), nerve, 1)
        assert pair.cobirth_index == len(nerve) == 24
        assert pair.codeath_index == 24
        assert pair.cobirth_weight == pytest.approx(
            nerve.weight_at(nerve.order[-1]))

    def test_odd_loop_dies_one_stage_early(self):
        # one reflection edge makes the loop holonomy nontrivial; the
        # class is solvable until the last loop edge completes the cycle
        nerve = cycle_nerve()
        pair = persistence(sign_cochain(nerve, [(0, 1)]), nerve, 1)
        assert pair.cobirth_index == 24
        assert pair.codeath_index == 23
        assert pair.codeath_weight < pair.cobirth_weight

    def test_parity_decides_death(self):
        nerve = cycle_nerve(n=8, seed=5)
        top = len(nerve)  # 16
        for edges, parity_odd in [
            ([(0, 1), (3, 4)], False),
            ([(2, 3)], True),
            ([(0, 1), (1, 2), (4, 5)], True),
            ([(0, 7), (5, 6), (1, 2), (6, 7)], False),
        ]:
            pair = persistence(sign_cochain(nerve, edges), nerve, 1)
            assert pair.cobirth_index == top
            assert pair.codeath_index == (top - 1 if parity_odd else top)

    def test_death_stage_ignores_which_edge_is_heaviest(self):
        # the loop only closes at the full stage, so an odd class dies at
        # the penultimate stage no matter where the reflection edge sits
        for seed in (1, 2, 9):
            nerve = cycle_nerve(seed=seed)
            for minus in [(0, 1), (5, 6), (0, 11)]:
                pair = persistence(sign_cochain(nerve, [minus]), nerve, 1)
                assert pair.codeath_index == 23

    def test_violation_sets_cobirth(self):
        # a single reflection edge on a filled triangle breaks the
        # cocycle identity there; the class is born just below the
        # triangle and already unsolvable with all three edges present
        nerve = weighted(nerve_from_tops([(0, 1, 2)]))
        lam = sign_cochain(nerve, [(0, 1)])
        assert nerve.index[(0, 1, 2)] == 7
        pair = persistence(lam, nerve, 1)
        assert pair.cobirth_index == 6
        assert pair.codeath_index == 5

    def test_cocycle_on_filled_triangle_survives(self):
        nerve = weighted(nerve_from_tops([(0, 1, 2)]))
        pair = persistence(sign_cochain(nerve, [(0, 1), (0, 2)]), nerve, 1)
        assert pair.cobirth_index == len(nerve) == 7
        assert pair.codeath_index == 7

    def test_matches_brute_on_random_patterns(self):
        nerve = cycle_nerve(n=8, seed=13)
        rng = np.random.default_rng(0)
        edges = nerve.edges
        for _ in range(25):
            minus = [e for e in edges if rng.uniform() < 0.5]
            lam = sign_cochain(nerve, minus)
            fast = persistence(lam, nerve, 1, cross_check=False)
            slow = persistence_brute(StageProbe(lam, nerve, 1))
            assert (fast.cobirth_index, fast.codeath_index) == (
                slow.cobirth_index, slow.codeath_index)

    def test_threshold_pair_orders_itself(self):
        with pytest.raises(GuardError):
            ThresholdPair(3, 0.5, 4, 0.6)

    def test_ordering_survives_optimized_interpreter(self):
        # python -O strips assert statements; the ordering check must stay
        code = (
            "from circlet.errors import GuardError\n"
            "from circlet.persistence import ThresholdPair\n"
            "try:\n"
            "    ThresholdPair(3, 0.5, 4, 0.6)\n"
            "except GuardError:\n"
            "    print('refused')\n"
        )
        src = os.path.dirname(os.path.dirname(circlet.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "refused"


class TestEulerThresholds:
    def test_unit_class_dies_below_last_triangle(self):
        # the hand built class pairs to one against the sphere cycle, so
        # it is not a coboundary while all four faces are present; with
        # any face missing the base is a disk and everything solves
        nerve = weighted(tetra_boundary_nerve(), seed=2)
        turns = {e: 0.0 for e in nerve.edges}
        turns[(0, 1)] = 0.33
        turns[(1, 2)] = 0.33
        turns[(0, 2)] = -0.33
        res = euler_cochain(rotation_witness(nerve, turns))
        pair = persistence(res.euler, nerve, 2, res.sw)
        assert pair.cobirth_index == len(nerve) == 14
        assert pair.codeath_index == 13

    def test_zero_class_survives_everywhere(self):
        nerve = weighted(tetra_boundary_nerve(), seed=4)
        pair = persistence(zero_class(nerve), nerve, 2)
        assert (pair.cobirth_index, pair.codeath_index) == (14, 14)

    def test_max_stage_clip(self):
        nerve = weighted(tetra_boundary_nerve(), seed=2)
        turns = {e: 0.0 for e in nerve.edges}
        turns[(0, 1)] = 0.33
        turns[(1, 2)] = 0.33
        turns[(0, 2)] = -0.33
        res = euler_cochain(rotation_witness(nerve, turns))
        sub = stage_subcomplex(nerve, 10)
        pair = persistence(restrict(res.euler, nerve, sub, 2), sub, 2,
                           restrict(res.sw, nerve, sub, 1))
        # stage 10 holds vertices and edges only: nothing to violate,
        # nothing to solve for
        assert (pair.cobirth_index, pair.codeath_index) == (10, 10)

    def test_twisted_solve_path(self):
        # reflection gauges give a nonconstant sign class; the zero euler
        # class must still solve through the twisted boundary at every
        # stage
        nerve = weighted(tetra_boundary_nerve(), seed=8)
        gauges = {
            0: O2(0.02, 1), 1: O2(0.045, -1),
            2: O2(0.013, 1), 3: O2(0.037, -1),
        }
        res = euler_cochain(gauge_witness(nerve, gauges))
        assert -1 in res.sw.tolist()
        assert not res.euler.any()
        pair = persistence(res.euler, nerve, 2, res.sw)
        assert (pair.cobirth_index, pair.codeath_index) == (14, 14)

    def test_twist_must_be_a_cocycle_where_probed(self):
        nerve = weighted(tetra_boundary_nerve(), seed=8)
        bad = sign_cochain(nerve, [nerve.edges[0]])
        with pytest.raises(NotACocycle):
            persistence(zero_class(nerve), nerve, 2, bad, cross_check=False)

    def test_sweep_never_asks_the_per_stage_solver(self, monkeypatch):
        calls = []
        real = circlet.intlinalg.integer_solvable

        def counted(rows, rhs):
            calls.append(len(rows))
            return real(rows, rhs)

        monkeypatch.setattr(circlet.persistence, "integer_solvable", counted)
        monkeypatch.setattr(circlet.intlinalg, "integer_solvable", counted)
        nerve = weighted(tetra_boundary_nerve(), seed=2)
        turns = {e: 0.0 for e in nerve.edges}
        turns[(0, 1)] = 0.33
        turns[(1, 2)] = 0.33
        turns[(0, 2)] = -0.33
        res = euler_cochain(rotation_witness(nerve, turns))
        pair = persistence(res.euler, nerve, 2, res.sw, cross_check=False)
        assert (pair.cobirth_index, pair.codeath_index) == (14, 13)
        assert calls == []
        # the scan solves each distinct prefix of the four faces once,
        # though all 14 stages are scanned
        persistence(res.euler, nerve, 2, res.sw, cross_check=True)
        assert sorted(calls) == [0, 1, 2, 3, 4]

    def test_one_probe_serves_sweep_and_scan(self, monkeypatch):
        # the rows and violation stages are built once per call, cross-check included
        built = []
        real = circlet.persistence.coboundary_rows
        monkeypatch.setattr(circlet.persistence, "coboundary_rows",
                            lambda *a: built.append(a) or real(*a))
        nerve = weighted(tetra_boundary_nerve(), seed=2)
        res = euler_cochain(rotation_witness(nerve, {e: 0.1 for e in nerve.edges}))
        persistence(res.euler, nerve, 2, res.sw, cross_check=True)
        assert len(built) == 1

    def test_rejects_wrong_shapes(self):
        # a class must be an array on the edges (signs) or the triangles (integers)
        nerve = weighted(tetra_boundary_nerve(), seed=2)
        with pytest.raises(ShapeMismatch):
            persistence(np.zeros(len(nerve.edges)), nerve, 2)
        with pytest.raises(ShapeMismatch):
            persistence(np.zeros(len(nerve.tetrahedra)), nerve, 3)


def tetra_boundary_nerve():
    return nerve_from_tops([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def tetra_beside_triangle(triangle_weight):
    """A filled tetrahedron on 0..3 at weight 0.3 beside a triangle on 3, 4, 5.

    The tetrahedron's faces enter below 0.25 and the triangle's edges at
    0.25, so the triangle enters just before or just after the
    tetrahedron.
    """
    nerve = nerve_from_tops([(0, 1, 2, 3), (3, 4, 5)])
    for p in (1, 2, 3):
        for s in nerve.simplices[p]:
            nerve.weights[s] = 0.25 if max(s) > 3 else 0.1 * p
    nerve.weights[(3, 4, 5)] = triangle_weight
    return filtration_order(nerve)


class TestTwistBreak:
    """NotACocycle exactly when the twist breaks at or before cobirth."""

    def twisted_class(self, nerve):
        # one reflection edge breaks the twist on the triangle 3, 4, 5; a
        # unit on one face breaks the class on the tetrahedron
        twist = sign_cochain(nerve, [(3, 4)])
        return np.array([int(t == (0, 1, 2)) for t in nerve.triangles]), twist

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_twist_breaking_at_cobirth_raises(self, cross_check):
        nerve = tetra_beside_triangle(0.28)
        cobirth = nerve.index[(0, 1, 2, 3)] - 1
        assert nerve.index[(3, 4, 5)] == cobirth
        lam, twist = self.twisted_class(nerve)
        with pytest.raises(NotACocycle):
            persistence(lam, nerve, 2, twist, cross_check=cross_check)

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_twist_breaking_after_cobirth_is_never_probed(self, cross_check):
        nerve = tetra_beside_triangle(0.35)
        cobirth = nerve.index[(0, 1, 2, 3)] - 1
        assert nerve.index[(3, 4, 5)] == cobirth + 2
        lam, twist = self.twisted_class(nerve)
        pair = persistence(lam, nerve, 2, twist, cross_check=cross_check)
        # the class pairs to one with the tetrahedron's boundary sphere, so
        # it dies when the last face closes that sphere
        assert (pair.cobirth_index, pair.codeath_index) == (
            cobirth, nerve.index[(1, 2, 3)] - 1)

    def test_zero_class_under_a_broken_twist(self):
        nerve = tetra_beside_triangle(0.35)
        zero, twist = zero_class(nerve), sign_cochain(nerve, [(3, 4)])
        with pytest.raises(NotACocycle):
            persistence(zero, nerve, 2, twist, cross_check=False)
        with pytest.raises(NotACocycle):
            persistence_brute(StageProbe(zero, nerve, 2, twist))
        sub = stage_subcomplex(nerve, len(nerve) - 1)
        pair = persistence(zero_class(sub), sub, 2, restrict(twist, nerve, sub, 1),
                           cross_check=True)
        assert (pair.cobirth_index, pair.codeath_index) == (len(sub), len(sub))


class TestCrossCheck:
    def test_explicit_flag_forces_brute(self):
        nerve = cycle_nerve(seed=21)
        lam = sign_cochain(nerve, [(3, 4)])
        a = persistence(lam, nerve, 1, cross_check=True)
        b = persistence(lam, nerve, 1, cross_check=False)
        assert (a.cobirth_index, a.codeath_index) == (
            b.cobirth_index, b.codeath_index)

    def test_disagreement_is_a_guard_error(self, monkeypatch):
        nerve = cycle_nerve(seed=21)
        lam = sign_cochain(nerve, [(3, 4)])
        good = persistence_brute(StageProbe(lam, nerve, 1))
        off = ThresholdPair(good.cobirth_index, good.cobirth_weight,
                            good.codeath_index - 1, good.codeath_weight)
        monkeypatch.setattr(
            circlet.persistence, "persistence_brute", lambda *a, **k: off
        )
        with pytest.raises(GuardError, match="disagrees with per-stage scan"):
            persistence(lam, nerve, 1, cross_check=True)

    def test_brute_respects_max_stage(self):
        nerve = cycle_nerve(seed=21)
        lam = sign_cochain(nerve, [(3, 4)])
        sub = stage_subcomplex(nerve, 15)
        pair = persistence_brute(StageProbe(restrict(lam, nerve, sub, 1), sub, 1))
        assert pair.cobirth_index == 15
        assert pair.codeath_index == 15  # 3 loop edges still missing


def synthetic_stages(make):
    """Sign and Euler (cobirth, codeath) stages of a synthetic bundle, cross-checked."""
    _, cover, trivs = make()
    nerve = build_nerve(cover)
    nerve = filtration_order(edge_weights(nerve, trivs, assemble_witness(trivs, nerve)))
    wit = assemble_witness(trivs, nerve)
    sw = persistence(sw_class(wit), nerve, 1, cross_check=True)
    sub = stage_subcomplex(nerve, sw.cobirth_index)
    res = euler_cochain(wit.restrict(sub))
    eu = persistence(res.euler, sub, 2, res.sw, cross_check=True)
    return sw.cobirth_index, sw.codeath_index, eu.cobirth_index, eu.codeath_index


# stages as the binary search and the per-stage scan agreed on them
# before the sweep replaced the search
PINNED = {
    "lens:1": (lambda: gen_lens_bundle(1, n_samples=1000, n_sets=20, seed=1), (142, 142, 142, 139)),
    "lens:2": (lambda: gen_lens_bundle(2, n_samples=1000, n_sets=24, seed=0), (162, 162, 162, 159)),
    "rp2:1": (lambda: gen_rp2_bundle(1, n_samples=1000, n_sets=20, seed=0), (198, 41, 198, 171)),
    "klein": (lambda: gen_s1_bundle(False, seed=0), (24, 23, 24, 24)),
    "torus": (lambda: gen_s1_bundle(True, seed=0), (24, 24, 24, 24)),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sweep_and_scan_keep_the_pinned_stages(name):
    make, stages = PINNED[name]
    assert synthetic_stages(make) == stages


class TestReport:
    def test_product_bundle_report(self):
        nerve = weighted(tetra_boundary_nerve(), seed=6)
        gauges = {j: O2(0.011 * (j + 1), 1) for j in range(4)}
        report = persistence_report(gauge_witness(nerve, gauges), nerve)
        assert isinstance(report, PersistenceReport)
        assert (report.sw.cobirth_index, report.sw.codeath_index) == (14, 14)
        assert (report.euler.cobirth_index, report.euler.codeath_index) == (14, 14)
        assert report.w_max == pytest.approx(nerve.weight_at(nerve.order[-1]))
        assert report.stage_sizes == {0: 4, 1: 6, 2: 4}

    def test_unit_class_report(self):
        nerve = weighted(tetra_boundary_nerve(), seed=2)
        turns = {e: 0.0 for e in nerve.edges}
        turns[(0, 1)] = 0.33
        turns[(1, 2)] = 0.33
        turns[(0, 2)] = -0.33
        report = persistence_report(rotation_witness(nerve, turns), nerve)
        assert report.sw.cobirth_index == 14
        assert report.euler.codeath_index == 13

    def test_euler_scan_clipped_to_sign_cobirth(self):
        # with a sign violation the integer class is only meaningful up
        # to the sign class's own cobirth stage
        nerve = weighted(nerve_from_tops([(0, 1, 2)]), seed=3)
        vals = {
            (0, 1): O2(0.0, -1),
            (1, 2): O2(0.0, 1),
            (0, 2): O2(0.0, 1),
        }
        wit = witness_of(nerve, vals)
        report = persistence_report(wit, nerve)
        assert report.sw.cobirth_index == 6
        assert report.euler.cobirth_index <= 6
