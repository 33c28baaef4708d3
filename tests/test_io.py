"""Serialization round trips, canonical text, and provenance digests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import recursive_canonical_text

from circlet import io
from circlet.cli import main
from circlet.circle import O2
from circlet.cochains import Cochain
from circlet.errors import SchemaError
from circlet.nerve import BundleDataset, CoverSet, build_nerve, edge_weights, filtration_order
from circlet.persistence import PersistenceReport, ThresholdPair
from circlet.synthetic import gen_s1_bundle
from circlet.witness import Trivialization, assemble_witness


@pytest.fixture(scope="module")
def torus():
    ds, cover, trivs = gen_s1_bundle(orientable=True, n_samples=300, n_arcs=12, seed=5)
    return ds, cover, trivs


# ---------------------------------------------------------------------------
# canonical text


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestCanonicalText:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_parses_back_to_the_same_value(self, value):
        assert json.loads(io.canonical_text(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_reproduce_the_double_exactly(self, x):
        back = json.loads(io.canonical_text({"x": x}))["x"]
        assert back == x and isinstance(back, float)

    def test_floats_always_carry_a_decimal_marker(self):
        assert io.canonical_text(1.0) == "1.0"
        assert io.canonical_text(-0.0) == "-0.0"
        assert json.loads(io.canonical_text(-0.0)) == 0.0
        assert "e" in io.canonical_text(1e300)

    def test_key_order_does_not_matter(self):
        a = {"b": 1, "a": [1.5, {"z": None, "y": True}]}
        b = {"a": [1.5, {"y": True, "z": None}], "b": 1}
        assert io.canonical_text(a) == io.canonical_text(b)

    def test_nonfinite_rejected(self):
        with pytest.raises(SchemaError):
            io.canonical_text(float("nan"))
        with pytest.raises(SchemaError):
            io.canonical_text([float("inf")])
        with pytest.raises(SchemaError):
            io.canonical_text({"v": np.array([0.5, -np.inf])})
        with pytest.raises(SchemaError):
            io.canonical_text(np.array([True]))

    def test_nonstring_keys_rejected(self):
        with pytest.raises(SchemaError):
            io.canonical_text({1: "x"})

    def test_numpy_scalars_and_arrays_serialize(self):
        doc = {"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(3)}
        assert json.loads(io.canonical_text(doc)) == {"a": 0.5, "b": 3, "c": [0, 1, 2]}

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_matches_the_recursive_form(self, value):
        assert io.canonical_text(value) == recursive_canonical_text(value)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.integers(min_value=-(2**70), max_value=2**70)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.booleans(),
        max_size=6,
    ))
    def test_number_rows_match_the_recursive_form(self, row):
        assert io.canonical_text(row) == recursive_canonical_text(row)
        floats = np.array([float(x) for x in row], dtype=float)
        assert io.canonical_text(floats) == recursive_canonical_text(floats)
        assert io.canonical_text(floats.reshape(-1, 1)) == recursive_canonical_text(
            floats.reshape(-1, 1)
        )
        mixed = [np.float64(x) if i % 2 else np.int64(i) for i, x in enumerate(floats)]
        assert io.canonical_text(mixed) == recursive_canonical_text(mixed)
        small = floats[np.abs(floats) < 1e30].astype(np.float32)
        for arr in (small, np.arange(len(row)) - 3, np.arange(len(row), dtype=np.uint8)):
            assert io.canonical_text(arr) == recursive_canonical_text(arr)

    def test_dump_returns_digest_of_written_bytes(self, tmp_path):
        p = tmp_path / "x.json"
        digest = io.dump_json({"a": 1}, str(p))
        assert digest == io.sha256_hex(p.read_bytes())
        assert digest == io.file_digest(str(p))


# ---------------------------------------------------------------------------
# schema round trips


class TestDatasetSchema:
    def test_round_trip_exact(self, torus):
        ds, _, _ = torus
        doc = io.dataset_doc(ds)
        back = io.parse_dataset(doc)
        assert back.ids == ds.ids
        assert back.kind == ds.kind
        assert np.array_equal(back.base, ds.base)
        assert io.canonical_text(io.dataset_doc(back)) == io.canonical_text(doc)

    def test_abstract_round_trip_keeps_distances(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        ds = BundleDataset(
            ids=(0, 1, 2), base=np.zeros((3, 0)), kind="abstract", distances=d
        )
        back = io.parse_dataset(io.dataset_doc(ds))
        assert np.array_equal(back.distances, d)

    def test_ragged_distance_table_rejected(self):
        ds = BundleDataset(
            ids=(0, 1), base=np.zeros((2, 0)), kind="abstract", distances=1 - np.eye(2)
        )
        doc = io.dataset_doc(ds)
        doc["distances"][0].pop()
        with pytest.raises(SchemaError, match="dataset"):
            io.parse_dataset(doc)

    def test_wrong_schema_tag_rejected(self, torus):
        ds, _, _ = torus
        doc = io.dataset_doc(ds)
        doc["schema"] = "circlet/cover"
        with pytest.raises(SchemaError, match="expected schema"):
            io.parse_dataset(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError, match="samples"):
            io.parse_dataset({"schema": "circlet/dataset", "base_space": {"kind": "circle"}})


class TestCoverSchema:
    def test_round_trip(self, torus):
        _, cover, _ = torus
        doc = io.cover_doc(cover)
        back = io.parse_cover(doc)
        assert len(back) == len(cover)
        for a, b in zip(sorted(cover, key=lambda c: c.id), back):
            assert a.id == b.id
            assert a.members == b.members
            assert np.array_equal(a.center, b.center)
            assert a.radius == b.radius
        assert io.canonical_text(io.cover_doc(back)) == io.canonical_text(doc)

    def test_clipped_flag_survives(self):
        c = CoverSet(3, {1, 2}, clipped=True)
        back = io.parse_cover(io.cover_doc([c]))[0]
        assert back.clipped
        assert back.center is None and back.radius is None


class TestTrivsSchema:
    def test_round_trip_moves_vectors_at_most_ulps(self, torus):
        _, _, trivs = torus
        back = io.parse_trivs(io.trivs_doc(trivs))
        assert back.sets() == trivs.sets()
        worst = 0.0
        for j in trivs.sets():
            assert np.array_equal(back.chart(j).ids, trivs.chart(j).ids)
            for v, w in zip(trivs.chart(j).points, back.chart(j).points):
                worst = max(worst, float(np.linalg.norm(w - v)))
        # the angle codec costs one trig round trip, nothing more
        assert worst <= 1e-14

    def test_angles_stored_in_unit_range(self, torus):
        _, _, trivs = torus
        doc = io.trivs_doc(trivs)
        for row in doc["sets"]:
            for v in row["values"]:
                assert 0.0 <= v["angle_turns"] < 1.0


class TestWitnessSchema:
    def test_round_trip_with_filtration(self, torus):
        ds, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        nerve = filtration_order(edge_weights(nerve, trivs, wit))
        wit = Cochain(nerve, 1, "O2", wit.values)
        quality = {"epsilon": 0.25, "alpha": None}
        doc = io.witness_doc(wit, quality=quality)
        back, q = io.parse_witness(doc)
        assert q == quality
        assert back.values == wit.values
        # empty dimensions are canonicalized away by the schema
        assert {p: s for p, s in back.nerve.simplices.items() if s} == {
            p: s for p, s in nerve.simplices.items() if s
        }
        assert back.nerve.order == nerve.order
        assert back.nerve.index == nerve.index
        for s in nerve.weights:
            assert back.nerve.weight_at(s) == nerve.weight_at(s)
        assert io.canonical_text(io.witness_doc(back, quality=q)) == io.canonical_text(doc)

    def test_bad_sign_rejected(self, torus):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        doc = io.witness_doc(wit)
        doc["values"][0]["sign"] = 2
        with pytest.raises(SchemaError, match="sign"):
            io.parse_witness(doc)

    def test_value_off_the_nerve_rejected(self, torus):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        doc = io.witness_doc(wit)
        doc["values"][0]["simplex"] = [0, 99]
        with pytest.raises(SchemaError):
            io.parse_witness(doc)


class TestClassesSchema:
    def test_round_trip(self, torus):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        from circlet.classes import euler_cochain

        res = euler_cochain(wit)
        doc = io.classes_doc(
            nerve, res.sw, res.euler, res.lift, res.bracket_margin, True, 0.0
        )
        back = io.parse_classes(doc)
        assert back["sw"].values == res.sw.values
        assert back["euler"].values == res.euler.values
        assert back["lift"].values == res.lift.values
        assert back["sw_coboundary"] is True
        # no triangles on this nerve: the margin is infinite, carried as null
        assert doc["bracket_margin"] is None
        assert back["bracket_margin"] == math.inf
        assert back["euler"].twist is not None


class TestPersistenceSchema:
    def test_round_trip(self):
        rep = PersistenceReport(
            sw=ThresholdPair(7, 0.5, 3, 0.125),
            euler=ThresholdPair(7, 0.5, 2, 0.0625),
            w_max=0.5,
            stage_sizes={0: 8, 1: 12, 2: 3},
        )
        back = io.parse_persistence(io.persistence_doc(rep))
        assert back == rep
        assert all(isinstance(k, int) for k in back.stage_sizes)


class TestClustersSchema:
    def test_round_trip(self):
        clusters = {0: (frozenset({1, 2}), frozenset({3})), 4: (frozenset(), frozenset({5}))}
        back = io.parse_clusters(io.clusters_doc(clusters))
        assert back == clusters

    def test_wrong_arity_rejected(self):
        doc = {
            "schema": "circlet/clusters",
            "sets": [{"id": 0, "clusters": [[1], [2], [3]]}],
        }
        with pytest.raises(SchemaError, match="two clusters"):
            io.parse_clusters(doc)


class TestScenarioSchema:
    def test_round_trip(self, torus):
        ds, cover, trivs = torus
        bundle = gen_s1_bundle(orientable=False, n_samples=60, n_arcs=8, seed=1)
        back = io.parse_scenario(io.scenario_doc(bundle.scenario))
        assert back == bundle.scenario


class TestCoordsSchema:
    def test_global_round_trip(self):
        from circlet.projection import GlobalTrivialization

        g = GlobalTrivialization(
            base={0: np.array([1.0, 0.0])},
            angle={0: 0.25, 1: 0.75},
            phi={0: 1, 1: -1},
            beta={(0, 1): 2},
            residual=1e-9,
        )
        back = io.parse_coords(io.global_coords_doc(g))
        assert back["kind"] == "global"
        assert back["angles"] == {0: 0.25, 1: 0.75}
        assert back["phi"] == {0: 1, 1: -1}
        assert back["beta"] == {(0, 1): 2}

    def test_frame_round_trip(self):
        from circlet.projection import BundleMapResult

        bm = BundleMapResult(
            vectors={0: np.array([1.0, 0.0, 0.0]), 1: np.array([0.0, 1.0, 0.0])},
            dim=3,
            stage=None,
            method="psc-substitute",
            overlap_residual=1e-10,
            plane_residual=1e-11,
            ortho_residual=0.0,
            reduction_errors={},
        )
        back = io.parse_coords(io.frame_coords_doc(bm))
        assert back["kind"] == "frame"
        assert back["dim"] == 3
        assert back["method"] == "psc-substitute"
        assert np.array_equal(back["vectors"][0], bm.vectors[0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            io.parse_coords({"schema": "circlet/coords", "kind": "polar"})


# ---------------------------------------------------------------------------
# provenance


class TestProvenance:
    def test_digest_ignores_config_key_order(self):
        rows = [{"path": "a.json", "sha256": "00"}]
        d1 = io.provenance_digest("witness", {"a": 1, "b": 2.5}, rows, None)
        d2 = io.provenance_digest("witness", {"b": 2.5, "a": 1}, rows, None)
        assert d1 == d2

    def test_digest_sensitive_to_every_part(self):
        rows = [{"path": "a.json", "sha256": "00"}]
        base = io.provenance_digest("witness", {"a": 1}, rows, 0)
        assert io.provenance_digest("classes", {"a": 1}, rows, 0) != base
        assert io.provenance_digest("witness", {"a": 2}, rows, 0) != base
        assert io.provenance_digest("witness", {"a": 1}, rows, 1) != base
        other = [{"path": "a.json", "sha256": "01"}]
        assert io.provenance_digest("witness", {"a": 1}, other, 0) != base

    def test_manifest_doc_shape(self):
        doc = io.manifest_doc(
            "synth", {"model": "torus"}, [], 7, [("generate", 0.5)],
            outputs=[{"path": "dataset.json", "sha256": "ff"}],
        )
        assert doc["schema"] == "circlet/manifest"
        assert doc["seed"] == 7
        assert doc["digest"] == io.provenance_digest("synth", {"model": "torus"}, [], 7)
        assert doc["versions"]["circlet"]
        assert doc["timings"][0]["step"] == "generate"

    def test_missing_input_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            io.file_digest(str(tmp_path / "nope.json"))

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        with pytest.raises(SchemaError, match="not valid JSON"):
            io.load_json(str(p))


def test_every_cli_output_matches_the_recursive_form(tmp_path, monkeypatch):
    # every document a subcommand writes, success or failure, formats to
    # the same bytes as the one-call-per-value serializer
    docs = []
    real = io.dump_json
    monkeypatch.setattr(io, "dump_json", lambda obj, path: docs.append(obj) or real(obj, path))

    def run(*argv):
        return main([str(a) for a in argv])

    lens, torus, split = tmp_path / "lens", tmp_path / "torus", tmp_path / "split"
    assert run("synth", "--model", "lens:1", "--samples", 2000, "--sets", 16,
               "--radius", 0.85, "--out", lens) == 0
    assert run("synth", "--model", "torus", "--samples", 400, "--sets", 12, "--out", torus) == 0
    assert run("synth", "--model", "split:1", "--samples", 3000, "--sets", 36,
               "--seed", 2, "--out", split) == 0

    def bundle(d):
        return ("--data", d / "dataset.json", "--cover", d / "cover.json",
                "--trivs", d / "trivs.json")

    assert run("witness", *bundle(lens), "--out", tmp_path / "w") == 0
    assert run("witness", *bundle(torus), "--out", tmp_path / "tw") == 0
    assert run("classes", "--witness", tmp_path / "w" / "witness.json", "--out", tmp_path / "c") == 0
    assert run("classes", "--witness", tmp_path / "tw" / "witness.json",
               "--out", tmp_path / "tc") == 0
    assert run("euler", "--classes", tmp_path / "c" / "classes.json", "--out", tmp_path / "e") == 0
    assert run("euler", "--classes", tmp_path / "tc" / "classes.json",
               "--out", tmp_path / "te") == 3
    assert run("persist", "--witness", tmp_path / "w" / "witness.json", "--out", tmp_path / "p") == 0
    assert run("report", *bundle(lens), "--dims", "2,4", "--out", tmp_path / "r") == 0
    assert run("coordinatize", *bundle(lens), "--dim", 4, "--out", tmp_path / "f") == 0
    assert run("trivialize", *bundle(torus), "--out", tmp_path / "g") == 0
    assert run("trivialize", *bundle(lens), "--out", tmp_path / "o") == 2
    assert run("unwrap", *bundle(split), "--clusters", split / "clusters.json",
               "--out", tmp_path / "u") == 0

    kinds = {doc["schema"].split("/")[1] for doc in docs}
    assert kinds == {
        "dataset", "cover", "trivs", "scenario", "clusters", "manifest", "witness",
        "classes", "euler", "guard", "persistence", "report", "coords", "obstruction",
        "unwrap",
    }
    for doc in docs:
        assert io.canonical_text(doc) == recursive_canonical_text(doc)
