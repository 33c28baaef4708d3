"""End-to-end subcommand pipelines, exit codes, and output provenance."""

import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import circlet
from circlet import cli, io
from circlet.cli import main


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return json.load(fh)


def abstract_distances(table):
    """A dataset mutation: make the base abstract, with this distance table."""

    def mutate(doc):
        doc["base_space"]["kind"] = "abstract"
        doc["distances"] = table

    return mutate


@pytest.fixture(scope="module")
def torus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("torus")
    code = run(
        "synth", "--model", "torus", "--samples", "400", "--sets", "12",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def torus_witness_dir(tmp_path_factory, torus_dir):
    out = tmp_path_factory.mktemp("torus-witness")
    code = run(
        "witness",
        "--data", str(torus_dir / "dataset.json"),
        "--cover", str(torus_dir / "cover.json"),
        "--trivs", str(torus_dir / "trivs.json"),
        "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def lens_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("lens")
    synth, wit, cls = base / "synth", base / "wit", base / "cls"
    assert run(
        "synth", "--model", "lens:1", "--samples", "2000", "--sets", "34",
        "--seed", "1", "--out", str(synth),
    ) == 0
    assert run(
        "witness", "--data", str(synth / "dataset.json"),
        "--cover", str(synth / "cover.json"),
        "--trivs", str(synth / "trivs.json"), "--out", str(wit),
    ) == 0
    assert run("classes", "--witness", str(wit / "witness.json"), "--out", str(cls)) == 0
    return synth, wit, cls


class TestSynth:
    def test_writes_all_documents(self, torus_dir):
        for name in ("dataset.json", "cover.json", "trivs.json", "scenario.json", "manifest.json"):
            assert (torus_dir / name).exists()
        sc = read(torus_dir / "scenario.json")
        assert sc["model"] == "s1-torus"
        assert sc["sw_trivial"] is True and sc["euler_number"] == 0

    def test_outputs_parse_and_agree(self, torus_dir):
        ds = io.parse_dataset(read(torus_dir / "dataset.json"))
        cover = io.parse_cover(read(torus_dir / "cover.json"))
        trivs = io.parse_trivs(read(torus_dir / "trivs.json"))
        assert len(ds.ids) == 400
        assert len(cover) == 12
        for c in cover:
            assert set(trivs.chart(c.id).ids.tolist()) == set(c.members)

    def test_same_seed_byte_identical(self, torus_dir, tmp_path):
        out = tmp_path / "again"
        assert run(
            "synth", "--model", "torus", "--samples", "400", "--sets", "12",
            "--seed", "0", "--out", str(out),
        ) == 0
        for name in ("dataset.json", "cover.json", "trivs.json", "scenario.json"):
            assert (out / name).read_bytes() == (torus_dir / name).read_bytes()

    def test_different_seed_differs(self, torus_dir, tmp_path):
        out = tmp_path / "seed1"
        assert run(
            "synth", "--model", "torus", "--samples", "400", "--sets", "12",
            "--seed", "1", "--out", str(out),
        ) == 0
        assert (out / "trivs.json").read_bytes() != (torus_dir / "trivs.json").read_bytes()

    def test_outputs_carry_one_provenance_digest(self, torus_dir):
        manifest = read(torus_dir / "manifest.json")
        digest = manifest["digest"]
        for name in ("dataset.json", "cover.json", "trivs.json", "scenario.json"):
            assert read(torus_dir / name)["provenance"] == digest
        listed = {row["path"]: row["sha256"] for row in manifest["outputs"]}
        for name, sha in listed.items():
            assert io.file_digest(str(torus_dir / name)) == sha

    def test_clusters_written_for_two_fiber_models(self, tmp_path):
        out = tmp_path / "disc"
        assert run(
            "synth", "--model", "split:1", "--samples", "1200", "--sets", "36",
            "--seed", "2", "--out", str(out),
        ) == 0
        clusters = io.parse_clusters(read(out / "clusters.json"))
        assert set(clusters) == {c.id for c in io.parse_cover(read(out / "cover.json"))}

    def test_bad_model_is_schema_error(self, tmp_path, capsys):
        assert run("synth", "--model", "mobius", "--out", str(tmp_path / "x")) == 1
        assert "unknown model" in capsys.readouterr().err

    def test_radius_on_circle_model_rejected(self, tmp_path):
        assert run(
            "synth", "--model", "torus", "--radius", "0.5", "--out", str(tmp_path / "x")
        ) == 1

    def test_nonint_model_parameter_rejected(self, tmp_path):
        assert run("synth", "--model", "lens:two", "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("flags, flag", [
        (["--model", "lens:1", "--samples", "0"], "--samples"),
        (["--model", "lens:1", "--samples", "-5"], "--samples"),
        (["--model", "lens:1", "--sets", "0"], "--sets"),
        (["--model", "rp2:1", "--sets", "0"], "--sets"),
        (["--model", "torus", "--sets", "2"], "--sets"),
        (["--model", "split:1", "--samples", "1"], "--samples"),
        (["--model", "torus", "--samples", "0"], "--samples"),
        (["--model", "lens:1", "--radius", "nan"], "--radius"),
        (["--model", "lens:1", "--radius", "inf"], "--radius"),
        (["--model", "lens:1", "--noise", "nan"], "--noise"),
        (["--model", "torus", "--noise", "-0.1"], "--noise"),
    ], ids=[
        "lens-no-samples", "lens-negative-samples", "lens-no-sets", "rp2-no-sets",
        "torus-two-arcs", "split-one-sample", "torus-no-samples", "nan-radius",
        "inf-radius", "nan-noise", "negative-noise",
    ])
    def test_out_of_range_flag_is_schema_error(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "x"
        assert run("synth", *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        report = json.loads(err.splitlines()[-1])
        assert report["error"] == "schema"
        assert report["message"].startswith(flag + " ")
        manifest = read(out / "manifest.json")
        assert manifest["status"] == 1
        # rejected before the generator ran
        assert [t["step"] for t in manifest["timings"]] == []
        assert sorted(os.listdir(out)) == ["manifest.json"]


class TestWitnessCommand:
    def test_witness_file_has_order_and_quality(self, torus_witness_dir):
        wit, quality = io.parse_witness(read(torus_witness_dir / "witness.json"))
        assert wit.nerve.order is not None
        assert len(wit.turn) == len(wit.sign) == len(wit.nerve.edges) == 12
        assert quality["epsilon"] <= 1e-12
        assert quality["cocycle_epsilon"] <= 1e-12

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = run(
            "witness", "--data", str(tmp_path / "none.json"),
            "--cover", str(tmp_path / "none.json"),
            "--trivs", str(tmp_path / "none.json"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_corrupt_json_exits_one(self, torus_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run(
            "witness", "--data", str(bad),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1

    def test_chart_domain_mismatch_exits_one(self, torus_dir, tmp_path, capsys):
        doc = read(torus_dir / "trivs.json")
        doc["sets"][0]["values"] = doc["sets"][0]["values"][:-3]
        mangled = tmp_path / "trivs.json"
        mangled.write_text(json.dumps(doc))
        code = run(
            "witness", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(mangled), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "domain" in capsys.readouterr().err


    @pytest.mark.parametrize("mutate", [
        lambda d: d["sets"][0]["values"][0].pop("sample"),
        lambda d: d["sets"][0]["values"][0].pop("angle_turns"),
        lambda d: d["sets"][0].pop("id"),
        lambda d: d["sets"][0].pop("values"),
        lambda d: d["sets"][0]["values"][0].update(sample="7"),
        lambda d: d["sets"][0]["values"][0].update(sample=7.5),
        lambda d: d["sets"][0].update(id=True),
        lambda d: d["sets"][0]["values"][0].update(angle_turns=float("nan")),
        lambda d: d["sets"][0]["values"][0].update(angle_turns=float("inf")),
        lambda d: d["sets"][0]["values"].append(
            dict(d["sets"][0]["values"][0], angle_turns=0.5)),
        lambda d: d.update(sets={"0": []}),
        lambda d: d["sets"][0].update(values={}),
        # an integer literal too large for a float
        lambda d: d["sets"][0]["values"][0].update(angle_turns=10**400),
        lambda d: d["sets"][0]["values"][0].update(sample=2**63),
    ], ids=[
        "no-sample", "no-angle", "no-set-id", "no-values", "string-sample",
        "float-sample", "bool-set-id", "nan-angle", "inf-angle",
        "duplicate-sample", "sets-not-list", "values-not-list", "huge-int-angle",
        "int64-overflow-sample",
    ])
    def test_malformed_trivs_exit_one(self, torus_dir, tmp_path, capsys, mutate):
        doc = read(torus_dir / "trivs.json")
        mutate(doc)
        mangled = tmp_path / "trivs.json"
        mangled.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run(
            "witness", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(mangled), "--out", str(out),
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "schema"
        assert read(out / "manifest.json")["status"] == 1

    @pytest.mark.parametrize("text", [
        b'{"schema": "circlet/trivs", "sets": [\xff]}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_trivs_exit_one(self, torus_dir, tmp_path, capsys, text):
        mangled = tmp_path / "trivs.json"
        mangled.write_bytes(text)
        out = tmp_path / "o"
        code = run(
            "witness", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(mangled), "--out", str(out),
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "schema"
        assert read(out / "manifest.json")["status"] == 1

    @pytest.mark.parametrize("name, mutate", [
        ("cover.json", lambda d: d["sets"][0].update(center=["x", 0.0])),
        ("cover.json", lambda d: d["sets"][0].update(center=[1.0, 0.0, 0.0])),
        ("cover.json", lambda d: d["sets"][0].update(center=1.0)),
        ("cover.json", lambda d: d["sets"][0].update(id="0")),
        ("cover.json", lambda d: d["sets"][0].update(id=True)),
        ("cover.json", lambda d: d["sets"][0]["members"].append("7")),
        ("cover.json", lambda d: d["sets"][0]["members"].append(7.5)),
        ("cover.json", lambda d: d["sets"][0].update(members=7)),
        ("cover.json", lambda d: d.update(sets={"0": []})),
        ("cover.json", lambda d: d["sets"][0].update(clipped="no")),
        ("dataset.json", lambda d: d["samples"][0]["base"].append(0.0)),
        ("dataset.json", lambda d: d["samples"][0].update(id="0")),
        ("dataset.json", lambda d: d["samples"][0].update(id=0.5)),
        ("dataset.json", lambda d: d["samples"][0].update(base=1.0)),
        ("dataset.json", lambda d: d.update(samples={"0": []})),
        ("dataset.json", abstract_distances([5, [1.0, 0.0]])),
        ("dataset.json", abstract_distances([[0.0, 1.0], [1.0]])),
        ("dataset.json", abstract_distances([[0.0, 1.0], [1.0, 0.0]])),
    ], ids=[
        "string-center", "long-center", "scalar-center", "string-set-id",
        "bool-set-id", "string-member", "float-member", "members-not-list",
        "sets-not-list", "string-clipped", "long-base", "string-sample-id", "float-sample-id",
        "scalar-base", "samples-not-list", "distance-row-not-list",
        "ragged-distances", "distances-wrong-row-count",
    ])
    def test_malformed_cover_or_dataset_exit_one(
        self, torus_dir, tmp_path, capsys, name, mutate
    ):
        doc = read(torus_dir / name)
        mutate(doc)
        mangled = tmp_path / name
        mangled.write_text(json.dumps(doc))
        paths = {n: torus_dir / n for n in ("dataset.json", "cover.json", "trivs.json")}
        paths[name] = mangled
        for command in ("witness", "trivialize"):
            out = tmp_path / command
            code = run(
                command, "--data", str(paths["dataset.json"]),
                "--cover", str(paths["cover.json"]),
                "--trivs", str(paths["trivs.json"]), "--out", str(out),
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert json.loads(err.splitlines()[-1])["error"] == "schema"
            assert read(out / "manifest.json")["status"] == 1


class TestClassesAndEuler:
    def test_lens_pipeline_recovers_unit_euler_number(self, lens_dirs, tmp_path, capsys):
        _, _, cls = lens_dirs
        out = tmp_path / "euler"
        assert run("euler", "--classes", str(cls / "classes.json"), "--out", str(out)) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["magnitude"] == 1
        doc = read(out / "euler.json")
        assert abs(doc["euler_number"]) == 1
        assert doc["sw_coboundary"] is True
        # the triangle that fixes the sign is a triangle of the nerve
        nerve = io.parse_classes(read(lens_dirs[2] / "classes.json"))["nerve"]
        assert tuple(doc["euler_orientation"]) in nerve.triangles
        assert 0 < doc["fundamental_support"] <= len(nerve.triangles)

    def test_classes_document_is_parseable(self, lens_dirs):
        _, _, cls = lens_dirs
        parsed = io.parse_classes(read(cls / "classes.json"))
        assert parsed["sw_coboundary"] is True
        assert parsed["cocycle_defect"] > 0
        assert parsed["bracket_margin"] > 0.05

    def test_euler_without_triangles_is_guard_exit(self, torus_witness_dir, tmp_path, capsys):
        cls = tmp_path / "cls"
        assert run(
            "classes", "--witness", str(torus_witness_dir / "witness.json"),
            "--out", str(cls),
        ) == 0
        code = run("euler", "--classes", str(cls / "classes.json"), "--out", str(tmp_path / "e"))
        assert code == 3
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["guard"] == "NotASurface"
        assert read(tmp_path / "e" / "guard.json")["guard"] == "NotASurface"


def _boolean_vertices(nerve):
    """Vertices 0 and 1 written as JSON false and true, in the simplices and the order."""
    for rows in (nerve["simplices"]["0"], nerve["order"]):
        for i, s in enumerate(rows):
            if s in ([0], [1]):
                rows[i] = [bool(s[0])]


class TestPersistCommand:
    def test_exact_witness_lives_to_the_top(self, torus_witness_dir, tmp_path):
        out = tmp_path / "p"
        assert run(
            "persist", "--witness", str(torus_witness_dir / "witness.json"),
            "--out", str(out),
        ) == 0
        rep = read(out / "persistence.json")
        # exact cocycle: both classes trivial at every stage
        assert rep["sw"]["codeath_index"] == rep["sw"]["cobirth_index"]
        assert rep["sw"]["cobirth_weight"] == rep["w_max"]

    def test_edges_out_of_lex_order_give_the_same_persistence(self, lens_dirs, tmp_path):
        _, wit, _ = lens_dirs
        doc = read(wit / "witness.json")
        doc["nerve"]["simplices"]["1"].reverse()
        doc["values"].reverse()
        reversed_doc = tmp_path / "witness.json"
        reversed_doc.write_text(json.dumps(doc))
        for name, path in (("lex", wit / "witness.json"), ("reversed", reversed_doc)):
            assert run("persist", "--witness", str(path), "--out", str(tmp_path / name)) == 0
        lex, rev = (read(tmp_path / name / "persistence.json") for name in ("lex", "reversed"))
        assert lex["euler"]["codeath_index"] < lex["euler"]["cobirth_index"]
        # the provenance digests the input file, which differs
        assert lex.pop("provenance") != rev.pop("provenance")
        assert lex == rev

    def test_witness_without_order_rejected(self, torus_witness_dir, tmp_path, capsys):
        doc = read(torus_witness_dir / "witness.json")
        del doc["nerve"]["order"]
        stripped = tmp_path / "witness.json"
        stripped.write_text(json.dumps(doc))
        assert run("persist", "--witness", str(stripped), "--out", str(tmp_path / "o")) == 1
        assert "filtration order" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, match", [
        (lambda n: n.update(order=[[0], [0]]), "permutation"),
        (lambda n: n.update(perturbations=[{"simplex": [0, 1]}]), "offset"),
        (_boolean_vertices, "list of integers"),
    ], ids=["order-not-a-permutation", "perturbation-without-offset", "boolean-vertices"])
    def test_malformed_nerve_rejected(self, torus_witness_dir, tmp_path, capsys, mutate, match):
        doc = read(torus_witness_dir / "witness.json")
        mutate(doc["nerve"])
        bad = tmp_path / "witness.json"
        bad.write_text(json.dumps(doc))
        for command in ("persist", "classes"):
            out = tmp_path / command
            assert run(command, "--witness", str(bad), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert match in err and "Traceback" not in err
            assert read(out / "manifest.json")["status"] == 1


    @pytest.mark.parametrize("mutate, match", [
        (lambda s: s.update({"2": [[1, 5, 9]]}), "facet [5, 9] of [1, 5, 9] is missing"),
        (lambda s: s.update({"2": [[0, 1]]}), "2-simplex [0, 1] needs 3 strictly ascending"),
        (lambda s: s["1"].append([1, 0]), "1-simplex [1, 0] needs 2 strictly ascending"),
        (lambda s: s["1"].append([0, 1]), "simplex [0, 1] is repeated"),
        (lambda s: s["0"].remove([5]), "facet [5] of [4, 5] is missing"),
    ], ids=["triangle-without-edges", "short-simplex", "descending-edge",
            "repeated-edge", "missing-vertex"])
    def test_non_complex_rejected(self, torus_witness_dir, tmp_path, capsys, mutate, match):
        doc = read(torus_witness_dir / "witness.json")
        del doc["nerve"]["order"]
        mutate(doc["nerve"]["simplices"])
        bad = tmp_path / "witness.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "classes"
        assert run("classes", "--witness", str(bad), "--out", str(out)) == 1
        assert match in capsys.readouterr().err
        assert read(out / "manifest.json")["status"] == 1


class TestTrivializeCommand:
    def test_torus_succeeds_with_tiny_residual(self, torus_dir, tmp_path, capsys):
        out = tmp_path / "triv"
        code = run(
            "trivialize", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"), "--out", str(out),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["residual"] <= 1e-8
        coords = read(out / "coords.json")
        assert len(coords["angles"]) == 400
        assert {r["sign"] for r in coords["phi"]} == {1}

    def test_klein_obstruction_exits_two(self, tmp_path, capsys):
        synth = tmp_path / "klein"
        assert run(
            "synth", "--model", "klein", "--samples", "400", "--sets", "12",
            "--seed", "0", "--out", str(synth),
        ) == 0
        out = tmp_path / "triv"
        code = run(
            "trivialize", "--data", str(synth / "dataset.json"),
            "--cover", str(synth / "cover.json"),
            "--trivs", str(synth / "trivs.json"), "--out", str(out),
        )
        assert code == 2
        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[-1])
        assert payload["obstruction"] == "sw"
        doc = read(out / "obstruction.json")
        assert doc["obstruction"] == "sw"
        assert doc["provenance"] == read(out / "manifest.json")["digest"]
        assert read(out / "manifest.json")["status"] == 2


class TestCoordinatizeCommand:
    def test_dim_four_overlap_residual(self, torus_dir, tmp_path, capsys):
        out = tmp_path / "c4"
        code = run(
            "coordinatize", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dim", "4", "--out", str(out),
        )
        assert code == 0
        coords = read(out / "coords.json")
        assert coords["dim"] == 4
        assert coords["stage"] is None
        assert coords["overlap_residual"] <= 1e-8
        norms = [np.linalg.norm(r["v"]) for r in coords["vectors"]]
        assert max(abs(n - 1.0) for n in norms) <= 1e-9

    def test_stage_cut_succeeds_near_the_top(self, torus_dir, tmp_path):
        out = tmp_path / "cut"
        code = run(
            "coordinatize", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dim", "4", "--stage", "23", "--out", str(out),
        )
        assert code == 0
        coords = read(out / "coords.json")
        assert coords["stage"] == 23
        assert coords["overlap_residual"] <= 1e-8

    @pytest.mark.parametrize("stage", ["0", "400"])
    def test_stage_outside_the_nerve_is_schema_error(self, torus_dir, tmp_path, capsys, stage):
        out = tmp_path / "x"
        code = run(
            "coordinatize", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dim", "4", "--stage", stage, "--out", str(out),
        )
        assert code == 1
        assert "outside 1..24" in capsys.readouterr().err
        assert read(out / "manifest.json")["status"] == 1

    @pytest.mark.parametrize("dim", ["1", "0", "-3", "10000"])
    def test_dim_outside_ambient_is_schema_error(self, torus_dir, tmp_path, capsys, dim):
        out = tmp_path / "x"
        code = run(
            "coordinatize", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dim", dim, "--out", str(out),
        )
        assert code == 1
        assert f"dims [{dim}] outside 2..24 for this cover" in capsys.readouterr().err
        assert read(out / "manifest.json")["status"] == 1

    def test_deep_stage_cut_trips_rank_guard(self, torus_dir, tmp_path, capsys):
        code = run(
            "coordinatize", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dim", "4", "--stage", "20", "--out", str(tmp_path / "x"),
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["guard"] == "RankDeficient"


class TestUnwrapCommand:
    def test_split_labels_give_two_components(self, tmp_path, capsys):
        synth = tmp_path / "split"
        assert run(
            "synth", "--model", "split:1", "--samples", "3000", "--sets", "36",
            "--seed", "2", "--out", str(synth),
        ) == 0
        out = tmp_path / "un"
        code = run(
            "unwrap", "--data", str(synth / "dataset.json"),
            "--cover", str(synth / "cover.json"),
            "--trivs", str(synth / "trivs.json"),
            "--clusters", str(synth / "clusters.json"), "--out", str(out),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["components"] == 2
        assert summary["nu_nontrivial"] is False

    def test_connected_fiber_unwraps_to_double_euler(self, tmp_path, capsys):
        base = tmp_path
        assert run(
            "synth", "--model", "disconnected:1", "--samples", "8000", "--sets", "36",
            "--seed", "2", "--out", str(base / "d0"),
        ) == 0
        assert run(
            "unwrap", "--data", str(base / "d0" / "dataset.json"),
            "--cover", str(base / "d0" / "cover.json"),
            "--trivs", str(base / "d0" / "trivs.json"),
            "--clusters", str(base / "d0" / "clusters.json"),
            "--out", str(base / "d1"),
        ) == 0
        unwrap = read(base / "d1" / "unwrap.json")
        assert unwrap["components"] == 1
        assert any(row["sign"] == -1 for row in unwrap["nu"])
        assert run(
            "witness", "--data", str(base / "d1" / "dataset.json"),
            "--cover", str(base / "d1" / "cover.json"),
            "--trivs", str(base / "d1" / "trivs.json"),
            "--out", str(base / "d2"),
        ) == 0
        assert run(
            "classes", "--witness", str(base / "d2" / "witness.json"),
            "--out", str(base / "d3"),
        ) == 0
        assert run(
            "euler", "--classes", str(base / "d3" / "classes.json"),
            "--out", str(base / "d4"),
        ) == 0
        assert read(base / "d4" / "euler.json")["magnitude"] == 2


@pytest.fixture(scope="module")
def split_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("split")
    synth, wit, cls = base / "synth", base / "wit", base / "cls"
    assert run(
        "synth", "--model", "split:1", "--samples", "2000", "--sets", "20",
        "--out", str(synth),
    ) == 0
    assert run("witness", *_bundle_flags(synth), "--out", str(wit)) == 0
    assert run("classes", "--witness", str(wit / "witness.json"), "--out", str(cls)) == 0
    return synth, wit, cls


def _set(path, value):
    """A document mutation: replace the entry at ``path`` with ``value``."""

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return mutate


def _reverse_order(doc):
    doc["nerve"]["order"].reverse()


def _repeat(path, **change):
    """A document mutation: append a copy of the first row of the list at ``path``, changed."""

    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc.append({**doc[0], **change})

    return mutate


def _repeated_perturbation(doc):
    edge = doc["nerve"]["simplices"]["1"][0]
    doc["nerve"]["perturbations"] = [{"simplex": edge, "offset": 1e-15}] * 2


class TestMalformedPipelineDocuments:
    """Clusters, classes and witness documents go through the same column checks."""

    @pytest.mark.parametrize("name, mutate", [
        ("clusters.json", _set(["sets", 0, "id"], [0])),
        ("clusters.json", _set(["sets", 0, "clusters"], [1, 2])),
        ("clusters.json", lambda d: d["sets"][0]["clusters"][0].append([1])),
        ("clusters.json", _set(["sets", 0, "id"], "0")),
        ("classes.json", lambda d: d["sw"][0].pop("simplex")),
        ("classes.json", _set(["sw", 0, "sign"], 3)),
        ("classes.json", _set(["sw", 0, "sign"], "x")),
        ("classes.json", _set(["sw"], 5)),
        ("classes.json", _set(["euler", 0, "value"], 1.5)),
        ("witness.json", _set(["values"], 5)),
        ("witness.json", _set(["values", 0, "sign"], 1.0)),
        ("witness.json", _set(["values", 0, "sign"], True)),
        ("witness.json", _set(["nerve", "weights"], 5)),
        ("witness.json", _set(["nerve", "simplices", "1"], 5)),
        ("witness.json", _reverse_order),
        ("witness.json", _repeat(["values"], sign=-1)),
        ("classes.json", _repeat(["sw"], sign=-1)),
        ("classes.json", _repeat(["euler"], value=7)),
        ("classes.json", _repeat(["lift"], turn=0.25)),
        ("witness.json", _repeat(["nerve", "weights"], weight=0.5)),
        ("witness.json", _repeated_perturbation),
    ], ids=[
        "cluster-id-list", "clusters-not-lists", "member-list", "cluster-id-string",
        "sw-without-simplex", "sw-sign-3", "sw-sign-string", "sw-not-list",
        "euler-value-float", "values-not-list", "witness-sign-float",
        "witness-sign-bool", "weights-not-list", "simplices-not-list",
        "order-before-facets", "repeated-value", "repeated-sw", "repeated-euler",
        "repeated-lift", "repeated-weight", "repeated-perturbation",
    ])
    def test_schema_exit_without_traceback(self, split_dirs, tmp_path, capsys, name, mutate):
        synth, wit, cls = split_dirs
        source = {"clusters.json": synth, "classes.json": cls, "witness.json": wit}[name]
        doc = read(source / name)
        mutate(doc)
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        commands = {
            "clusters.json": [["unwrap", *_bundle_flags(synth), "--clusters", str(bad)]],
            "classes.json": [["euler", "--classes", str(bad)]],
            "witness.json": [["classes", "--witness", str(bad)],
                             ["persist", "--witness", str(bad)]],
        }[name]
        for argv in commands:
            out = tmp_path / argv[0]
            assert run(*argv, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert json.loads(err.splitlines()[-1])["error"] == "schema"
            assert read(out / "manifest.json")["status"] == 1


class TestReportCommand:
    def test_report_blocks(self, torus_dir, tmp_path):
        out = tmp_path / "rep"
        code = run(
            "report", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dims", "2,4,8,24", "--out", str(out),
        )
        assert code == 0
        doc = read(out / "report.json")
        assert doc["quality"]["epsilon"] <= 1e-12
        assert doc["classes"]["sw_coboundary"] is True
        assert doc["classes"]["euler_number"] is None  # no triangles to pair over
        assert doc["classes"]["euler_orientation"] is None
        assert doc["classes"]["reason"] == {
            "error": "NotASurface",
            "message": "nerve has no 2-simplices",
        }
        curve = doc["reduction_curve"]
        assert [row["dim"] for row in curve] == [2, 4, 8, 24]
        maxes = [row["max_error"] for row in curve]
        assert all(a >= b - 1e-12 for a, b in zip(maxes, maxes[1:]))
        assert doc["persistence"]["w_max"] >= 0

    def test_euler_cochain_warns_once(self, tmp_path, caplog):
        # on this input the sign class is a cocycle on the whole nerve, so
        # the report reuses the classes persistence computed there
        synth = tmp_path / "synth"
        assert run(
            "synth", "--model", "lens:1", "--samples", "2000", "--sets", "16",
            "--radius", "0.85", "--seed", "0", "--out", str(synth),
        ) == 0
        with caplog.at_level("WARNING", logger="circlet.classes"):
            assert run(
                "report", "--data", str(synth / "dataset.json"),
                "--cover", str(synth / "cover.json"),
                "--trivs", str(synth / "trivs.json"), "--out", str(tmp_path / "rep"),
            ) == 0
        doc = read(tmp_path / "rep" / "report.json")
        size = sum(row["count"] for row in doc["persistence"]["stage_sizes"])
        assert doc["persistence"]["sw"]["cobirth_index"] == size
        warned = [r for r in caplog.records if "is not below 1/2" in r.message]
        assert len(warned) == 1
        # the report records the warning's defect, its margin and the
        # cocycle check that decides whether the pairing can be trusted
        classes = doc["classes"]
        assert classes["cocycle_defect"] == pytest.approx(0.519, abs=5e-4)
        assert classes["defect_margin"] == pytest.approx(0.5 - classes["cocycle_defect"])
        assert classes["euler_cocycle"] is True
        assert abs(classes["euler_number"]) == 1 and classes["reason"] is None
        tri = classes["euler_orientation"]
        assert len(tri) == 3 and tri == sorted(tri)

    def test_dims_outside_ambient_rejected(self, torus_dir, tmp_path):
        code = run(
            "report", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dims", "2,4,99", "--out", str(tmp_path / "x"),
        )
        assert code == 1


class TestUsage:
    def test_missing_subcommand_exits_one(self, capsys):
        assert run() == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_one(self, capsys):
        assert run("witness") == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "subcommand" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synth", "--help"],
        ["report", "-h"],
        ["synth", "--model", "lens:1", "--out", "x", "junk"],
        ["synth", "--model", "lens:1", "--samples", "x", "--out", "x"],
        ["coordinatize", "--data", "a"],
        ["witness"],
        ["--out", "x", "synth"],
        ["bogus"],
        [],
        ["--help"],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_one_command_parser_reads_like_the_full_one(self, capsys, argv):
        # only the named subcommand's parser is built; what it prints and
        # exits with must be what the parser of every subcommand gives
        def outcome(parser):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            out = capsys.readouterr()
            return exc.value.code, out.out, out.err

        names = [a for a in argv[:1] if a in cli._INPUTS] or [""]
        assert outcome(cli._build_parser(argv)) == outcome(cli._build_parser([]))
        assert cli._build_parser(names).format_usage() == cli._build_parser([]).format_usage()

    def test_invalid_command_error_names_the_command_argument(self, capsys):
        assert run("bogus") == 1
        err = capsys.readouterr().err
        assert "circlet: error: argument command: invalid choice: 'bogus'" in err
        assert err.startswith("usage: circlet [-h]")


def _python(*args, env=None):
    """Run a fresh interpreter on the source tree; its last stdout line as JSON."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(circlet.__file__))
    done = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _without_blas_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_ENV}
    return {**env, **extra}


def _bundle_flags(directory):
    return [
        f"--{flag}={directory / name}"
        for flag, name in (("data", "dataset.json"), ("cover", "cover.json"),
                           ("trivs", "trivs.json"))
    ]


class TestImports:
    @pytest.fixture(scope="class")
    def pipelines(self, torus_dir, tmp_path_factory):
        """Exit codes and module loads of report, coordinatize and trivialize
        in one fresh process, then of synth and unwrap on a split bundle."""
        out = tmp_path_factory.mktemp("pipelines")
        inputs = _bundle_flags(torus_dir)
        split = out / "split"
        argvs = [
            ["report", *inputs, f"--out={out / 'report'}"],
            ["coordinatize", "--dim", "4", *inputs, f"--out={out / 'coords'}"],
            ["trivialize", *inputs, f"--out={out / 'triv'}"],
        ]
        later = [
            ["synth", "--model", "split:1", "--samples", "600", "--sets", "16",
             "--seed", "2", f"--out={split}"],
            ["unwrap", *_bundle_flags(split), f"--clusters={split / 'clusters.json'}",
             f"--out={out / 'unwrap'}"],
        ]
        script = (
            "import json, sys\n"
            "from circlet.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "loaded = {m: m in sys.modules for m in ('numpy.ma', 'circlet.doublecover')}\n"
            "later = [main(argv) for argv in json.loads(sys.argv[2])]\n"
            "print(json.dumps([codes, loaded, later]))\n"
        )
        return _python("-c", script, json.dumps(argvs), json.dumps(later))

    def test_pipelines_leave_numpy_ma_unloaded(self, pipelines):
        # importing numpy.ma costs each run tens of milliseconds; on numpy
        # 2.4, np.unique without return_counts pulls it in
        codes, loaded, _ = pipelines
        assert codes == [0, 0, 0]
        assert not loaded["numpy.ma"]

    def test_pipelines_leave_doublecover_unloaded(self, pipelines):
        codes, loaded, _ = pipelines
        assert codes == [0, 0, 0]
        assert not loaded["circlet.doublecover"]

    def test_unwrap_imports_doublecover_itself(self, pipelines):
        _, _, later = pipelines
        assert later == [0, 0]

    # the circlet modules each command executes; circlet.cli registers the
    # layers no command needs at import (classes, intlinalg, persistence,
    # projection, synthetic) as lazy modules, executed on first use
    EXECUTED = {
        "synth": {"cli", "io", "errors", "nerve", "cochains", "circle", "witness",
                  "synthetic"},
        "witness": {"cli", "io", "errors", "nerve", "cochains", "circle", "witness"},
        "report": {"cli", "io", "errors", "nerve", "cochains", "circle", "witness",
                   "classes", "intlinalg", "persistence", "projection"},
        "coordinatize": {"cli", "io", "errors", "nerve", "cochains", "circle", "witness",
                         "classes", "intlinalg", "projection"},
        "trivialize": {"cli", "io", "errors", "nerve", "cochains", "circle", "witness",
                       "classes", "intlinalg", "projection"},
    }
    LAZY = {"classes", "intlinalg", "persistence", "projection", "synthetic"}

    @pytest.mark.parametrize("command", list(EXECUTED))
    def test_each_command_executes_only_its_modules(self, torus_dir, tmp_path, command):
        argv = {
            "synth": ["synth", "--model", "lens:1", "--samples", "600", "--sets", "12"],
            "coordinatize": ["coordinatize", "--dim", "4", *_bundle_flags(torus_dir)],
        }.get(command, [command, *_bundle_flags(torus_dir)])
        script = (
            "import json, sys, types\n"
            "from circlet.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "mods = {n[8:]: type(m) is types.ModuleType for n, m in sys.modules.items()\n"
            "        if n.startswith('circlet.')}\n"
            "print(json.dumps([code, mods]))\n"
        )
        code, mods = _python("-c", script, json.dumps([*argv, f"--out={tmp_path / 'o'}"]))
        assert code == 0
        assert {m for m, executed in mods.items() if executed} == self.EXECUTED[command]
        # the layers it does not execute are still registered, unexecuted
        assert self.LAZY <= set(mods)

    def test_library_import_loads_no_numpy_and_sets_no_variable(self):
        script = (
            "import json, os, sys\n"
            "before = dict(os.environ)\n"
            "import circlet\n"
            "bare = 'numpy' not in sys.modules\n"
            "import circlet.projection\n"
            "same = dict(os.environ) == before\n"
            "from circlet import karcher_mean, s1_point\n"
            "print(json.dumps([bare, same, s1_point.__name__, karcher_mean.__name__]))\n"
        )
        bare, same, *names = _python("-c", script, env=_without_blas_env())
        assert bare
        assert same
        assert names == ["s1_point", "karcher_mean"]


class TestBlasThreads:
    @pytest.mark.parametrize("extra, expected", [
        ({}, {"threads": "1", "chosen_by": "circlet"}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"threads": "2", "chosen_by": "caller"}),
        ({"OMP_NUM_THREADS": "2"}, {"threads": "2", "chosen_by": "caller"}),
    ], ids=["default", "openblas-set", "omp-set"])
    def test_manifest_records_the_setting(self, torus_dir, tmp_path, extra, expected):
        out = tmp_path / "report"
        _python("-m", "circlet.cli", "report", *_bundle_flags(torus_dir), f"--out={out}",
                env=_without_blas_env(**extra))
        assert read(out / "manifest.json")["blas"] == expected

    def test_numpy_loaded_first_keeps_its_threads(self):
        # the variable could no longer reach this process's BLAS, only its children
        script = (
            "import json, os, numpy, circlet.cli\n"
            "print(json.dumps([circlet.cli._BLAS_THREADS, "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
        )
        assert _python("-c", script, env=_without_blas_env()) == [
            {"threads": None, "chosen_by": "caller"}, None,
        ]

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        lens = tmp_path / "lens2"
        assert run(
            "synth", "--model", "lens:2", "--samples", "1000", "--sets", "32",
            "--seed", "0", "--out", str(lens),
        ) == 0
        script = (
            "import json, sys\n"
            "from circlet.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
        )
        commands = {"report": ["report"], "coordinatize": ["coordinatize", "--dim", "4"]}
        outputs = {}
        for threads in ("1", "2"):
            argvs = [[*argv, *_bundle_flags(lens), f"--out={tmp_path / threads / name}"]
                     for name, argv in commands.items()]
            assert _python("-c", script, json.dumps(argvs),
                           env=_without_blas_env(OPENBLAS_NUM_THREADS=threads)) == [0, 0]
            outputs[threads] = {
                path.relative_to(tmp_path / threads): path.read_bytes()
                for path in (tmp_path / threads).rglob("*.json")
                if path.name != "manifest.json"
            }
        assert len(outputs["1"]) == 2
        assert outputs["1"] == outputs["2"]


class TestProcessEntry:
    """``python -m circlet.cli`` ends through ``cli.run``: a flush, then ``os._exit``."""

    @staticmethod
    def _env():
        # block-buffered streams, so output reaches a file or pipe only at a flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(circlet.__file__))
        return env

    def _entry(self, tmp_path, *argv):
        """Exit code, stdout and stderr of one fresh process, each stream a file."""
        out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
        with open(out, "wb") as o, open(err, "wb") as e:
            code = subprocess.run(
                [sys.executable, "-m", "circlet.cli", *map(str, argv)],
                stdout=o, stderr=e, env=self._env(), timeout=300,
            ).returncode
        return code, out.read_text(), err.read_text()

    @staticmethod
    def _manifest_agrees(out_dir, status):
        manifest = read(out_dir / "manifest.json")
        assert manifest["status"] == status
        for row in manifest["outputs"]:
            assert io.file_digest(str(out_dir / row["path"])) == row["sha256"]
        return manifest

    def test_success_exits_zero_with_summary_and_manifest(self, tmp_path):
        out = tmp_path / "synth"
        code, stdout, stderr = self._entry(
            tmp_path, "synth", "--model", "torus", "--samples", "300", "--sets", "12",
            "--out", out,
        )
        assert (code, stderr) == (0, "")
        assert json.loads(stdout)["command"] == "synth"
        manifest = self._manifest_agrees(out, 0)
        assert {r["path"] for r in manifest["outputs"]} == {
            "dataset.json", "cover.json", "trivs.json", "scenario.json",
        }
        assert io.parse_trivs(read(out / "trivs.json")).sets() == list(range(12))

    def test_schema_error_exits_one(self, tmp_path):
        out = tmp_path / "bad"
        code, stdout, stderr = self._entry(tmp_path, "synth", "--model", "mobius", "--out", out)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": "schema", "message": "unknown model 'mobius'"}
        self._manifest_agrees(out, 1)

    def test_obstruction_exits_two(self, lens_dirs, tmp_path):
        out = tmp_path / "triv"
        code, stdout, stderr = self._entry(tmp_path, "trivialize", *_bundle_flags(lens_dirs[0]),
                                           "--out", out)
        assert (code, stderr) == (2, "")
        payload = json.loads(stdout)
        assert payload["obstruction"] and payload == {
            k: v for k, v in read(out / "obstruction.json").items()
            if k not in ("schema", "provenance")
        }
        self._manifest_agrees(out, 2)

    def test_guard_exits_three(self, torus_witness_dir, tmp_path):
        classes = tmp_path / "classes"
        assert run("classes", "--witness", str(torus_witness_dir / "witness.json"),
                   "--out", str(classes)) == 0
        out = tmp_path / "euler"
        code, stdout, stderr = self._entry(tmp_path, "euler", "--classes",
                                           classes / "classes.json", "--out", out)
        assert (code, stderr) == (3, "")
        assert json.loads(stdout)["guard"] == read(out / "guard.json")["guard"]
        self._manifest_agrees(out, 3)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["at-flush", "at-print"])
    def test_a_closed_stdout_ends_quietly(self, tmp_path, unbuffered):
        # the summary reaches the closed pipe at the flush in ``run``, or at
        # once when the streams are unbuffered
        env = self._env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        out = tmp_path / "synth"
        with open(tmp_path / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "circlet.cli", "synth", "--model", "torus",
                 "--samples", "300", "--sets", "12", "--out", str(out)],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            proc.stdout.close()
            code = proc.wait(timeout=300)
        assert code == 0
        assert (tmp_path / "stderr.txt").read_text() == ""
        self._manifest_agrees(out, 0)

    def test_console_script_runs_the_entry(self):
        import tomllib

        root = os.path.dirname(os.path.dirname(os.path.dirname(circlet.__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"circlet": "circlet.cli:run"}


class TestCollector:
    """``main`` pauses the cyclic collector for the command and gives it back."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def setting(self, request):
        was = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if was else gc.disable()

    @pytest.mark.parametrize("model, code", [("torus", 0), ("mobius", 1)])
    def test_setting_comes_back(self, setting, model, code, tmp_path, capsys):
        argv = ["synth", "--model", model, "--samples", "200", "--sets", "8",
                "--out", str(tmp_path / "x")]
        assert main(argv) == code
        assert gc.isenabled() is setting
        capsys.readouterr()

    def test_paused_during_the_command(self, setting, monkeypatch, tmp_path, capsys):
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "synth",
                            lambda args, run: seen.append(gc.isenabled()) or {})
        assert main(["synth", "--model", "torus", "--out", str(tmp_path / "x")]) == 0
        assert seen == [False] and gc.isenabled() is setting
        capsys.readouterr()

    def test_setting_comes_back_when_the_command_raises(self, setting, monkeypatch, tmp_path):
        def fail(args, run):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "synth", fail)
        with pytest.raises(RuntimeError, match="boom"):
            main(["synth", "--model", "torus", "--out", str(tmp_path / "x")])
        assert gc.isenabled() is setting
