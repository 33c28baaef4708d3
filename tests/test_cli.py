"""End-to-end subcommand pipelines, exit codes, and output provenance."""

import errno
import gc
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import circlet
from circlet import cli, io, projection
from circlet import nerve as nerve_module
from circlet.cli import main
from circlet.synthetic import gen_disconnected_fiber


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
        assert cover.set_ids.tolist() == list(range(12))
        for key in ("set_ids", "indptr", "samples"):
            assert np.array_equal(getattr(trivs, key), getattr(cover, key))

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
        cover = io.parse_cover(read(out / "cover.json"))
        label = io.parse_clusters(read(out / "clusters.json"), cover)
        assert label.shape == cover.samples.shape and label.any() and not label.all()

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
        assert wit.nerve.stage is not None
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
        ("cover.json", lambda d: d["sets"][0].update(center=[2.0, 0.0])),
        ("dataset.json", lambda d: d["samples"][0]["base"].append(0.0)),
        ("dataset.json", lambda d: d["samples"][0].update(
            base=[x * (1 + 5e-6) for x in d["samples"][0]["base"]])),
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
        "sets-not-list", "string-clipped", "center-off-the-circle", "long-base",
        "base-off-the-circle",
        "string-sample-id", "float-sample-id",
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


class TestPathErrors:
    """A path the system refuses ends as one schema line on stderr that names it."""

    def report(self, torus_dir, data, out):
        return run("report", f"--data={data}", f"--cover={torus_dir / 'cover.json'}",
                   f"--trivs={torus_dir / 'trivs.json'}", f"--out={out}")

    def schema_line(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "schema"
        return doc["message"]

    @pytest.mark.parametrize("where, code", [
        ("data", errno.EISDIR), ("out", errno.EEXIST), ("out-under", errno.ENOTDIR),
    ], ids=["data-is-a-directory", "out-is-a-file", "out-under-a-file"])
    def test_schema_exit(self, torus_dir, tmp_path, capsys, where, code):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        data, out = torus_dir / "dataset.json", tmp_path / "out"
        if where == "data":
            data = tmp_path
        else:
            out = plain if where == "out" else plain / "sub"
        assert self.report(torus_dir, data, out) == 1
        path, verb = (data, "read") if where == "data" else (out, "make output directory")
        assert self.schema_line(capsys) == f"cannot {verb} {path}: {os.strerror(code)}"
        assert plain.read_text() == "" and not (tmp_path / "out").exists()

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file whatever its mode")
    def test_unreadable_input(self, torus_dir, tmp_path, capsys):
        data = tmp_path / "dataset.json"
        data.write_bytes((torus_dir / "dataset.json").read_bytes())
        data.chmod(0)
        assert self.report(torus_dir, data, tmp_path / "out") == 1
        assert self.schema_line(capsys) == f"cannot read {data}: {os.strerror(errno.EACCES)}"


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
        assert doc["euler_orientation"] in nerve.triangles.tolist()
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
        (lambda n: [r.update(weight=1 / (1 + i)) for i, r in enumerate(n["weights"])],
         "weighing less than stage"),
    ], ids=["order-not-a-permutation", "perturbation-without-offset", "boolean-vertices",
            "weights-fall-along-order"])
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


def _empty_first_set(cover, trivs):
    cover["sets"][0]["members"], trivs["sets"][0]["values"] = [], []


def _drop_first(name):
    """A cover-and-trivs mutation: drop set 0 from the one document ``name``."""
    return lambda cover, trivs: {"cover": cover, "trivs": trivs}[name]["sets"].pop(0)


def _short_center(cover, trivs):
    cover["sets"][0]["center"] = cover["sets"][0]["center"][:2]


def _outside_member(cover, trivs):
    cover["sets"][0]["members"].append(10**9)


def _outside_then_short_center(cover, trivs):
    """Set 0 fails a cross-check and set 1 the parse: the parse reports first."""
    _outside_member(cover, trivs)
    cover["sets"][1]["center"] = cover["sets"][1]["center"][:2]


def _short_chart(cover, trivs):
    trivs["sets"][0]["values"].pop()


def _no_sets(cover, trivs):
    cover["sets"], trivs["sets"] = [], []


def _paired_edit(edit, at, cover, trivs):
    """Apply one edit to both documents: to their set lists, or to the set at position ``at``.

    Both list the same sets in the same order, before the edit and after it.
    """
    sets = [cover["sets"], trivs["sets"]]
    if edit == "reorder":
        for rows in sets:
            rows.reverse()
    if edit == "reorder" or not sets[0]:
        return
    at %= len(sets[0])
    if edit == "drop-set":
        for rows in sets:
            rows.pop(at)
        return
    members, values = sets[0][at]["members"], sets[1][at]["values"]
    if edit == "empty-set":
        members.clear()
        values.clear()
    elif edit == "drop-member" and members:
        gone = members.pop(0)
        values[:] = [v for v in values if v["sample"] != gone]
    elif edit == "outside-sample":
        members.append(10**6)
        values.append({"sample": 10**6, "angle_turns": 0.0})


def _empty_cluster(doc):
    row = doc["sets"][0]
    row["clusters"] = [sorted(row["clusters"][0] + row["clusters"][1]), []]


def _overlapping_clusters(doc):
    row = doc["sets"][0]
    row["clusters"][1].append(row["clusters"][0][0])


def _repeated_cluster_sample(doc):
    row = doc["sets"][0]
    row["clusters"][0].append(row["clusters"][0][0])


def _outside_first_listing(doc):
    """List set 0 twice, first with samples the dataset lacks."""
    doc["sets"].insert(0, {"id": 0, "clusters": [[10**9], [10**9 + 1]]})


@pytest.fixture(scope="module")
def small_lens(tmp_path_factory):
    out = tmp_path_factory.mktemp("lens") / "synth"
    assert run("synth", "--model", "lens:1", "--samples", "300", "--sets", "12",
               "--out", str(out)) == 0
    return out


def _write_bundle(bundle, directory):
    """A generated bundle's dataset, cover, charts and clusters, written as synth writes them."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in (("dataset", io.dataset_doc(bundle.dataset)),
                      ("cover", io.cover_doc(bundle.cover)), ("trivs", io.trivs_doc(bundle.trivs)),
                      ("clusters", io.clusters_doc(bundle.cover, bundle.clusters))):
        io.dump_json(doc, str(directory / f"{name}.json"))


def _unwrap_argv(synth, edited, names, out):
    """``unwrap`` on synth's documents, with those in ``names`` read from ``edited`` instead."""
    path = {n: (edited if n in names else synth) / n
            for n in ("dataset.json", "cover.json", "trivs.json", "clusters.json")}
    return ["unwrap", f"--data={path['dataset.json']}", f"--cover={path['cover.json']}",
            f"--trivs={path['trivs.json']}", f"--clusters={path['clusters.json']}", f"--out={out}"]


def _cluster_edit(edit, at, clusters, cover, dataset):
    """One edit of the clusters document, or of the cover or dataset document beside it."""
    rows = clusters["sets"]
    if edit == "base-kind":
        dataset["base_space"]["kind"] = ("sphere", "circle", "abstract")[at % 3]
    elif edit == "drop-center":
        cover["sets"][at % len(cover["sets"])].pop("center", None)
    elif rows:
        row = rows[at % len(rows)]
        if edit == "drop-row":
            rows.remove(row)
        elif edit == "repeat-row":
            rows.append(json.loads(json.dumps(row)))
        elif row["clusters"][at % 2]:
            row["clusters"][1 - at % 2].append(row["clusters"][at % 2].pop())


@pytest.fixture(scope="module")
def small_disconnected(tmp_path_factory):
    out = tmp_path_factory.mktemp("disconnected") / "synth"
    assert run("synth", "--model", "disconnected:1", "--samples", "1000", "--sets", "20",
               "--out", str(out)) == 0
    return out


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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_connected_fiber_unwraps_to_double_euler_at_defaults(self, scenario, tmp_path, seed):
        # the generator's bundles at defaults: unwrapped, |e| = 2 and the sign class is trivial
        _write_bundle(scenario(gen_disconnected_fiber, 1, seed=seed), tmp_path / "d0")
        assert run("unwrap", *_bundle_flags(tmp_path / "d0"),
                   "--clusters", str(tmp_path / "d0" / "clusters.json"),
                   "--out", str(tmp_path / "d1")) == 0
        assert read(tmp_path / "d1" / "unwrap.json")["components"] == 1
        assert run("report", "--dims", "2", *_bundle_flags(tmp_path / "d1"),
                   "--out", str(tmp_path / "d2")) == 0
        block = read(tmp_path / "d2" / "report.json")["classes"]
        assert (abs(block["euler_number"]), block["sw_coboundary"], block["reason"]) == (
            2, True, None)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_split_fiber_report_recovers_its_euler_number(self, scenario, tmp_path, seed):
        b = scenario(gen_disconnected_fiber, 1, seed=seed, split=True)
        _write_bundle(b, tmp_path)
        assert run("report", "--dims", "2", *_bundle_flags(tmp_path),
                   "--out", str(tmp_path / "report")) == 0
        block = read(tmp_path / "report" / "report.json")["classes"]
        assert (abs(block["euler_number"]), block["reason"]) == (b.scenario.euler_number, None)

    @pytest.mark.parametrize("name, mutate, code, message", [
        ("cover.json", lambda d: d["sets"][3].pop("center"), 1,
         "set 3 has no center; cannot pick hemispheres"),
        ("dataset.json", _set(["base_space", "kind"], "sphere"), 2,
         "nontrivial connectivity class over a 'sphere' base; "
         "only antipodal-quotient bases unwrap geometrically"),
    ], ids=["set-without-center", "sphere-base"])
    def test_unwrap_faults_exit_with_a_manifest(self, small_disconnected, tmp_path, capsys,
                                                name, mutate, code, message):
        doc = read(small_disconnected / name)
        mutate(doc)
        (tmp_path / name).write_text(json.dumps(doc))
        argv = _unwrap_argv(small_disconnected, tmp_path, {name}, tmp_path / "un")
        assert run(*argv) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert json.loads((err if code == 1 else out).splitlines()[-1])["message"] == message
        assert read(tmp_path / "un" / "manifest.json")["status"] == code
        if code == 2:
            assert read(tmp_path / "un" / "obstruction.json")["obstruction"] == "nu"

    def test_centers_are_needed_only_where_a_piece_lifts(self, split_dirs, tmp_path):
        synth = split_dirs[0]
        cover = read(synth / "cover.json")
        for row in cover["sets"]:
            del row["center"]
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        assert run(*_unwrap_argv(synth, tmp_path, {"cover.json"}, tmp_path / "un")) == 0
        assert read(tmp_path / "un" / "unwrap.json")["components"] == 2

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(
        st.sampled_from(["drop-row", "repeat-row", "move-sample", "drop-center", "base-kind"]),
        st.integers(0, 59)), min_size=1, max_size=3))
    def test_cluster_edits_exit_without_traceback(self, small_disconnected, capsys, edits):
        # clusters.json edited together with cover.json or dataset.json
        docs = {n: read(small_disconnected / n)
                for n in ("clusters.json", "cover.json", "dataset.json")}
        for edit, at in edits:
            _cluster_edit(edit, at, *docs.values())
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, doc in docs.items():
                (tmp / name).write_text(json.dumps(doc))
            code = run(*_unwrap_argv(small_disconnected, tmp, set(docs), tmp / "un"))
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in capsys.readouterr().err
            assert read(tmp / "un" / "manifest.json")["status"] == code


class TestMalformedPipelineDocuments:
    """Clusters, classes, witness and cover documents go through the same column checks.

    A ``bundle`` case edits cover.json and trivs.json together and pins
    the message the run reports.
    """

    @pytest.mark.parametrize("name, mutate, message", [
        ("clusters.json", _set(["sets", 0, "id"], [0]), None),
        ("clusters.json", _set(["sets", 0, "clusters"], [1, 2]), None),
        ("clusters.json", lambda d: d["sets"][0]["clusters"][0].append([1]), None),
        ("clusters.json", _set(["sets", 0, "id"], "0"), None),
        ("clusters.json", _empty_cluster, "set 0 has an empty cluster"),
        ("clusters.json", _overlapping_clusters, "clusters of set 0 overlap"),
        ("clusters.json", lambda d: d["sets"][0]["clusters"][0].pop(),
         "clusters of set 0 do not partition its members"),
        ("clusters.json", lambda d: d["sets"].pop(0), "cluster labels and cover sets disagree"),
        ("clusters.json", _outside_first_listing, "clusters set 0 appears twice"),
        ("clusters.json", _repeated_cluster_sample, "a cluster of set 0 lists sample 0 twice"),
        ("classes.json", lambda d: d["sw"][0].pop("simplex"), None),
        ("classes.json", _set(["sw", 0, "sign"], 3), None),
        ("classes.json", _set(["sw", 0, "sign"], "x"), None),
        ("classes.json", _set(["sw"], 5), None),
        ("classes.json", _set(["euler", 0, "value"], 1.5), None),
        ("witness.json", _set(["values"], 5), None),
        ("witness.json", _set(["values", 0, "sign"], 1.0), None),
        ("witness.json", _set(["values", 0, "sign"], True), None),
        ("witness.json", _set(["nerve", "weights"], 5), None),
        ("witness.json", _set(["nerve", "simplices", "1"], 5), None),
        ("witness.json", _reverse_order, None),
        ("witness.json", _repeat(["values"], sign=-1), None),
        ("classes.json", _repeat(["sw"], sign=-1), None),
        ("classes.json", _repeat(["euler"], value=7), None),
        ("classes.json", _repeat(["lift"], turn=0.25), None),
        ("witness.json", _repeat(["nerve", "weights"], weight=0.5), None),
        ("witness.json", _repeated_perturbation, None),
        ("cover.json", lambda d: d["sets"].append(d["sets"][0]), None),
        ("cover.json", lambda d: d["sets"][0]["members"].append(d["sets"][0]["members"][0]), None),
        ("bundle", _outside_member, "cover set 0 references samples outside the dataset"),
        ("bundle", _drop_first("trivs"), "no chart for cover set 0"),
        ("bundle", _short_chart, "chart 0 domain does not match the cover set members"),
        ("bundle", _drop_first("cover"), "charts [0] have no cover set"),
        ("bundle", _short_center, "cover set 0 center has length 2, base points have 3"),
        ("bundle", _outside_then_short_center,
         "cover set 1 center has length 2, base points have 3"),
        ("bundle", _no_sets, "cover has no sets"),
        ("bundle", _empty_first_set, "cover set 0 has no members"),
    ], ids=[
        "cluster-id-list", "clusters-not-lists", "member-list", "cluster-id-string",
        "empty-cluster", "overlapping-clusters", "unlabelled-member", "missing-cluster-row",
        "repeated-cluster-row", "repeated-cluster-sample",
        "sw-without-simplex", "sw-sign-3", "sw-sign-string", "sw-not-list",
        "euler-value-float", "values-not-list", "witness-sign-float",
        "witness-sign-bool", "weights-not-list", "simplices-not-list",
        "order-before-facets", "repeated-value", "repeated-sw", "repeated-euler",
        "repeated-lift", "repeated-weight", "repeated-perturbation",
        "repeated-cover-set", "repeated-cover-member", "cover-sample-outside-dataset",
        "chart-missing", "chart-domain-short", "chart-without-cover-set", "center-length",
        "center-length-before-cross-checks",
        "cover-and-trivs-without-sets", "cover-and-chart-set-empty",
    ])
    def test_schema_exit_without_traceback(self, split_dirs, tmp_path, capsys, name, mutate,
                                           message):
        synth, wit, cls = split_dirs
        source = {"clusters.json": synth, "classes.json": cls, "witness.json": wit,
                  "cover.json": synth, "bundle": synth}[name]
        names = ["cover.json", "trivs.json"] if name == "bundle" else [name]
        docs = [read(source / n) for n in names]
        mutate(*docs)
        for n, doc in zip(names, docs):
            (tmp_path / n).write_text(json.dumps(doc))
        bad = tmp_path / names[0]
        trivs = tmp_path / "trivs.json" if name == "bundle" else synth / "trivs.json"
        commands = {
            "clusters.json": [["unwrap", *_bundle_flags(synth), "--clusters", str(bad)]],
            "classes.json": [["euler", "--classes", str(bad)]],
            "witness.json": [["classes", "--witness", str(bad)],
                             ["persist", "--witness", str(bad)]],
            "cover.json": [[cmd, "--data", str(synth / "dataset.json"), "--cover", str(bad),
                            "--trivs", str(trivs)]
                           for cmd in ("report", "trivialize")],
        }[names[0]]
        for argv in commands:
            out = tmp_path / argv[0]
            assert run(*argv, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert json.loads(err.splitlines()[-1])["error"] == "schema"
            assert message is None or json.loads(err.splitlines()[-1])["message"] == message
            assert read(out / "manifest.json")["status"] == 1

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(
        st.sampled_from(["drop-set", "empty-set", "drop-member", "outside-sample", "reorder"]),
        st.integers(0, 11)), min_size=1, max_size=3))
    def test_paired_edits_exit_without_traceback(self, small_lens, capsys, edits):
        # the same edit to cover.json and trivs.json keeps them consistent with
        # each other, so a run reaches past the cross-checks it would otherwise stop at
        cover, trivs = (read(small_lens / n) for n in ("cover.json", "trivs.json"))
        for edit, at in edits:
            _paired_edit(edit, at, cover, trivs)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, doc in (("cover.json", cover), ("trivs.json", trivs)):
                (tmp / name).write_text(json.dumps(doc))
            for command in ("report", "trivialize"):
                code = run(command, "--data", str(small_lens / "dataset.json"),
                           "--cover", str(tmp / "cover.json"), "--trivs", str(tmp / "trivs.json"),
                           "--out", str(tmp / command))
                assert code in (0, 1, 2, 3)
                assert "Traceback" not in capsys.readouterr().err
                assert read(tmp / command / "manifest.json")["status"] == code


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

    def test_facet_positions_built_once_per_nerve_and_dimension(self, tmp_path, monkeypatch):
        synth = tmp_path / "synth"
        assert run("synth", "--model", "lens:2", "--samples", "4000", "--sets", "64",
                   "--radius", "0.44", "--out", str(synth)) == 0
        built = []
        build = nerve_module._facet_positions

        def counted(nerve, q):
            # keyed by content: a copy that rebuilds the same positions counts twice
            built.append((nerve.simplices[q - 1].tobytes(), nerve.simplices[q].tobytes(), q))
            return build(nerve, q)

        monkeypatch.setattr(nerve_module, "_facet_positions", counted)
        assert run("report", *_bundle_flags(synth), "--out", str(tmp_path / "rep")) == 0
        assert built and len(set(built)) == len(built)

    def test_dims_outside_ambient_rejected(self, torus_dir, tmp_path):
        code = run(
            "report", "--data", str(torus_dir / "dataset.json"),
            "--cover", str(torus_dir / "cover.json"),
            "--trivs", str(torus_dir / "trivs.json"),
            "--dims", "2,4,99", "--out", str(tmp_path / "x"),
        )
        assert code == 1


class TestInputsReleased:
    """A command drops each input once its last reader has run.

    Each parser, ``_load_bundle`` and ``cut_base`` keep a weak reference
    to what they return (the latter two under one name, ``charts``, the
    table a command holds), and a probe on a later stage records which of
    them are still alive when it starts.
    """

    @pytest.fixture
    def alive_at(self, monkeypatch):
        def probe(stage):
            refs, seen = {}, {}

            def keep(module, name, key, pick=lambda out: out):
                call = getattr(module, name)

                def made(*args):
                    out = call(*args)
                    refs[key] = weakref.ref(pick(out))
                    return out

                monkeypatch.setattr(module, name, made)

            for name in ("parse_dataset", "parse_cover", "parse_trivs"):
                keep(io, name, name)
            for name, at in (("_load_bundle", 1), ("cut_base", 0)):
                keep(cli, name, "charts", lambda out, at=at: out[at])
            call = getattr(projection, stage)

            def probed(*args, **kwargs):
                seen.update((name, ref() is not None) for name, ref in refs.items())
                return call(*args, **kwargs)

            monkeypatch.setattr(projection, stage, probed)
            return seen

        return probe

    def test_report_frees_every_input_before_the_frames(self, torus_dir, tmp_path, alive_at):
        seen = alive_at("frame_field")
        assert run("report", *_bundle_flags(torus_dir), "--out", str(tmp_path / "x")) == 0
        assert seen == {"parse_dataset": False, "parse_cover": False, "parse_trivs": False,
                        "charts": False}

    @pytest.mark.parametrize("command, stage, flags", [
        ("coordinatize", "bundle_map", ["--dim", "4"]),
        ("coordinatize", "bundle_map", ["--dim", "4", "--stage", "23"]),
        ("trivialize", "global_trivialize", []),
    ], ids=["coordinatize", "coordinatize-stage", "trivialize"])
    def test_charts_outlive_the_dataset_and_cover(self, torus_dir, tmp_path, alive_at,
                                                   command, stage, flags):
        seen = alive_at(stage)
        argv = [command, *_bundle_flags(torus_dir), *flags, "--out", str(tmp_path / "x")]
        assert run(*argv) == 0
        # the parsed cover and charts live on only as the one table the command holds
        assert seen == {"parse_dataset": False, "parse_cover": False, "parse_trivs": False,
                        "charts": True}


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
                         "projection"},
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
        assert io.parse_trivs(read(out / "trivs.json")).set_ids.tolist() == list(range(12))

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
        row = (lambda args, run: seen.append(gc.isenabled()) or {}, *cli._SUBCOMMANDS["synth"][1:])
        monkeypatch.setitem(cli._SUBCOMMANDS, "synth", row)
        assert main(["synth", "--model", "torus", "--out", str(tmp_path / "x")]) == 0
        assert seen == [False] and gc.isenabled() is setting
        capsys.readouterr()

    def test_setting_comes_back_when_the_command_raises(self, setting, monkeypatch, tmp_path):
        def fail(args, run):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._SUBCOMMANDS, "synth", (fail, *cli._SUBCOMMANDS["synth"][1:]))
        with pytest.raises(RuntimeError, match="boom"):
            main(["synth", "--model", "torus", "--out", str(tmp_path / "x")])
        assert gc.isenabled() is setting


class TestStdoutSummary:
    """Each command's last stdout line names it and carries its summary keys."""

    KEYS = {
        "synth": {"model", "samples", "cover_sets", "sw_trivial", "euler_number"},
        "witness": {"edges", "triangles", "epsilon", "delta", "cocycle_epsilon"},
        "classes": {"sw_coboundary", "euler_support", "bracket_margin"},
        "euler": {"euler_number", "magnitude", "sw_coboundary"},
        "persist": {"sw_cobirth", "sw_codeath", "euler_cobirth", "euler_codeath", "w_max"},
        "coordinatize": {"dim", "stage", "overlap_residual", "plane_residual"},
        "trivialize": {"samples", "residual"},
        "unwrap": {"components", "sets", "nu_nontrivial"},
        "report": {"epsilon", "w_max", "dims"},
    }

    @pytest.mark.parametrize("command", list(KEYS))
    def test_keys(self, command, torus_dir, torus_witness_dir, lens_dirs, small_disconnected,
                  tmp_path, capsys):
        witness = ["--witness", str(torus_witness_dir / "witness.json")]
        argv = {
            "synth": ["--model", "torus", "--samples", "300", "--sets", "12"],
            "classes": witness,
            "euler": ["--classes", str(lens_dirs[2] / "classes.json")],
            "persist": witness,
            "coordinatize": ["--dim", "4", *_bundle_flags(torus_dir)],
            "unwrap": [*_bundle_flags(small_disconnected),
                       f"--clusters={small_disconnected / 'clusters.json'}"],
        }.get(command, _bundle_flags(torus_dir))
        capsys.readouterr()
        assert run(command, *argv, "--out", str(tmp_path / "o")) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary.pop("command") == command
        assert set(summary) == self.KEYS[command]
