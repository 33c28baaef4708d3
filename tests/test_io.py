"""Serialization round trips, canonical text, and provenance digests."""

import dataclasses
import errno
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    chart, charts_of, nerve_order, per_value_int, per_value_number, recursive_canonical_text,
    tuples,
)

from circlet import io
from circlet.cli import main
from circlet.errors import SchemaError, ShapeMismatch
from circlet.nerve import BundleDataset, Cover, build_nerve, edge_weights, filtration_order
from circlet.persistence import PersistenceReport, ThresholdPair
from circlet.synthetic import gen_s1_bundle
from circlet.witness import assemble_witness


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

record_keys = st.text(alphabet='ab%"\\ é中', max_size=4)
finite = st.floats(allow_nan=False, allow_infinity=False)
record_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    finite,
    st.text(alphabet='x%"é中\n', max_size=4),
    finite.map(np.float64),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.lists(finite, max_size=3).map(np.array),
    st.lists(st.integers(-5, 5) | finite, max_size=4),
    st.lists(finite, min_size=2, max_size=2),
    st.lists(st.lists(st.integers(-5, 5), max_size=2), max_size=2),
    st.lists(st.fixed_dictionaries({"x": st.integers(-5, 5)}), max_size=2),
    st.just({}),
    st.dictionaries(record_keys, st.integers(-5, 5), max_size=2),
)


@st.composite
def record_lists(draw):
    """Lists of dicts, mostly sharing one key set, with a broken set now and then."""
    keys = draw(st.lists(record_keys, max_size=4, unique=True))
    column = draw(st.sampled_from([None, finite, st.lists(finite, min_size=3, max_size=3)]))
    rows = [
        {k: draw(column if column is not None and i == 0 else record_values)
         for i, k in enumerate(keys)}
        for _ in range(draw(st.integers(0, 5)))
    ]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(record_keys)] = draw(record_values)
    return rows


# values a column must write exactly: integral floats up to the largest
# double, the smallest subnormal, and the int64 extremes
EDGE_FLOATS = [0.0, -0.0, 1.0, 2.0**53, 1e17, 5e-324, 1.7976931348623157e308]
EDGE_INTS = [-(2**63), 2**63 - 1, 0, -1]
# floats with a fractional part, the ones a column writes by one %.17g template
fractional = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 0.1, -1 / 3, 1e-5]),
    st.tuples(st.integers(-(2**40), 2**40), st.floats(0.001, 0.999)).map(sum),
)
column_pools = st.sampled_from([
    fractional,
    st.sampled_from(EDGE_FLOATS) | finite,
    st.sampled_from(EDGE_FLOATS) | fractional,
])


@st.composite
def column_tables(draw):
    """Columns of one length: int, float, and 2-D float columns of width 1-4."""
    n = draw(st.integers(0, 5))
    cols = {}
    for key in draw(st.lists(record_keys, min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["int", "float", "rows"]))
        if kind == "int":
            ints = st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
            cols[key] = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
            continue
        width = draw(st.integers(1, 4)) if kind == "rows" else 1
        pool = draw(column_pools)
        flat = np.array(draw(st.lists(pool, min_size=n * width, max_size=n * width)), dtype=float)
        cols[key] = flat.reshape(n, width) if kind == "rows" else flat
    return io.Columns(**cols)


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

    @settings(max_examples=300, deadline=None)
    @given(record_lists())
    def test_record_lists_match_the_recursive_form(self, rows):
        assert io.canonical_text(rows) == recursive_canonical_text(rows)
        doc = {"rows": rows, "%s": [rows]}
        assert io.canonical_text(doc) == recursive_canonical_text(doc)

    @pytest.mark.parametrize("rows", [
        [{"a": 1.0}, {"a": float("nan")}],
        [{"a": [0.5]}, {"a": [1.0, float("inf")]}],
        [{"a": 1}, {"a": np.array([np.nan])}],
        [{1: "x"}, {1: "y"}],
        [{"a": 1}, {"a": object()}],
    ], ids=["nan", "inf-in-row", "nan-array", "int-key", "object"])
    def test_record_lists_reject_what_the_recursive_path_rejects(self, rows):
        with pytest.raises(SchemaError):
            io.canonical_text(rows)

    @settings(max_examples=300, deadline=None)
    @given(column_tables())
    def test_column_records_match_the_recursive_form(self, table):
        assert io.canonical_text(table) == recursive_canonical_text(table)
        doc = {"rows": table, "sets": [{"id": 0, "values": table}, {"id": 1, "values": table}]}
        assert io.canonical_text(doc) == recursive_canonical_text(doc)

    def test_edge_values_in_columns(self):
        table = io.Columns(x=np.array(EDGE_FLOATS), n=np.array(EDGE_INTS * 2)[:7],
                           v=np.array(EDGE_FLOATS[::-1] * 2).reshape(7, 2))
        text = io.canonical_text(table)
        assert text == recursive_canonical_text(table)
        rows = json.loads(text)
        assert [r["x"] for r in rows] == EDGE_FLOATS
        assert {type(r["x"]) for r in rows} == {float}
        assert math.copysign(1.0, rows[1]["x"]) == -1.0
        assert io.canonical_text(io.Columns(a=np.zeros(0), b=np.zeros((0, 3)))) == "[]"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("shape", ["fractional", "integral", "rows"])
    def test_nonfinite_column_values_rejected(self, bad, shape):
        col = {"fractional": [0.5, bad], "integral": [1.0, bad], "rows": [[0.5, 1.0], [bad, 0.25]]}
        table = io.Columns(id=np.arange(2), v=np.array(col[shape]))
        with pytest.raises(SchemaError, match="non-finite"):
            io.canonical_text(table)
        with pytest.raises(SchemaError, match="non-finite"):
            io.canonical_text({"sets": [{"values": table}]})

    def test_columns_hold_only_numbers(self):
        with pytest.raises(SchemaError):
            io.Columns(ok=np.array([True, False]))
        with pytest.raises(SchemaError):
            io.Columns(ok=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            io.Columns(a=np.arange(2), b=np.arange(3))

    def test_dump_returns_digest_of_written_bytes(self, tmp_path):
        p = tmp_path / "x.json"
        digest = io.dump_json({"a": 1}, str(p))
        assert digest == io.sha256_hex(p.read_bytes())
        assert digest == io.file_digest(str(p))


# ---------------------------------------------------------------------------
# schema round trips


def written(doc):
    """A document as a reader sees it: parsed back from its canonical text."""
    return json.loads(io.canonical_text(doc))


class TestDatasetSchema:
    def test_round_trip_exact(self, torus):
        ds, _, _ = torus
        doc = written(io.dataset_doc(ds))
        back = io.parse_dataset(doc)
        assert np.array_equal(back.ids, ds.ids)
        assert back.kind == ds.kind
        assert np.array_equal(back.base, ds.base)
        assert io.canonical_text(io.dataset_doc(back)) == io.canonical_text(doc)

    def test_abstract_round_trip_keeps_distances(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        ds = BundleDataset(
            ids=(0, 1, 2), base=np.zeros((3, 0)), kind="abstract", distances=d
        )
        back = io.parse_dataset(written(io.dataset_doc(ds)))
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


# values that a number or integer field may hold in a JSON document
field_values = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**400, -(10**400)]),
    st.floats(),
    st.lists(st.integers(-3, 3), max_size=1),
)


class TestColumnChecks:
    """The column parsers accept exactly what one check per value accepts."""

    @settings(max_examples=300, deadline=None)
    @given(value=field_values, at=st.integers(0, 4), key=st.sampled_from(["sample", "angle_turns"]))
    def test_trivs_values(self, value, at, key):
        rows = [{"sample": 10 * i, "angle_turns": 0.125 * i} for i in range(5)]
        rows[at][key] = value
        doc = {"schema": "circlet/trivs", "sets": [{"id": 0, "values": rows}]}
        if (per_value_int if key == "sample" else per_value_number)(value) is None:
            with pytest.raises(SchemaError, match="expected a"):
                io.parse_trivs(doc)
            return
        samples = [r["sample"] for r in rows]
        turns = [per_value_number(r["angle_turns"]) for r in rows]
        if len(set(samples)) < len(samples):
            with pytest.raises(ShapeMismatch, match="appears twice"):
                io.parse_trivs(doc)
            return
        with np.errstate(over="ignore", invalid="ignore"):  # angles near the double's limit
            want = chart(charts_of({0: dict(zip(samples, turns))}), 0)
            got = chart(io.parse_trivs(doc), 0)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))

    @settings(max_examples=300, deadline=None)
    @given(value=field_values, at=st.integers(0, 3), key=st.sampled_from(["id", "base"]))
    def test_dataset_samples(self, value, at, key):
        rows = [{"id": i, "base": [1.0, 0.0]} for i in range(4)]
        if key == "id":
            rows[at]["id"] = value
            expect = per_value_int(value)
        else:
            rows[at]["base"] = [1.0, value]
            expect = per_value_number(value)
        doc = {"schema": "circlet/dataset", "base_space": {"kind": "circle"}, "samples": rows}
        if expect is None:
            with pytest.raises(SchemaError, match="expected a"):
                io.parse_dataset(doc)
            return
        # past the type check; a duplicate id or a point off the circle is refused later
        try:
            with np.errstate(over="ignore"):  # the norm of a huge base point
                ds = io.parse_dataset(doc)
        except SchemaError as exc:
            assert "expected a" not in str(exc)
        else:
            assert ds.ids.tolist() == [r["id"] for r in rows]
            assert (ds.base[at, 1] if key == "base" else ds.ids[at]) == expect

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5))
    def test_ragged_base_rows(self, lengths):
        rows = [{"id": i, "base": [1.0] + [0.0] * (n - 1)} for i, n in enumerate(lengths)]
        doc = {"schema": "circlet/dataset", "base_space": {"kind": "sphere"}, "samples": rows}
        if len(set(lengths)) > 1:
            with pytest.raises(SchemaError, match="differ in length"):
                io.parse_dataset(doc)
        else:
            assert io.parse_dataset(doc).base.shape == (len(lengths), lengths[0])

    @settings(max_examples=200, deadline=None)
    @given(value=field_values)
    @example(value=1)
    def test_cover_members(self, value):
        doc = {"schema": "circlet/cover", "sets": [{"id": 0, "members": [1, value, 2]}]}
        expect = per_value_int(value)
        if expect is None:
            with pytest.raises(SchemaError, match="member: expected a 64-bit integer"):
                io.parse_cover(doc)
        elif expect in (1, 2):
            with pytest.raises(SchemaError, match="cover set 0 lists a member twice"):
                io.parse_cover(doc)
        else:
            assert io.parse_cover(doc).samples.tolist() == sorted({1, expect, 2})

    def test_missing_keys_and_containers_are_named(self):
        rows = [{"sample": 1, "angle_turns": 0.5}, {"angle_turns": 0.5}]
        doc = {"schema": "circlet/trivs", "sets": [{"id": 0, "values": rows}]}
        with pytest.raises(SchemaError, match="trivs value: missing key 'sample'"):
            io.parse_trivs(doc)
        rows[1] = [1, 0.5]
        with pytest.raises(SchemaError, match="trivs value: missing key 'sample'"):
            io.parse_trivs(doc)
        doc = {"schema": "circlet/dataset", "base_space": {"kind": "circle"},
               "samples": [{"id": 0, "base": [1.0, 0.0]}, {"id": 1, "base": 1.0}]}
        with pytest.raises(SchemaError, match="sample: 'base' must be a list"):
            io.parse_dataset(doc)


class TestCoverSchema:
    def test_round_trip(self, torus):
        _, cover, _ = torus
        doc = io.cover_doc(cover)
        back = io.parse_cover(doc)
        for key in ("set_ids", "indptr", "samples", "center", "radius", "clipped"):
            assert np.array_equal(getattr(back, key), getattr(cover, key))
        assert io.canonical_text(io.cover_doc(back)) == io.canonical_text(doc)

    def test_clipped_flag_survives(self):
        c = Cover.of({3: {1, 2}}, clipped=[True])
        back = io.parse_cover(io.cover_doc(c))
        assert back.clipped.tolist() == [True]
        assert back.center is None and back.radius is None


class TestTrivsSchema:
    def test_round_trip_moves_vectors_at_most_ulps(self, torus):
        _, _, trivs = torus
        back = io.parse_trivs(written(io.trivs_doc(trivs)))
        assert np.array_equal(back.set_ids, trivs.set_ids)
        assert np.array_equal(back.indptr, trivs.indptr)
        assert np.array_equal(back.samples, trivs.samples)
        worst = float(np.linalg.norm(back.points - trivs.points, axis=1).max())
        # the angle codec costs one trig round trip, nothing more
        assert worst <= 1e-14

    def test_angles_stored_in_unit_range(self, torus):
        _, _, trivs = torus
        doc = written(io.trivs_doc(trivs))
        for row in doc["sets"]:
            for v in row["values"]:
                assert 0.0 <= v["angle_turns"] < 1.0


class TestWitnessSchema:
    def test_round_trip_with_filtration(self, torus):
        ds, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        nerve = filtration_order(edge_weights(nerve, trivs, wit))
        wit = wit._replace(nerve=nerve)
        quality = {"epsilon": 0.25, "alpha": None}
        doc = io.witness_doc(wit, quality=quality)
        back, q = io.parse_witness(doc)
        assert q == quality
        assert np.array_equal(back.nerve.edges, nerve.edges)
        assert back.turn.dtype == np.float64 and back.sign.dtype == np.int64
        assert np.array_equal(back.turn, wit.turn) and np.array_equal(back.sign, wit.sign)
        # empty dimensions are canonicalized away by the schema
        assert {p: tuples(s) for p, s in back.nerve.simplices.items() if len(s)} == {
            p: tuples(s) for p, s in nerve.simplices.items() if len(s)
        }
        assert nerve_order(back.nerve) == nerve_order(nerve)
        for p in nerve.simplices:
            assert np.array_equal(back.nerve.stage[p], nerve.stage[p])
            assert np.array_equal(back.nerve.weights[p] + back.nerve.perturbations[p],
                                  nerve.weights[p] + nerve.perturbations[p])
        assert io.canonical_text(io.witness_doc(back, quality=q)) == io.canonical_text(doc)

    def test_bad_sign_rejected(self, torus):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        doc = io.witness_doc(wit)
        doc["values"][0]["sign"] = 2
        with pytest.raises(SchemaError, match="sign"):
            io.parse_witness(doc)

    @pytest.mark.parametrize("mutate, match", [
        (lambda n: n.update(perturbations=[{"simplex": n["order"][-1]}]), "offset"),
        (lambda n: n.update(order=[[0], [0]]), "permutation"),
        (lambda n: n["order"].pop(), "permutation"),
        (lambda n: n["order"].__setitem__(-1, [0, 99]), "permutation"),
        (lambda n: n["simplices"]["0"].append([1 << 63]), "nerve: expected a 64-bit integer"),
        (lambda n: n["order"].__setitem__(-1, [0, 1 << 63]), "order: expected a 64-bit integer"),
        (lambda n: [r.update(weight=1 / (1 + i)) for i, r in enumerate(n["weights"])],
         "at stage 2, weighing less than stage 1"),
    ], ids=["perturbation-without-offset", "repeated-order", "short-order", "order-off-the-nerve",
            "vertex-past-int64", "order-vertex-past-int64", "weights-fall-along-order"])
    def test_malformed_nerve_rejected(self, torus, mutate, match):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        nerve = filtration_order(edge_weights(nerve, trivs, wit))
        doc = io.witness_doc(wit._replace(nerve=nerve))
        mutate(doc["nerve"])
        with pytest.raises(SchemaError, match=match):
            io.parse_witness(doc)

    def test_value_off_the_nerve_rejected(self, torus):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        doc = io.witness_doc(wit)
        lost = doc["values"][0]["simplex"]
        doc["values"][0]["simplex"] = [0, 99]
        with pytest.raises(SchemaError, match=r"values row \[0, 99\] is not a simplex of the nerve"):
            io.parse_witness(doc)
        doc["values"].pop(0)
        match = rf"values has no row for simplex \[{lost[0]}, {lost[1]}\]"
        with pytest.raises(SchemaError, match=match):
            io.parse_witness(doc)

    def test_repeated_row_rejected(self, torus):
        # a second row for an edge must not override the first
        _, cover, trivs = torus
        doc = io.witness_doc(assemble_witness(trivs, build_nerve(cover)))
        first = doc["values"][0]["simplex"]
        doc["values"].append(dict(doc["values"][0], sign=-1))
        with pytest.raises(SchemaError, match=rf"values row \[{first[0]}, {first[1]}\] is repeated"):
            io.parse_witness(doc)

    def test_turns_are_reduced_to_the_unit_interval(self, torus):
        _, cover, trivs = torus
        doc = io.witness_doc(assemble_witness(trivs, build_nerve(cover)))
        doc["values"][0]["turn"], doc["values"][1]["turn"] = 1.25, -0.25
        back, _ = io.parse_witness(doc)
        at = {e: i for i, e in enumerate(tuples(back.nerve.edges))}
        rows = [at[tuple(doc["values"][i]["simplex"])] for i in (0, 1)]
        assert back.turn[rows].tolist() == [0.25, 0.75]


class TestClassesSchema:
    def test_round_trip(self, torus):
        _, cover, trivs = torus
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        from circlet.classes import euler_cochain

        res = euler_cochain(wit)
        doc = io.classes_doc(res, True)
        back = io.parse_classes(doc)
        assert back["sw"].tolist() == res.sw.tolist()
        assert back["euler"].tolist() == res.euler.tolist()
        assert back["lift"].tolist() == res.lift.tolist()
        assert back["sw_coboundary"] is True
        assert back["cocycle_defect"] == res.cocycle_defect
        # no triangles on this nerve: the margin is infinite, carried as null
        assert doc["bracket_margin"] is None
        assert back["bracket_margin"] == math.inf
        # arrays aligned to the parsed nerve: signs and lift on its edges
        assert len(back["sw"]) == len(back["lift"]) == len(back["nerve"].edges)
        assert back["euler"].dtype == np.int64 and len(back["euler"]) == len(nerve.triangles)


class TestPersistenceSchema:
    def test_round_trip(self):
        rep = PersistenceReport(
            sw=ThresholdPair(7, 0.5, 3, 0.125),
            euler=ThresholdPair(7, 0.5, 2, 0.0625),
            w_max=0.5,
            stage_sizes={0: 8, 1: 12, 2: 3},
        )
        doc = json.loads(io.canonical_text(io.persistence_doc(rep)))
        assert doc["sw"] == dataclasses.asdict(rep.sw)
        assert doc["euler"] == dataclasses.asdict(rep.euler)
        assert doc["w_max"] == rep.w_max
        assert doc["stage_sizes"] == [{"dim": 0, "count": 8}, {"dim": 1, "count": 12},
                                      {"dim": 2, "count": 3}]


def _clusters(*rows):
    return {"schema": "circlet/clusters", "sets": [{"id": j, "clusters": c} for j, c in rows]}


class TestClustersSchema:
    """A label column aligned to the cover's pairs; every inconsistency is a schema error."""

    COVER = Cover.of({0: [1, 2, 3], 4: [3, 5, 6]})

    def test_round_trip(self):
        label = np.array([True, True, False, False, True, False])
        doc = written(io.clusters_doc(self.COVER, label))
        assert doc == _clusters((0, [[1, 2], [3]]), (4, [[5], [3, 6]]))
        assert np.array_equal(io.parse_clusters(doc, self.COVER), label)

    def test_rows_in_any_order(self):
        doc = _clusters((4, [[5], [6, 3]]), (0, [[2, 1], [3]]))
        label = io.parse_clusters(doc, self.COVER)
        assert label.tolist() == [True, True, False, False, True, False]

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError, match="two clusters"):
            io.parse_clusters(_clusters((0, [[1], [2], [3]]), (4, [[5], [3, 6]])), self.COVER)

    @pytest.mark.parametrize("rows, message", [
        ([(0, [[9], [8]]), (0, [[1, 2], [3]]), (4, [[5], [3, 6]])], "clusters set 0 appears twice"),
        ([(0, [[1, 2], [3]]), (4, [[], [3, 5, 6]])], "set 4 has an empty cluster"),
        ([(0, [[1, 2], [3, 2]]), (4, [[5], [3, 6]])], "clusters of set 0 overlap"),
        ([(0, [[2, 1, 1], [3]]), (4, [[5], [6, 3, 6]])],
         "a cluster of set 0 lists sample 1 twice"),
        ([(0, [[1, 2], [3]]), (4, [[5], [6, 3, 6]])], "a cluster of set 4 lists sample 6 twice"),
        ([(0, [[1, 2], [3]])], "cluster labels and cover sets disagree"),
        ([(0, [[1, 2], [3]]), (4, [[5], [3, 6]]), (7, [[1], [2]])],
         "cluster labels and cover sets disagree"),
        ([(0, [[1, 2], [3]]), (4, [[5], [3]])], "clusters of set 4 do not partition its members"),
        ([(0, [[1, 2], [3]]), (4, [[5], [3, 6, 1]])],
         "clusters of set 4 do not partition its members"),
    ], ids=["repeated-row", "empty-cluster", "overlap", "sample-twice-in-a-cluster",
            "sample-twice-in-the-second-cluster", "missing-row",
            "extra-row", "member-without-label", "label-outside-its-set"])
    def test_inconsistent_labels_rejected(self, rows, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            io.parse_clusters(_clusters(*rows), self.COVER)


class TestScenarioSchema:
    def test_round_trip(self, torus):
        ds, cover, trivs = torus
        bundle = gen_s1_bundle(orientable=False, n_samples=60, n_arcs=8, seed=1)
        doc = json.loads(io.canonical_text(io.scenario_doc(bundle.scenario)))
        assert doc.pop("schema") == "circlet/scenario"
        assert doc == dataclasses.asdict(bundle.scenario)


class TestCoordsSchema:
    def test_global_round_trip(self):
        from circlet.projection import GlobalTrivialization

        g = GlobalTrivialization(
            ids=np.array([0, 1]),
            turns=np.array([0.25, 0.75]),
            phi={0: 1, 1: -1},
            edges=np.array([[0, 1]]),
            beta=np.array([2]),
            residual=1e-9,
        )
        doc = json.loads(io.canonical_text(io.global_coords_doc(g)))
        assert doc["kind"] == "global"
        assert {r["id"]: r["angle_turns"] for r in doc["angles"]} == {0: 0.25, 1: 0.75}
        assert {r["set"]: r["sign"] for r in doc["phi"]} == {0: 1, 1: -1}
        assert {tuple(r["simplex"]): r["value"] for r in doc["beta"]} == {(0, 1): 2}

    def test_frame_round_trip(self):
        from circlet.projection import BundleMapResult

        bm = BundleMapResult(
            ids=np.array([0, 1]),
            vectors=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            dim=3,
            stage=None,
            method="psc-substitute",
            overlap_residual=1e-10,
            plane_residual=1e-11,
            ortho_residual=0.0,
            reduction_errors={},
        )
        doc = written(io.frame_coords_doc(bm))
        assert doc["kind"] == "frame"
        assert doc["dim"] == 3
        assert doc["method"] == "psc-substitute"
        assert doc["vectors"][0] == {"id": 0, "v": bm.vectors[0].tolist()}
        # integral floats keep their decimal marker, so they read back as floats
        assert {type(x) for row in doc["vectors"] for x in row["v"]} == {float}


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

    def test_an_unreadable_path_names_the_system_error(self, tmp_path):
        for read in (io.file_digest, io.load_json):
            message = f"cannot read {tmp_path}: {os.strerror(errno.EISDIR)}"
            with pytest.raises(SchemaError, match=re.escape(message)):
                read(str(tmp_path))

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
