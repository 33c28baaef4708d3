"""JSON schemas, canonical serialization, and run provenance.

Every document is written in a canonical text form: keys sorted, floats
with 17 significant digits (enough to reproduce the double exactly),
newline-terminated.  Identical objects therefore serialize to identical
bytes, which is what makes output digests meaningful.

Angles travel in turns.  Isometries travel as {turn, sign} pairs,
matrices row-major.  A chart travels as its stored angles, and reading
it back costs one cos/sin per value, so a round trip may move a chart
vector by a couple of ulps; everything discrete round-trips exactly.

Bulk fields (dataset ids and base rows, cover members, chart samples and
angles, cluster ids and members, and the simplex rows of nerve, witness
and classes documents) are read as one list per key and checked in one
step by ``_ints``, ``_floats`` or ``_signs``, the one statement of a
valid value; ``_need`` runs per row only to name a missing key or a
wrong container.  Cover members and chart values go straight into one
table of (set, sample) pairs each (``nerve.Cover``,
``witness.Trivialization``), sets in id order, and cluster labels into
one bool column aligned to the cover's pairs.  Simplex rows go
straight into arrays aligned to the nerve's simplices through
``_simplex_values``, which rejects a row off the nerve, a repeated row
and, unless told otherwise, a missing one.  A document that mirrors a
dataclass (a scenario, a threshold pair) takes its fields from
``dataclasses.asdict``, so the dataclass is the one list of them.

The per-sample record lists (dataset samples, chart values, global
angles and frame vectors) are built as :class:`Columns`, one array per
key, and written through one row template repeated once per row and one
``%`` over the interleaved values: ints by ``%d``, floats by ``%.17g``.
A float column holding an integral value (``0.0``, ``-0.0``, ``1.0``,
``1e17``) is formatted value by value instead, so such a float keeps its
decimal marker.  Any other list of dicts sharing one nonempty set of
string keys is written through one row template per list; everything
else takes the recursive path, with the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from dataclasses import asdict, replace
from itertools import chain, pairwise
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cochains import Witness
from .errors import SchemaError
from .nerve import BundleDataset, Cover, Nerve, _layout, ascending, lookup
from .witness import Trivialization

if TYPE_CHECKING:
    from .classes import CharClassResult
    from .persistence import PersistenceReport
    from .synthetic import SyntheticScenario

SCHEMA_PREFIX = "circlet/"


# ---------------------------------------------------------------------------
# canonical text


def _float_text(x: float) -> str:
    s = format(x, ".17g")
    if "." in s or "e" in s:
        return s
    if s in ("nan", "inf", "-inf"):
        raise SchemaError("non-finite float has no canonical form; encode as null")
    return s + ".0"


# the text of a plain Python scalar, looked up by its exact type
_SCALAR_TEXT = {
    float: _float_text,
    int: str,
    bool: lambda b: "true" if b else "false",
    str: lambda s: json.dumps(s, ensure_ascii=False),
    type(None): lambda _: "null",
}


def canonical_text(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    The standard encoder gives no control over float formatting, so this
    walks the structure itself; json.loads parses the result back.  Plain
    scalars inside a list or dict are formatted in place, and a numeric
    array becomes such a list in one ``tolist`` call, so a row of numbers
    costs no call per number.
    """
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if type(obj) is Columns:
        return _columns_text(obj, indent)
    pad = " " * indent
    kid = " " * (indent + 2)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        if isinstance(obj, np.ndarray) and obj.dtype.kind in "iuf":
            obj = obj.tolist()
        items = _record_texts(obj, indent + 2) or _column_texts(obj, indent + 2)
        if not items:
            return "[]"
        return "[\n" + kid + (",\n" + kid).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        rows = []
        for k in sorted(obj, key=str):
            if not isinstance(k, str):
                raise SchemaError(f"document keys must be strings, got {k!r}")
            v = obj[k]
            text = f(v) if (f := _SCALAR_TEXT.get(type(v))) else canonical_text(v, indent + 2)
            rows.append(kid + json.dumps(k) + ": " + text)
        if not rows:
            return "{}"
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def _column_texts(col, indent: int) -> list:
    """Texts of a list's values: one ``map`` per scalar column or flat list column."""
    types = set(map(type, col))
    if len(types) == 1 and (f := _SCALAR_TEXT.get(next(iter(types)))):
        return list(map(f, col))
    if types == {list}:
        flat = list(chain.from_iterable(col))
        if set(map(type, flat)) <= _SCALAR_TEXT.keys():
            texts, kid, out, at = _column_texts(flat, indent + 2), " " * (indent + 2), [], 0
            head, sep, tail = "[\n" + kid, ",\n" + kid, "\n" + " " * indent + "]"
            for n in map(len, col):
                out.append(head + sep.join(texts[at : at + n]) + tail if n else "[]")
                at += n
            return out
    return [f(x) if (f := _SCALAR_TEXT.get(type(x))) else canonical_text(x, indent) for x in col]


def _record_texts(rows, indent: int) -> list | None:
    """Texts of dicts sharing one nonempty set of string keys, by one row template; else None."""
    if not len(rows) or set(map(type, rows)) != {dict} or not rows[0]:
        return None
    keys = rows[0].keys()
    if not all(type(k) is str for k in keys) or not all(r.keys() == keys for r in rows):
        return None
    keys, kid = sorted(keys), " " * (indent + 2)
    fields = ",\n".join(kid + json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{\n" + fields + "\n" + " " * indent + "}"
    cols = [_column_texts([r[k] for r in rows], indent + 2) for k in keys]
    return [template % vals for vals in zip(*cols)]


class Columns:
    """A record list held as named columns: row ``i`` is ``{key: col[i]}``.

    Each column is a 1-D int or float array, or a 2-D one whose rows are
    fixed-width number lists.  ``canonical_text`` writes it with the bytes
    of the equivalent list of dicts.
    """

    __slots__ = ("cols",)

    def __init__(self, **cols):
        self.cols = {k: np.asarray(v) for k, v in cols.items()}
        if any(c.dtype.kind not in "iuf" or c.ndim not in (1, 2) for c in self.cols.values()):
            raise SchemaError("a column must be a 1-D or 2-D int or float array")
        if len({len(c) for c in self.cols.values()}) != 1:
            raise ValueError("Columns needs at least one column, all of one length")

    def __len__(self) -> int:
        return len(next(iter(self.cols.values())))


def _columns_text(table: Columns, indent: int) -> str:
    """One row template, repeated per row, filled by one ``%`` over every value."""
    n = len(table)
    if not n:
        return "[]"
    kid, field, item = (" " * (indent + k) for k in (2, 4, 6))
    fields, slots = [], []  # slots: the values of each template slot, in row order
    for key in sorted(table.cols):
        col = table.cols[key]
        flat = col.reshape(-1)
        vals, spec = flat.tolist(), "%d"
        if col.dtype.kind == "f":
            if not np.isfinite(flat).all():
                raise SchemaError("non-finite float has no canonical form; encode as null")
            if (flat == np.trunc(flat)).any():
                vals, spec = list(map(_float_text, vals)), "%s"
            else:
                spec = "%.17g"
        if col.ndim == 1:
            text, parts = spec, [vals]
        else:
            width = col.shape[1]
            text = "[\n" + ",\n".join([item + spec] * width) + "\n" + field + "]" if width else "[]"
            parts = [vals[j::width] for j in range(width)]
        fields.append(field + json.dumps(key).replace("%", "%%") + ": " + text)
        slots.extend(parts)
    row = "{\n" + ",\n".join(fields) + "\n" + kid + "}"
    k = len(slots)
    values = [None] * (n * k)
    for at, part in enumerate(slots):
        values[at::k] = part
    return "[\n" + kid + (",\n" + kid).join([row] * n) % tuple(values) + "\n" + " " * indent + "]"


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def dump_json(obj, path: str) -> str:
    """Write the canonical form; the digest of the written bytes returns."""
    data = (canonical_text(obj) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise SchemaError(f"{path} nests deeper than the JSON decoder can follow")


# ---------------------------------------------------------------------------
# validation helpers


def _need(doc: dict, key: str, where: str, kind=object):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    if not isinstance(doc[key], kind):
        raise SchemaError(f"{where}: {key!r} must be a {kind.__name__}")
    return doc[key]


def _check_schema(doc, name: str):
    tag = _need(doc, "schema", name)
    if tag != SCHEMA_PREFIX + name:
        raise SchemaError(
            f"expected schema {SCHEMA_PREFIX + name!r}, found {tag!r}"
        )


def _simplex(row, where: str) -> tuple:
    if not isinstance(row, list) or not all(type(v) is int for v in row):
        raise SchemaError(f"{where}: simplex must be a list of integers")
    return tuple(_ints(row, where).tolist())


def _column(rows, key: str, where: str, kind=object) -> list:
    """``row[key]`` of every row, each a ``kind``; ``_need`` names the first row that fails."""
    try:
        col = list(map(itemgetter(key), rows))
        if kind is object or set(map(type, col)) <= {kind}:
            return col
    except (TypeError, KeyError):
        pass
    return [_need(row, key, where, kind) for row in rows]


def _ints(col, where: str) -> np.ndarray:
    """The one check of integer fields: each an exact ``int`` (not ``bool``) inside int64."""
    try:
        if set(map(type, col)) <= {int}:
            return np.array(col, dtype=np.int64)
    except OverflowError:
        pass
    raise SchemaError(f"{where}: expected a 64-bit integer")


def _floats(col, where: str) -> np.ndarray:
    """The one check of number fields: each an exact ``int`` or ``float``, a finite double."""
    try:
        if set(map(type, col)) <= {int, float}:
            arr = np.array(col, dtype=float)
            if np.isfinite(arr).all():
                return arr
    except OverflowError:
        pass
    raise SchemaError(f"{where}: expected a finite number")


def _signs(col, where: str) -> np.ndarray:
    """The one check of sign fields: each an exact ``int``, +1 or -1."""
    arr = _ints(col, where)
    if not np.all(np.abs(arr) == 1):
        raise SchemaError(f"{where}: sign must be +-1")
    return arr


def _positions(tables: list, got: list) -> np.ndarray:
    """Position of each simplex of ``got`` among the rows of ``tables`` laid end to end, else -1."""
    pos, start = np.full(len(got), -1), 0
    for t in tables:
        mine = [i for i, s in enumerate(got) if len(s) == t.shape[1]]
        at = lookup(t, [got[i] for i in mine])
        pos[mine] = np.where(at < 0, -1, at + start)
        start += len(t)
    return pos


def _simplex_values(doc, name: str, key: str, field: str, check, tables: list, every=True):
    """The ``field`` values of the rows ``doc[key]`` as one array over the simplex ``tables``.

    ``check`` reads the values.  A row off ``tables`` or repeating a
    simplex is a schema error, and so is a simplex without a row when
    ``every`` holds; otherwise it reads 0.
    """
    rows, where = _need(doc, key, name, list), f"{key} row"
    got = [_simplex(s, where) for s in _column(rows, "simplex", where)]
    values = check(_column(rows, field, where), f"{key} {field}")
    pos, n = _positions(tables, got), sum(map(len, tables))
    counts = np.bincount(pos + 1, minlength=n + 1)
    bad = np.flatnonzero((pos < 0) | (counts[pos + 1] > 1))
    if bad.size:
        why = "is repeated" if pos[bad[0]] >= 0 else "is not a simplex of the nerve"
        raise SchemaError(f"{name}: {key} row {list(got[bad[0]])} {why}")
    if every and len(got) < n:
        lost = [s for t in tables for s in t.tolist()][np.argmin(counts[1:])]
        raise SchemaError(f"{name}: {key} has no row for simplex {lost}")
    out = np.zeros(n, values.dtype)
    out[pos] = values
    return out


def simplex_rows(simplices: np.ndarray, field: str, values) -> list[dict]:
    """``{"simplex", field}`` rows of an array aligned to the simplex rows ``simplices``."""
    return [{"simplex": s, field: v} for s, v in zip(simplices.tolist(), values.tolist())]


def _the_float(x, where: str) -> float:
    return float(_floats([x], where)[0])


# ---------------------------------------------------------------------------
# dataset


def dataset_doc(ds: BundleDataset) -> dict:
    base_space: dict = {"kind": ds.kind}
    doc = {
        "schema": SCHEMA_PREFIX + "dataset",
        "base_space": base_space,
        "samples": Columns(
            id=ds.ids,
            base=ds.base,
        ),
    }
    if ds.kind == "abstract":
        doc["distances"] = np.asarray(ds.distances, dtype=float).tolist()
    return doc


def parse_dataset(doc) -> BundleDataset:
    _check_schema(doc, "dataset")
    kind = _need(_need(doc, "base_space", "dataset"), "kind", "base_space")
    rows = _need(doc, "samples", "dataset", list)
    ids = _ints(_column(rows, "id", "sample"), "sample id")
    base = _column(rows, "base", "sample", list)
    flat = _floats(list(chain.from_iterable(base)), "sample base")
    if len(set(map(len, base))) > 1:
        raise SchemaError("dataset: sample base points differ in length")
    arr = flat.reshape(len(base), len(base[0]) if base else 0)
    try:
        dists = None
        if kind == "abstract":
            table = _need(doc, "distances", "dataset", list)
            if not set(map(type, table)) <= {list} or len(set(map(len, table))) > 1:
                raise SchemaError("dataset: distances must be rows of numbers, all one length")
            flat = _floats(list(chain.from_iterable(table)), "distances")
            dists = flat.reshape(len(table), len(table[0]) if table else 0)
        return BundleDataset(ids=ids, base=arr, kind=kind, distances=dists)
    except ValueError as exc:
        raise SchemaError(f"dataset: {exc}")


# ---------------------------------------------------------------------------
# cover


def cover_doc(cover: Cover) -> dict:
    """The cover's sets in id order.

    A set writes ``center`` and ``radius`` where it has them (they are not
    NaN), and ``clipped`` only when it is true.
    """
    rows = [{"id": j, "members": cover.samples[a:b].tolist()}
            for j, (a, b) in zip(cover.set_ids.tolist(), pairwise(cover.indptr.tolist()))]
    for key, col in (("center", cover.center), ("radius", cover.radius)):
        if col is not None:
            given = ~np.isnan(col).reshape(len(rows), -1).any(axis=1)
            for i, value in zip(np.flatnonzero(given).tolist(), col[given].tolist()):
                rows[i][key] = value
    for i in np.flatnonzero(cover.clipped).tolist():
        rows[i]["clipped"] = True
    return {"schema": SCHEMA_PREFIX + "cover", "sets": rows}


def _set_rows(doc, name: str) -> tuple[list, np.ndarray]:
    """The ``sets`` rows of a cover, trivs or clusters document, ids ascending, and their ids.

    A set id listed twice is a schema error.
    """
    _check_schema(doc, name)
    rows = _need(doc, "sets", name, list)
    ids = _ints(_column(rows, "id", f"{name} set"), f"{name} set id")
    by, again = ascending(ids)
    if again is not None:
        raise SchemaError(f"{name} set {again} appears twice")
    return [rows[i] for i in by], ids[by]


def _present(rows: list, where: list, key: str, kind) -> tuple[list, list]:
    """The positions of the rows that carry ``key``, and its value in each, a ``kind``."""
    at = [i for i, row in enumerate(rows) if key in row]
    return at, [_need(rows[i], key, where[i], kind) for i in at]


def parse_cover(doc, dim: int | None = None) -> Cover:
    """The cover as (set, sample) pairs.

    A cover without sets, a set id listed twice, a set without members, a
    member listed twice in one set, and centers of differing lengths or,
    given the base dimension ``dim``, of another length or off the unit
    sphere by more than 1e-9 are schema errors.
    """
    rows, ids = _set_rows(doc, "cover")
    if not rows:
        raise SchemaError("cover has no sets")
    where = [f"cover set {j}" for j in ids.tolist()]
    lists = [_need(row, "members", w, list) for row, w in zip(rows, where)]
    empty = [w for w, m in zip(where, lists) if not m]
    if empty:
        raise SchemaError(f"{empty[0]} has no members")
    samples = _ints(list(chain.from_iterable(lists)), "member")
    indptr, order = _layout(list(map(len, lists)), samples)
    at, given = _present(rows, where, "center", list)
    off = [(where[i], len(c)) for i, c in zip(at, given) if dim is not None and len(c) != dim]
    if off:
        raise SchemaError("{} center has length {}, base points have {}".format(*off[0], dim))
    center = radius = None
    if at:
        if len(set(map(len, given))) > 1:
            raise SchemaError("cover: set centers differ in length")
        center = np.full((len(rows), len(given[0])), np.nan)
        center[at] = _floats(list(chain.from_iterable(given)), "center").reshape(len(at), -1)
        far = np.abs(np.sqrt(np.einsum("ij,ij->i", center[at], center[at])) - 1) > 1e-9
        if dim is not None and far.any():
            raise SchemaError(f"{where[at[np.argmax(far)]]} center is not a unit vector")
    at, given = _present(rows, where, "radius", object)
    if at:
        radius = np.full(len(rows), np.nan)
        radius[at] = _floats(given, "radius")
    at, given = _present(rows, where, "clipped", bool)
    clipped = np.zeros(len(rows), bool)
    clipped[at] = given
    cover = Cover(ids, indptr, samples[order], center, radius, clipped)
    if (twice := cover.first_repeat()) is not None:
        raise SchemaError(f"cover set {twice[0]} lists a member twice")
    return cover


# ---------------------------------------------------------------------------
# trivialization


def trivs_doc(trivs: Trivialization) -> dict:
    turns = trivs.turns % 1.0
    return {"schema": SCHEMA_PREFIX + "trivs", "sets": [
        {"id": j, "values": Columns(sample=trivs.samples[a:b], angle_turns=turns[a:b])}
        for j, (a, b) in zip(trivs.set_ids.tolist(), pairwise(trivs.indptr.tolist()))]}


def parse_trivs(doc) -> Trivialization:
    """Charts from a trivs document; a sample listed twice in a chart is a ``ShapeMismatch``."""
    rows, ids = _set_rows(doc, "trivs")
    values = [_need(row, "values", f"trivs set {j}", list) for row, j in zip(rows, ids.tolist())]
    flat = list(chain.from_iterable(values))
    return Trivialization.from_pairs(
        ids, list(map(len, values)),
        _ints(_column(flat, "sample", "trivs value"), "sample"),
        _floats(_column(flat, "angle_turns", "trivs value"), "angle"),
    )


# ---------------------------------------------------------------------------
# nerve (embedded object, not a standalone schema)


def nerve_doc(nerve: Nerve) -> dict:
    """The nerve's simplices, weights and, when set, order and nonzero offsets.

    Weight and offset rows run in tuple lex order across dimensions (see ``nerve``).
    """
    rows = [s for a in nerve.simplices.values() for s in a.tolist()]
    lex = sorted(range(len(rows)), key=rows.__getitem__)
    weight, offset = (np.concatenate(list(a.values())).tolist()
                      for a in (nerve.weights, nerve.perturbations))
    doc: dict = {
        "simplices": {str(p): a.tolist() for p, a in nerve.simplices.items() if len(a)},
        "weights": [{"simplex": rows[i], "weight": weight[i]} for i in lex],
    }
    if nerve.stage is not None:
        doc["order"] = [rows[i] for i in np.argsort(np.concatenate(list(nerve.stage.values())))]
    if any(offset):
        doc["perturbations"] = [{"simplex": rows[i], "offset": offset[i]} for i in lex if offset[i]]
    return doc


def _check_complex(simplices: dict[int, list[tuple]]):
    """Each p-simplex has p+1 ascending vertices, appears once, and has every facet."""
    seen: set[tuple] = set()
    for p in sorted(simplices):
        for s in simplices[p]:
            if len(s) != p + 1 or any(a >= b for a, b in zip(s, s[1:])):
                raise SchemaError(
                    f"nerve: {p}-simplex {list(s)} needs {p + 1} strictly ascending vertices"
                )
            if s in seen:
                raise SchemaError(f"nerve: simplex {list(s)} is repeated")
            missing = next((f for f in (s[:i] + s[i + 1:] for i in range(len(s)) if p)
                            if f not in seen), None)
            if missing is not None:
                raise SchemaError(f"nerve: facet {list(missing)} of {list(s)} is missing")
            seen.add(s)


def parse_nerve(doc) -> Nerve:
    raw = _need(doc, "simplices", "nerve", dict)
    simplices = {}
    for p in raw:
        try:
            dim = int(p)
        except ValueError:
            raise SchemaError(f"nerve: bad dimension key {p!r}")
        if dim < 0 or dim in simplices:
            raise SchemaError(f"nerve: bad dimension key {p!r}")
        simplices[dim] = [_simplex(s, "nerve") for s in _need(raw, p, "nerve", list)]
    _check_complex(simplices)
    nerve = Nerve({p: sorted(s) for p, s in simplices.items()})
    tables = list(nerve.simplices.values())
    split = np.cumsum(list(map(len, tables)))[:-1]

    def by_dim(flat):
        return dict(zip(nerve.simplices, np.split(flat, split)))

    weights = stage = offsets = None
    if "weights" in doc:
        weights = by_dim(_simplex_values(doc, "nerve", "weights", "weight", _floats, tables))
    if "order" in doc:
        got = [_simplex(s, "order") for s in _need(doc, "order", "nerve", list)]
        pos = _positions(tables, got)
        if len(got) != len(nerve) or (pos < 0).any() or np.bincount(pos + 1).max(initial=0) > 1:
            raise SchemaError("nerve: order is not a permutation of the simplices")
        flat = np.empty(len(nerve), np.int64)
        flat[pos] = np.arange(1, len(pos) + 1)
        stage = by_dim(flat)
        late = np.concatenate([np.zeros(len(tables[0]), bool)] + [
            stage[p - 1][nerve.facet_positions(p)].max(axis=1) > stage[p] for p in list(stage)[1:]])
        first = next((s for s, i in zip(got, pos.tolist()) if late[i]), None)
        if first is not None:
            raise SchemaError(f"nerve: order lists {list(first)} before one of its facets")
    if "perturbations" in doc:
        offsets = by_dim(_simplex_values(doc, "nerve", "perturbations", "offset", _floats, tables,
                                         False))
    nerve = replace(nerve, weights=weights, perturbations=offsets, stage=stage)
    if stage is not None:
        w = nerve.stage_weights()
        if (fall := np.flatnonzero(w[1:] < w[:-1])).size:
            i = int(fall[0]) + 1
            raise SchemaError(f"nerve: order lists {list(got[i])} at stage {i + 1}, "
                              f"weighing less than stage {i}")
    return nerve


# ---------------------------------------------------------------------------
# witness


def witness_doc(witness: Witness, quality: dict | None = None) -> dict:
    rows = sorted(zip(witness.nerve.edges.tolist(), witness.turn.tolist(), witness.sign.tolist()))
    doc = {
        "schema": SCHEMA_PREFIX + "witness",
        "nerve": nerve_doc(witness.nerve),
        "values": [{"simplex": e, "turn": t, "sign": s} for e, t, s in rows],
    }
    if quality is not None:
        doc["quality"] = quality
    return doc


def parse_witness(doc) -> tuple[Witness, dict | None]:
    _check_schema(doc, "witness")
    nerve = parse_nerve(_need(doc, "nerve", "witness"))
    turn = _simplex_values(doc, "witness", "values", "turn", _floats, [nerve.edges])
    sign = _simplex_values(doc, "witness", "values", "sign", _signs, [nerve.edges])
    return Witness(nerve, turn % 1.0, sign), doc.get("quality")


# ---------------------------------------------------------------------------
# characteristic classes


def classes_doc(result: CharClassResult, sw_coboundary: bool) -> dict:
    nerve, bracket_margin = result.nerve, result.bracket_margin
    return {
        "schema": SCHEMA_PREFIX + "classes",
        "nerve": nerve_doc(nerve),
        "sw": simplex_rows(nerve.edges, "sign", result.sw),
        "euler": simplex_rows(nerve.triangles, "value", result.euler),
        "lift": simplex_rows(nerve.edges, "turn", result.lift),
        "bracket_margin": None if math.isinf(bracket_margin) else float(bracket_margin),
        "sw_coboundary": bool(sw_coboundary),
        "cocycle_defect": float(result.cocycle_defect),
    }


def parse_classes(doc) -> dict:
    _check_schema(doc, "classes")
    nerve = parse_nerve(_need(doc, "nerve", "classes"))
    margin = doc.get("bracket_margin")
    return {
        "nerve": nerve,
        "sw": _simplex_values(doc, "classes", "sw", "sign", _signs, [nerve.edges]),
        "euler": _simplex_values(doc, "classes", "euler", "value", _ints, [nerve.triangles]),
        "lift": _simplex_values(doc, "classes", "lift", "turn", _floats, [nerve.edges]),
        "bracket_margin": math.inf if margin is None else _the_float(margin, "bracket_margin"),
        "sw_coboundary": _need(doc, "sw_coboundary", "classes", bool),
        "cocycle_defect": _the_float(_need(doc, "cocycle_defect", "classes"), "defect"),
    }


# ---------------------------------------------------------------------------
# persistence


def persistence_doc(report: PersistenceReport) -> dict:
    return {
        "schema": SCHEMA_PREFIX + "persistence",
        "sw": asdict(report.sw),
        "euler": asdict(report.euler),
        "w_max": float(report.w_max),
        "stage_sizes": [
            {"dim": int(p), "count": int(n)}
            for p, n in sorted(report.stage_sizes.items())
        ],
    }


# ---------------------------------------------------------------------------
# cluster labels


def clusters_doc(cover: Cover, label: np.ndarray) -> dict:
    """Each cover set's two clusters, members ascending: the pairs ``label`` marks, the rest."""
    return {"schema": SCHEMA_PREFIX + "clusters", "sets": [
        {"id": j, "clusters": [cover.samples[a:b][label[a:b]].tolist(),
                               cover.samples[a:b][~label[a:b]].tolist()]}
        for j, (a, b) in zip(cover.set_ids.tolist(), pairwise(cover.indptr.tolist()))]}


def parse_clusters(doc, cover: Cover) -> np.ndarray:
    """Two-cluster labels as one bool column aligned to the cover's pairs, True in cluster 0.

    Each cover set has one row of two clusters of its members.  A set
    listed twice, an empty cluster, a sample listed twice in one cluster,
    a member in both clusters or in neither, a sample outside its set,
    and a row for a set the cover lacks, or none for one it has, are
    schema errors.
    """
    rows, ids = _set_rows(doc, "clusters")
    parts = _column(rows, "clusters", "clusters set", list)
    if not all(len(pair) == 2 and set(map(type, pair)) <= {list} for pair in parts):
        raise SchemaError("cluster row: need exactly two clusters, each a list of sample ids")
    members = _ints(list(chain.from_iterable(chain.from_iterable(parts))), "cluster member")
    sizes = np.array([list(map(len, pair)) for pair in parts], np.int64).reshape(-1, 2)
    if (empty := ids[(sizes == 0).any(axis=1)]).size:
        raise SchemaError(f"set {empty[0]} has an empty cluster")
    if not np.array_equal(ids, cover.set_ids):
        raise SchemaError("cluster labels and cover sets disagree")
    owner = np.repeat(ids, sizes.sum(axis=1))
    at = cover.find(members, owner)
    first = np.repeat(np.tile([True, False], len(ids)), sizes.reshape(-1))
    tally = np.stack([np.bincount(at[(at >= 0) & side], minlength=len(cover.samples))
                      for side in (first, ~first)])
    if (twice := np.flatnonzero((tally > 1).any(axis=0))).size:
        raise SchemaError("a cluster of set {} lists sample {} twice".format(
            cover.sets[twice[0]], cover.samples[twice[0]]))
    votes = tally > 0
    if (both := cover.sets[votes[0] & votes[1]]).size:
        raise SchemaError(f"clusters of set {both[0]} overlap")
    loose = np.r_[cover.sets[~(votes[0] | votes[1])], owner[at < 0]]
    if loose.size:
        raise SchemaError(f"clusters of set {loose.min()} do not partition its members")
    return votes[0]


# ---------------------------------------------------------------------------
# ground-truth scenario


def scenario_doc(sc: SyntheticScenario) -> dict:
    return {"schema": SCHEMA_PREFIX + "scenario", **asdict(sc)}


# ---------------------------------------------------------------------------
# coordinates


def global_coords_doc(g) -> dict:
    return {
        "schema": SCHEMA_PREFIX + "coords",
        "kind": "global",
        "angles": Columns(id=g.ids, angle_turns=g.turns % 1.0),
        "phi": [{"set": int(j), "sign": int(v)} for j, v in sorted(g.phi.items())],
        "beta": simplex_rows(g.edges, "value", g.beta),
        "residual": float(g.residual),
    }


def frame_coords_doc(bm) -> dict:
    return {
        "schema": SCHEMA_PREFIX + "coords",
        "kind": "frame",
        "dim": int(bm.dim),
        "stage": None if bm.stage is None else int(bm.stage),
        "method": bm.method,
        "overlap_residual": float(bm.overlap_residual),
        "plane_residual": float(bm.plane_residual),
        "vectors": Columns(id=bm.ids, v=bm.vectors),
    }


# ---------------------------------------------------------------------------
# provenance


def file_digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return sha256_hex(fh.read())
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}")


def input_rows(paths: Sequence[str]) -> list[dict]:
    return [
        {"path": os.path.basename(p), "sha256": file_digest(p)} for p in paths
    ]


def provenance_digest(command: str, config: dict, inputs: list[dict], seed) -> str:
    core = {
        "command": command,
        "config_hash": sha256_hex(canonical_text(config)),
        "inputs": inputs,
        "seed": seed,
    }
    return sha256_hex(canonical_text(core))


def manifest_doc(
    command: str,
    config: dict,
    inputs: list[dict],
    seed,
    timings: list[tuple[str, float]],
    outputs: list[dict] | None = None,
) -> dict:
    return {
        "schema": SCHEMA_PREFIX + "manifest",
        "command": command,
        "config": config,
        "config_hash": sha256_hex(canonical_text(config)),
        "inputs": inputs,
        "seed": seed,
        "digest": provenance_digest(command, config, inputs, seed),
        "versions": {
            "circlet": _package_version(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timings": [
            {"step": name, "seconds": float(sec)} for name, sec in timings
        ],
        "outputs": outputs or [],
    }


def _package_version() -> str:
    from . import __version__

    return __version__
