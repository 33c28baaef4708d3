"""Command-line pipelines over the library.

Each subcommand reads schema-validated JSON, runs one pipeline stage,
and writes its outputs plus a run manifest into ``--out``.  Every output
document carries the provenance digest of the command, its configuration,
and its input files, so downstream files can be traced to the exact bytes
that produced them.

Exit codes partition by error family: 0 success, 1 schema violation,
2 topological obstruction (a certified result, reported machine-readably
on stdout), 3 numerical guard.

A run uses one BLAS thread unless its caller chose a count.  The largest
matrix a pipeline factors is the frame moment, of order twice the number of
cover sets (128x128 on a 64-set cover); the rest are small batched blocks.
At those sizes OpenBLAS's worker threads only spin beside the main thread:
on a 2-core machine they cost each run about a quarter of its CPU time, and
now and then stall one ``eigh`` for a fifth of a second.  OpenBLAS reads its
thread count once, when numpy loads it, so this module sets
``OPENBLAS_NUM_THREADS=1`` before its first ``import numpy``, and only when
numpy is not loaded yet and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` is set.  To override it, set
one of those variables; a process that imported numpy before this module
keeps whatever its BLAS already runs with.  ``manifest.json`` records the
setting in effect and who chose it.

A process ends as soon as its files are written.  ``main`` runs one
command with the cyclic garbage collector paused: a command builds many
objects and few reference cycles, so automatic collections would only
re-scan live data.  The one collection it makes is of the youngest
generation, right after argument parsing, which frees the parser (argparse
leaves it in cycles) before the command allocates.  ``main`` restores the
caller's setting before it returns, on success and on error, so tests and
in-process callers keep theirs.  ``run`` is the one process entry, for
``python -m circlet.cli`` and for the ``circlet`` console script: it calls
``main``, flushes stdout and stderr (a reader that went away is ignored),
and leaves through ``os._exit`` without tearing the interpreter down.
Every output file is closed by then, and circlet registers no exit handler
and starts no thread, so skipping the teardown loses nothing.  An exception
that escapes ``main`` takes the interpreter's usual exit.

A command holds one table per bundle, the charts on the cover's geometry,
and each input only while a stage reads it.  ``report`` drops the dataset and
the chart table once ``partition_of_unity`` has read them; ``coordinatize``
and ``trivialize`` drop the dataset after the partition and keep the
charts, which ``bundle_map`` and ``global_trivialize`` read.  Each handler
deletes its last reference to an input right after that stage.  Reference
counting frees it at once, collector or not, so the frames and the
reduction curve, the largest arrays of ``report``, reuse its memory
instead of raising the process's peak.

A process executes only the modules its command runs.  ``io``, ``errors``,
``nerve``, ``cochains``, ``circle`` and ``witness`` load with this module;
``classes``, ``intlinalg``, ``persistence``, ``projection`` and
``synthetic`` are registered through ``importlib.util.LazyLoader`` and run
on their first attribute access.  So ``synth`` executes ``synthetic`` and
none of the other four, ``witness`` none of them, ``report`` all but
``synthetic``, ``coordinatize`` only ``projection``, and ``trivialize``
neither ``synthetic`` nor ``persistence``.  Handlers, and ``projection``
itself, call a lazy layer through its module
(``projection.bundle_map(...)``), never through a name bound at import.
Function-level imports would save the same time, but a lazy
module is in ``sys.modules`` and on the ``circlet`` package from the
start, so a tool that wraps functions in every loaded circlet module (the
benchmark's tracer) finds and wraps it, and its first lookup runs it.
Only the parser of the subcommand ``argv`` names is built; help, usage
and error text read as if all of them were.  Each command is one
``_SUBCOMMANDS`` row, its handler beside its help and flags, and each synth
model one ``_MODELS`` row, which names its generator in ``synthetic``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace

# the variables OpenBLAS reads for its thread count, first one set wins
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _choose_blas_threads() -> dict:
    """Take one BLAS thread unless the caller chose a count or numpy is loaded.

    Returns the setting in effect, as the manifest records it: the count
    OpenBLAS reads (None for its one-per-core default) and who chose it.
    A loaded numpy has read its count already, and the variable would only
    leak into child processes.
    """
    if "numpy" not in sys.modules and not any(os.environ.get(k) for k in _BLAS_ENV):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        return {"threads": "1", "chosen_by": "circlet"}
    threads = next((os.environ[k] for k in _BLAS_ENV if os.environ.get(k)), None)
    return {"threads": threads, "chosen_by": "caller"}


_BLAS_THREADS = _choose_blas_threads()

# numpy, and every module below that imports it, loads OpenBLAS only here
import numpy as np

from . import io
from .cochains import Witness
from .errors import (
    GuardError,
    NotASurface,
    ObstructionError,
    SchemaError,
)
from .nerve import build_nerve, cut_base, edge_weights, filtration_order, simplex_weights
from .witness import assemble_witness, triv_quality


def _lazy(name: str):
    """``circlet.<name>``, registered now and executed on first attribute access."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


classes = _lazy("classes")
intlinalg = _lazy("intlinalg")
persistence = _lazy("persistence")
projection = _lazy("projection")
synthetic = _lazy("synthetic")

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_OBSTRUCTION = 2
EXIT_GUARD = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which is reserved here for
    # obstructions; bad usage is a schema violation
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_SCHEMA)


class _Run:
    """Provenance and output bookkeeping for one subcommand invocation."""

    def __init__(self, command: str, config: dict, input_paths: list[str], seed):
        self.command = command
        self.config = config
        self.inputs = io.input_rows(input_paths)
        self.seed = seed
        self.digest = io.provenance_digest(command, config, self.inputs, seed)
        self.timings: list[tuple[str, float]] = []
        self.outputs: list[dict] = []
        self.out_dir: str | None = None

    def open(self, out_dir: str):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise SchemaError(f"cannot make output directory {out_dir}: {exc.strerror}")
        self.out_dir = out_dir

    def write(self, name: str, doc: dict):
        doc = dict(doc)
        doc["provenance"] = self.digest
        digest = io.dump_json(doc, os.path.join(self.out_dir, name))
        self.outputs.append({"path": name, "sha256": digest})

    @contextmanager
    def timed(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings.append((name, time.perf_counter() - t0))

    def finish(self, status: int):
        if self.out_dir is None:
            return
        doc = io.manifest_doc(
            self.command,
            self.config,
            self.inputs,
            self.seed,
            self.timings,
            outputs=self.outputs,
        )
        doc["status"] = status
        doc["blas"] = _BLAS_THREADS
        io.dump_json(doc, os.path.join(self.out_dir, "manifest.json"))


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_bundle(args):
    """The dataset and the charts on the cover's geometry, cross-checked against each other.

    The cover's centers meet the base dimension as it is parsed.  Then the
    first set in id order that fails a check names the error, its checks
    in this order: members in the dataset, a chart, and a chart domain
    equal to the members.  Charts without a cover set come last.  Once
    they pass, the cover and the charts list the same pairs, so the charts
    take the cover's centers, radii and clipped flags and stand for both.
    """
    ds = io.parse_dataset(io.load_json(args.data))
    dim = None if ds.kind == "abstract" else ds.base.shape[1]
    cover = io.parse_cover(io.load_json(args.cover), dim)
    trivs = io.parse_trivs(io.load_json(args.trivs))
    k = len(cover.set_ids)
    outside = ~np.isin(cover.samples, ds.ids)
    uncharted = trivs.find(cover.samples, cover.sets) < 0
    outside, unmatched = (np.bincount(cover.slots[bad], minlength=k) > 0
                          for bad in (outside, uncharted))
    charted = np.isin(cover.set_ids, trivs.set_ids)
    inside = np.isin(trivs.sets, cover.set_ids)
    sizes = np.bincount(np.searchsorted(cover.set_ids, trivs.sets[inside]), minlength=k)
    checks = [
        (outside, "cover set {} references samples outside the dataset"),
        (~charted, "no chart for cover set {}"),
        (unmatched | (sizes != np.diff(cover.indptr)),
         "chart {} domain does not match the cover set members"),
    ]
    failing = np.stack([bad for bad, _ in checks])
    if failing.any():
        i = int(np.flatnonzero(failing.any(axis=0))[0])
        raise SchemaError(checks[int(np.argmax(failing[:, i]))][1].format(cover.set_ids[i]))
    extra = trivs.set_ids[~np.isin(trivs.set_ids, cover.set_ids)]
    if extra.size:
        raise SchemaError(f"charts {extra.tolist()} have no cover set")
    return ds, replace(trivs, center=cover.center, radius=cover.radius, clipped=cover.clipped)


def _sign_is_coboundary(nerve, sw) -> bool:
    return intlinalg.sign_potential(nerve.edges, sw) is not None


def _filtration(nerve, q):
    """The nerve in filtration order, weighted by the quality report's edge means."""
    # the quality report already holds every edge's mean chord error
    return filtration_order(simplex_weights(nerve, q.edge_mean))


def _pairing(nerve, sw, euler) -> tuple:
    """The twisted fundamental cycle, the Euler number, and the orientation triangle.

    The orientation is the triangle whose cycle coefficient is positive, or None.
    """
    mu = classes.fundamental_class_twisted(nerve, sw)
    number = classes.euler_number(euler, mu)
    anchor = classes.orientation_anchor(nerve, mu)
    return mu, number, None if anchor is None else nerve.triangles[anchor].tolist()


def _quality_dict(q) -> dict:
    """The quality report's summary fields: all but the per-edge arrays."""
    doc = {f.name: getattr(q, f.name) for f in fields(q) if not f.name.startswith("edge_")}
    # alpha is infinite when coverage is too sparse; null in transit
    doc["alpha"] = None if not np.isfinite(q.alpha) else float(q.alpha)
    return doc


# ---------------------------------------------------------------------------
# subcommand handlers


# synth model -> its generator in ``synthetic``, the default of its ``:p``
# parameter (None: the model takes none, and its cover is circle arcs), and
# the keywords it fixes; a name, not the function, so only ``synth`` runs ``synthetic``
_MODELS = {
    "torus": ("gen_s1_bundle", None, {"orientable": True}),
    "klein": ("gen_s1_bundle", None, {"orientable": False}),
    "lens": ("gen_lens_bundle", 1, {}),
    "rp2": ("gen_rp2_bundle", 1, {}),
    "disconnected": ("gen_disconnected_fiber", 5, {"split": False}),
    "split": ("gen_disconnected_fiber", 5, {"split": True}),
}


def _cmd_synth(args, run: _Run):
    name, _, arg = args.model.partition(":")
    power = None
    if arg:
        try:
            power = int(arg)
        except ValueError:
            raise SchemaError(f"model parameter must be an integer, got {arg!r}")
        if power <= 0:
            raise SchemaError("model parameter must be positive")
    model = _MODELS.get(name)
    circle = model is not None and model[1] is None
    if circle and args.radius is not None:
        raise SchemaError("circle covers fix their radius from the arc count")
    if circle and power is not None:
        raise SchemaError(f"model {name!r} takes no parameter")
    if model is None:
        raise SchemaError(f"unknown model {args.model!r}")
    generator, default, fixed = model
    # each flag in the range its generator accepts; a split bundle needs a sample per copy
    for flag, value, least in (("--samples", args.samples, 2 if fixed.get("split") else 1),
                               ("--sets", args.sets, 3 if circle else 1)):
        if value is not None and value < least:
            raise SchemaError(f"{flag} must be at least {least} for model {name!r}, "
                              f"got {value}")
    if args.radius is not None and not math.isfinite(args.radius):
        raise SchemaError(f"--radius must be finite, got {args.radius}")
    if not math.isfinite(args.noise) or args.noise < 0:
        raise SchemaError(f"--noise must be finite and not negative, got {args.noise}")

    kwargs = {"seed": args.seed, "noise": args.noise, **fixed}
    for key, value in (("n_samples", args.samples), ("n_arcs" if circle else "n_sets", args.sets),
                       ("radius", args.radius)):
        if value is not None:
            kwargs[key] = value
    params = () if circle else (default if power is None else power,)
    with run.timed("generate"):
        bundle = getattr(synthetic, generator)(*params, **kwargs)

    with run.timed("write"):
        run.write("dataset.json", io.dataset_doc(bundle.dataset))
        run.write("cover.json", io.cover_doc(bundle.cover))
        run.write("trivs.json", io.trivs_doc(bundle.trivs))
        run.write("scenario.json", io.scenario_doc(bundle.scenario))
        if bundle.clusters is not None:
            run.write("clusters.json", io.clusters_doc(bundle.cover, bundle.clusters))

    sc = bundle.scenario
    return {
        "model": sc.model,
        "samples": sc.n_samples,
        "cover_sets": sc.cover_sets,
        "sw_trivial": sc.sw_trivial,
        "euler_number": sc.euler_number,
    }


def _cmd_witness(args, run: _Run):
    with run.timed("load"):
        _, charts = _load_bundle(args)
    with run.timed("nerve"):
        nerve = build_nerve(charts)
    with run.timed("witness"):
        wit = assemble_witness(charts, nerve)
        q = triv_quality(charts, wit, nerve)
    with run.timed("filtration"):
        nerve = _filtration(nerve, q)
        wit = wit._replace(nerve=nerve)
    with run.timed("write"):
        run.write("witness.json", io.witness_doc(wit, quality=_quality_dict(q)))
    return {
        "edges": len(nerve.edges),
        "triangles": len(nerve.triangles),
        "epsilon": q.epsilon,
        "delta": q.delta,
        "cocycle_epsilon": q.cocycle_epsilon,
    }


def _cmd_classes(args, run: _Run):
    with run.timed("load"):
        wit, _ = io.parse_witness(io.load_json(args.witness))
    with run.timed("classes"):
        result = classes.euler_cochain(wit)
        swb = _sign_is_coboundary(wit.nerve, result.sw)
    with run.timed("write"):
        doc = io.classes_doc(result, swb)
        run.write("classes.json", doc)
    return {"sw_coboundary": swb, "euler_support": int(np.count_nonzero(result.euler)),
            "bracket_margin": doc["bracket_margin"]}


def _cmd_euler(args, run: _Run):
    with run.timed("load"):
        parsed = io.parse_classes(io.load_json(args.classes))
        nerve = parsed["nerve"]
    with run.timed("pairing"):
        mu, number, orientation = _pairing(nerve, parsed["sw"], parsed["euler"])
    summary = {"euler_number": number, "magnitude": abs(number),
               "sw_coboundary": parsed["sw_coboundary"]}
    with run.timed("write"):
        run.write(
            "euler.json",
            {
                "schema": "circlet/euler",
                **summary,
                # support of the collapsed-core representative
                "fundamental_support": int(np.count_nonzero(mu)),
                "euler_orientation": orientation,
            },
        )
    return summary


def _cmd_persist(args, run: _Run):
    with run.timed("load"):
        wit, _ = io.parse_witness(io.load_json(args.witness))
    if wit.nerve.stage is None:
        raise SchemaError(
            "witness file has no filtration order; run the witness step first"
        )
    with run.timed("persistence"):
        report = persistence.persistence_report(wit, wit.nerve)
    with run.timed("write"):
        run.write("persistence.json", io.persistence_doc(report))
    return {
        "sw_cobirth": report.sw.cobirth_weight,
        "sw_codeath": report.sw.codeath_weight,
        "euler_cobirth": report.euler.cobirth_weight,
        "euler_codeath": report.euler.codeath_weight,
        "w_max": report.w_max,
    }


def _cmd_coordinatize(args, run: _Run):
    with run.timed("load"):
        ds, charts = _load_bundle(args)
    with run.timed("nerve"):
        nerve = build_nerve(charts)
        wit = assemble_witness(charts, nerve)
    if args.stage is not None:
        if not 1 <= args.stage <= len(nerve):
            raise SchemaError(f"--stage {args.stage} outside 1..{len(nerve)}")
        with run.timed("stage-cut"):
            nerve = filtration_order(edge_weights(nerve, charts, wit))
            charts, _ = cut_base(charts, nerve, args.stage)
            nerve = build_nerve(charts)
            wit = assemble_witness(charts, nerve)
    with run.timed("coordinates"):
        rho = projection.partition_of_unity(charts, ds)
        del ds
        _check_dims([args.dim], rho.ambient)
        bm = projection.bundle_map(charts, wit, rho, d=args.dim, stage=args.stage)
    with run.timed("write"):
        run.write("coords.json", io.frame_coords_doc(bm))
    return {"dim": bm.dim, "stage": bm.stage, "overlap_residual": bm.overlap_residual,
            "plane_residual": bm.plane_residual}


def _cmd_trivialize(args, run: _Run):
    with run.timed("load"):
        ds, charts = _load_bundle(args)
    with run.timed("pipeline"):
        nerve = build_nerve(charts)
        wit = assemble_witness(charts, nerve)
        rho = projection.partition_of_unity(charts, ds)
        del ds
        g = projection.global_trivialize(charts, wit, rho)
    with run.timed("write"):
        run.write("coords.json", io.global_coords_doc(g))
    return {"samples": len(g.ids), "residual": g.residual}


def _cmd_unwrap(args, run: _Run):
    from .doublecover import unwrap_double_cover

    with run.timed("load"):
        ds, charts = _load_bundle(args)
        label = io.parse_clusters(io.load_json(args.clusters), charts)
    with run.timed("unwrap"):
        result = unwrap_double_cover(ds, charts, label)
    with run.timed("write"):
        run.write("dataset.json", io.dataset_doc(result.dataset))
        run.write("cover.json", io.cover_doc(result.cover))
        run.write("trivs.json", io.trivs_doc(result.cover))
        run.write(
            "unwrap.json",
            {
                "schema": "circlet/unwrap",
                "components": result.components,
                "set_map": [
                    {"set": new, "parent": new // 2, "cluster": new % 2}
                    for new in result.cover.set_ids.tolist()
                ],
                "orientations": [
                    {"set": int(j), "sign": int(v)}
                    for j, v in sorted(result.orientations.items())
                ],
                "nu": io.simplex_rows(result.nerve.edges, "sign", result.nu),
            },
        )
    return {"components": result.components, "sets": len(result.cover.set_ids),
            "nu_nontrivial": bool(np.any(result.nu < 0))}


def _default_dims(ambient: int) -> list[int]:
    dims = []
    d = 2
    while d < ambient:
        dims.append(d)
        d *= 2
    dims.append(ambient)
    return dims


def _check_dims(dims: list[int], ambient: int):
    bad = [d for d in dims if not 2 <= d <= ambient]
    if bad:
        raise SchemaError(f"dims {bad} outside 2..{ambient} for this cover")


def _report_classes(wit: Witness, nerve, report) -> dict:
    """The classes block of report.json.

    Keys stay null when a guard or obstruction stops the computation, and
    ``reason`` names the error.  ``euler_cocycle`` says whether the
    rounded class vanishes on every tetrahedron, which makes the pairing
    independent of the cycle's representative.
    """
    block = dict.fromkeys((
        "sw_coboundary", "euler_number", "euler_orientation", "euler_cocycle",
        "cocycle_defect", "defect_margin", "reason",
    ))
    try:
        if report.sw.cobirth_index == len(nerve):
            # the sign-cobirth stage is the whole nerve: reuse its classes
            result = report.classes
        else:
            result = classes.euler_cochain(wit)
        block["sw_coboundary"] = _sign_is_coboundary(nerve, result.sw)
        block["cocycle_defect"] = float(result.cocycle_defect)
        block["defect_margin"] = float(result.defect_margin)
        block["euler_cocycle"] = result.euler_is_cocycle()
        _, block["euler_number"], block["euler_orientation"] = _pairing(
            nerve, result.sw, result.euler)
    except (GuardError, NotASurface) as exc:
        block["reason"] = {"error": type(exc).__name__, "message": str(exc)}
    return block


def _cmd_report(args, run: _Run):
    with run.timed("load"):
        ds, charts = _load_bundle(args)
    with run.timed("witness"):
        nerve = build_nerve(charts)
        wit = assemble_witness(charts, nerve)
        q = triv_quality(charts, wit, nerve)
    with run.timed("persistence"):
        nerve = _filtration(nerve, q)
        report = persistence.persistence_report(wit, nerve)
    with run.timed("classes"):
        classes_block = _report_classes(wit, nerve, report)
    with run.timed("reduction"):
        rho = projection.partition_of_unity(charts, ds)
        del ds, charts
        ff = projection.frame_field(wit, rho)
        if args.dims:
            try:
                dims = sorted({int(x) for x in args.dims.split(",")})
            except ValueError:
                raise SchemaError(f"bad --dims list {args.dims!r}")
        else:
            dims = _default_dims(rho.ambient)
        _check_dims(dims, rho.ambient)
        curve = projection.reduction_curve(ff, dims=dims)
    with run.timed("write"):
        run.write(
            "report.json",
            {
                "schema": "circlet/report",
                "quality": _quality_dict(q),
                "persistence": {
                    k: v
                    for k, v in io.persistence_doc(report).items()
                    if k != "schema"
                },
                "classes": classes_block,
                "reduction_curve": [
                    {
                        "dim": int(d),
                        "mean_error": float(mean),
                        "max_error": float(worst),
                    }
                    for d, mean, worst in curve
                ],
            },
        )
    return {"epsilon": q.epsilon, "w_max": report.w_max, "dims": dims}


# ---------------------------------------------------------------------------
# argument parsing


_BUNDLE = [(flag, {"required": True}) for flag in ("--data", "--cover", "--trivs")]

# subcommand -> its handler, help text and arguments besides --out, in usage order
_SUBCOMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic bundle with known ground truth", [
        ("--model", {
            "required": True,
            "help": " | ".join(name if default is None else f"{name}:p"
                               for name, (_, default, _) in _MODELS.items()),
        }),
        ("--samples", {"type": int, "default": None}),
        ("--sets", {"type": int, "default": None, "help": "cover sets (or arcs)"}),
        ("--radius", {"type": float, "default": None}),
        ("--noise", {"type": float, "default": 0.0, "help": "fiber noise, radians"}),
        ("--seed", {"type": int, "default": 0}),
    ]),
    "witness": (_cmd_witness, "estimate overlap isometries and their quality", _BUNDLE),
    "coordinatize": (_cmd_coordinatize, "embed samples through reduced frames", _BUNDLE + [
        ("--dim", {"type": int, "required": True}),
        ("--stage", {"type": int, "default": None}),
    ]),
    "trivialize": (_cmd_trivialize, "assemble one global fiber coordinate", _BUNDLE),
    "report": (_cmd_report, "quality, persistence, and reduction-curve summary", _BUNDLE + [
        ("--dims", {"default": None, "help": "comma list, e.g. 2,4,8"}),
    ]),
    "classes": (_cmd_classes, "sign and integer classes of a witness",
                [("--witness", {"required": True})]),
    "euler": (_cmd_euler, "pair the integer class with the fundamental class",
              [("--classes", {"required": True})]),
    "persist": (_cmd_persist, "class persistence along the weight filtration",
                [("--witness", {"required": True})]),
    "unwrap": (_cmd_unwrap, "lift a two-cluster bundle to its double cover",
               _BUNDLE + [("--clusters", {"required": True})]),
}

# which flags name input files, per subcommand, in usage order
_FILES = ("--data", "--cover", "--trivs", "--witness", "--classes", "--clusters")
_INPUTS = {name: [flag[2:] for flag, _ in flags if flag in _FILES]
           for name, (_, _, flags) in _SUBCOMMANDS.items()}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser of the subcommand ``argv`` starts with, or of all of them.

    Usage, help and error text are those of the full parser: with one
    subcommand added, the command's metavar still lists every one.  The
    full parser keeps the default metavar, since an invalid-choice error
    names the argument by its metavar when one is set.
    """
    parser = _Parser(
        prog="circlet",
        description="Discrete approximate circle bundles: synthesize, "
        "witness, classify, and coordinatize.",
    )
    one = bool(argv) and argv[0] in _SUBCOMMANDS
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if one else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in argv[:1] if one else _SUBCOMMANDS:
        _, help_text, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def _emit(payload: dict, stream=None):
    try:
        print(json.dumps(payload, sort_keys=True), file=stream or sys.stdout)
    except BrokenPipeError:
        pass  # the reader went away; the exit code and manifest still report the run


def main(argv=None) -> int:
    """Run one command; the exit code returns, the collector as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def run():
    """The process entry: ``main``, a flush, then exit without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (BrokenPipeError, ValueError):
            pass  # a reader that went away, or a stream the command closed
    os._exit(code)


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the parser is garbage now, held in reference cycles; one collection of
    # the youngest generation hands its memory to the command
    gc.collect(0)

    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "out"):
            continue
        if key in _INPUTS[args.command]:
            config[key] = os.path.basename(value)
        elif type(value) is float and not math.isfinite(value):
            # canonical JSON has no non-finite float; the manifest of the
            # run that rejects this flag records its text
            config[key] = str(value)
        else:
            config[key] = value

    run = None
    try:
        input_paths = [getattr(args, k) for k in _INPUTS[args.command]]
        run = _Run(args.command, config, input_paths, getattr(args, "seed", None))
        run.open(args.out)
        summary = _SUBCOMMANDS[args.command][0](args, run)
    except SchemaError as exc:
        _emit({"error": "schema", "message": str(exc)}, sys.stderr)
        if run is not None:
            run.finish(EXIT_SCHEMA)
        return EXIT_SCHEMA
    except ObstructionError as exc:
        payload = {
            "obstruction": getattr(exc, "reason", ""),
            "message": str(exc),
        }
        _emit(payload)
        if run is not None and run.out_dir is not None:
            run.write("obstruction.json", {"schema": "circlet/obstruction", **payload})
            run.finish(EXIT_OBSTRUCTION)
        return EXIT_OBSTRUCTION
    except GuardError as exc:
        payload = {"guard": type(exc).__name__, "message": str(exc)}
        _emit(payload)
        if run is not None and run.out_dir is not None:
            run.write("guard.json", {"schema": "circlet/guard", **payload})
            run.finish(EXIT_GUARD)
        return EXIT_GUARD
    run.finish(EXIT_OK)
    _emit({"command": args.command, **summary})
    return EXIT_OK


if __name__ == "__main__":
    run()
