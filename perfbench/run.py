#!/usr/bin/env python3
"""Benchmark of the circlet command-line pipelines.

Run from the root of a checkout (one holding ``src/circlet``):

    python3 perfbench/run.py --workload lens1-report --seed 0 --seconds 15 --trace 0

``--trace 0`` runs the workload command as fresh ``python -m circlet.cli``
child processes, one at a time, and reports the end-to-end metrics.  The
time metrics (``wall_s``, ``cpu_s``, ``setup_s``) are speed-scaled
estimates, not the children's raw times: each raw time is multiplied by
the square root of a calibration loop's speed, timed between the children
(``SpeedGauge``).  The raw medians are printed beside them and stored.
``--trace 1`` runs the same commands in this process under the layer
wrappers of ``spans.py`` and reports the per-layer metrics.  Either way
the inputs come from ``circlet synth`` seeded from ``--seed``, every
output goes through the correctness oracle, and the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A fuller record (quartiles, digests, manifest timings, environment)
goes to ``.bench_results/``.  See ``NOTES.md`` for the workloads and the
layer predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import oracle

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
THREADS_ENV = "CIRCLET_THREADS"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", THREADS_ENV)

# one run must end inside 180 s whatever the machine does
RUN_BUDGET_S = 160.0
# synth seeds of one run are seed * INPUT_STRIDE + k, k < Workload.inputs
INPUT_STRIDE = 8
# set-up runs per benchmark run; setup_s is their median
MIN_SETUPS = 5
STARTUP_RUNS = 3
# calibration-loop time that defines reference machine speed (its fast-state
# time on the 2-core reference machine)
CAL_REF_S = 0.125


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple  # synth flags besides --seed and --out
    command: tuple  # subcommand and flags besides the input files and --out
    inputs: int  # input sets per run, each from its own synth seed
    oracle: str  # "report", "frame" or "global"
    cross_checked: bool | None  # defining property of a report workload


LENS2 = ("--model", "lens:2", "--sets", "64", "--radius", "0.44")

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "lens1-report",
            ("--model", "lens:1", "--samples", "2000", "--sets", "16", "--radius", "0.85"),
            ("report",),
            4,
            "report",
            True,
        ),
        Workload(
            "lens2-report",
            LENS2 + ("--samples", "4000"),
            ("report",),
            4,
            "report",
            False,
        ),
        # fewer samples than lens2-report: shorter runs, and the kernel's
        # cost does not need a large nerve
        Workload(
            "lens2-coordinatize",
            LENS2 + ("--samples", "2000"),
            ("coordinatize", "--dim", "4"),
            4,
            "frame",
            None,
        ),
        Workload(
            "torus-trivialize",
            ("--model", "torus", "--samples", "10000", "--sets", "24"),
            ("trivialize",),
            3,
            "global",
            None,
        ),
    ]
}

# persistence stage indices (sw cobirth, sw codeath, euler cobirth, euler
# codeath) per synth seed, as computed at the commit that defined the benchmark
PINNED = {
    "lens1-report": {
        0: (138, 138, 138, 121),
        1: (134, 134, 134, 127),
        2: (138, 138, 138, 130),
        3: (140, 140, 140, 131),
    },
    "lens2-report": {
        0: (651, 651, 651, 617),
        1: (651, 651, 651, 597),
        2: (651, 651, 651, 615),
        3: (671, 671, 671, 662),
    },
}

PROBE = (
    "import json, numpy, circlet.cli, circlet.persistence as p\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'cross_check_limit': getattr(p, 'CROSS_CHECK_LIMIT', None),"
    " 'numpy': numpy.__version__,"
    " 'blas': f\"{blas.get('name', '?')} {blas.get('version', '?')}\"}))\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    # the default sequential path is measured whatever the caller's shell sets
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, env: dict, log: str, deadline: float) -> Child:
    """Run one child to completion; wall from start to exit, rusage from wait4."""
    with open(log + ".out", "w+b") as out, open(log + ".err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill(signum, frame):
            proc.kill()

        old = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def calibrate() -> float:
    """Time a fixed interpreter-and-LAPACK loop that never touches circlet.

    On a shared machine the speed of a CPU-bound process drifts by up to
    1.8x over minutes.  The loop slows with it, so a run's time scaled by
    the loop's speed estimates its time at reference speed.
    """
    a = np.random.default_rng(0).standard_normal((60, 60))
    a = a @ a.T
    t0 = time.perf_counter()
    s = 0
    for i in range(500000):
        s += i * i % 7
    for _ in range(150):
        np.linalg.eigh(a)
    return time.perf_counter() - t0


class SpeedGauge:
    """Calibrations between consecutive children; each child's speed comes
    from the mean of the calibrations just before and just after it.

    The factor is the square root of CAL_REF_S / (loop time): the loop
    reacts more strongly to contention than the program does (1.75x slower
    while the program ran 1.3x slower), so full scaling over-corrects.  The
    square root was chosen on ten recorded runs per workload; NOTES.md
    gives its check on runs that were not used to choose it.
    """

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        before, self.last = self.last, calibrate()
        return math.sqrt(CAL_REF_S / (0.5 * (before + self.last)))


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "circlet.cli", *args]


def synth_args(wl: Workload, seed: int, out: str) -> list:
    return ["synth", *wl.synth, "--noise", "0", "--seed", str(seed), "--out", out]


def workload_args(wl: Workload, inp: str, out: str) -> list:
    return [
        *wl.command,
        "--data", os.path.join(inp, "dataset.json"),
        "--cover", os.path.join(inp, "cover.json"),
        "--trivs", os.path.join(inp, "trivs.json"),
        "--out", out,
    ]


# ---------------------------------------------------------------------------
# shared bookkeeping


def output_digests(out_dir: str) -> dict:
    """sha256 of every canonical output; the manifest holds run timings."""
    return {
        name: hashlib.sha256(_read(os.path.join(out_dir, name))).hexdigest()
        for name in sorted(os.listdir(out_dir))
        if name != "manifest.json"
    }


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def manifest_timings(out_dir: str):
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            return json.load(fh).get("timings")
    except (OSError, ValueError):
        return None


def summary(values: list) -> dict:
    """Median, quartiles and count of one metric's values."""
    vals = sorted(float(v) for v in values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def environment(probe: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas": probe.get("blas"),
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cross_check_limit": probe.get("cross_check_limit"),
    }


def check_property(wl: Workload, simplices: list, limit) -> dict:
    """Does every input keep the workload's defining cross-check property?"""
    if wl.cross_checked is None or limit is None or not simplices:
        return {"applies": False}
    checked = [n <= limit for n in simplices]
    kept = all(c == wl.cross_checked for c in checked)
    return {
        "applies": True,
        "expected_cross_checked": wl.cross_checked,
        "limit": limit,
        "simplices": simplices,
        "kept": kept,
    }


class Baseline:
    """Digests recorded at the commit that defined the benchmark."""

    def __init__(self, workload: str):
        self.workload = workload
        try:
            with open(DIGESTS, encoding="utf-8") as fh:
                self.table = json.load(fh)
        except FileNotFoundError:
            self.table = {}

    def compare(self, synth_seed: int, digests: dict) -> dict:
        known = self.table.get(self.workload, {}).get(str(synth_seed), {})
        return {
            name: ("no baseline" if name not in known
                   else "match" if known[name] == sha else "differs")
            for name, sha in digests.items()
        }


class Session:
    """One benchmark run: inputs, oracle, accounting and its report."""

    def __init__(self, wl: Workload, seed: int, seconds: int, work: str):
        self.wl = wl
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env()
        self.attempted = 0
        self.failures = []  # (label, reasons)
        self.synth_seeds = [seed * INPUT_STRIDE + k for k in range(wl.inputs)]
        self.inputs = [os.path.join(work, f"in{k}") for k in range(wl.inputs)]
        self.probe = self._probe()
        self.detail = {
            "workload": wl.name,
            "seed": seed,
            "synth_seeds": self.synth_seeds,
            "seconds": seconds,
            "environment": environment(self.probe),
        }

    def _probe(self) -> dict:
        child = run_child(cli_argv()[:1] + ["-c", PROBE], self.env,
                          os.path.join(self.work, "probe"), self.deadline)
        if child.code != 0:
            raise BenchError(f"cannot import circlet: {child.stderr.strip()[-400:]}")
        return json.loads(child.stdout.strip().splitlines()[-1])

    def expected(self) -> list:
        return [oracle.load_expected(d, with_charts=self.wl.oracle == "global")
                for d in self.inputs]

    def account(self, label: str, k: int, code: int, stderr: str, out_dir: str, exp):
        """Check one workload run; True when it counts as a success."""
        self.attempted += 1
        problems = []
        if code == 0:
            pinned = PINNED.get(self.wl.name, {}).get(self.synth_seeds[k])
            problems = oracle.check_outputs(self.wl.oracle, out_dir, exp[k], pinned)
        reasons = oracle.failure_reasons(code, stderr, problems)
        if reasons:
            self.failures.append((label, reasons))
        return not reasons

    def more_passes(self, t_start: float, passes: int, last: float) -> bool:
        if passes == 0:
            return True
        if time.monotonic() + last > self.deadline - 5.0:
            return False
        return time.perf_counter() - t_start < self.seconds

    def report_simplices(self, out_dir: str):
        try:
            with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
                return oracle.nerve_simplices(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError):
            return None


# ---------------------------------------------------------------------------
# untraced end-to-end run


def run_untraced(s: Session) -> dict:
    wl = s.wl
    gauge = SpeedGauge()
    setups = []
    for i in range(max(MIN_SETUPS, wl.inputs)):
        k = i % wl.inputs
        shutil.rmtree(s.inputs[k], ignore_errors=True)
        child = run_child(cli_argv(*synth_args(wl, s.synth_seeds[k], s.inputs[k])),
                          s.env, os.path.join(s.work, f"synth{i}"), s.deadline)
        if child.code != 0:
            raise BenchError(f"synth failed with exit {child.code}: {child.stderr[-400:]}")
        setups.append({"raw": child.wall, "speed": gauge.factor()})
    exp = s.expected()
    baseline = Baseline(wl.name)

    calls = []
    digests = {}
    deterministic = True
    simplices = {}
    t_start = time.perf_counter()
    passes, last = 0, 0.0
    while s.more_passes(t_start, passes, last):
        t_pass = time.monotonic()
        passes += 1
        for k, inp in enumerate(s.inputs):
            out = os.path.join(s.work, f"out{k}")
            shutil.rmtree(out, ignore_errors=True)
            child = run_child(cli_argv(*workload_args(wl, inp, out)), s.env,
                              os.path.join(s.work, f"run{k}"), s.deadline)
            speed = gauge.factor()
            ok = s.account(f"pass {passes} input {k}", k, child.code, child.stderr, out, exp)
            calls.append({"pass": passes, "input": k, "code": child.code, "ok": ok,
                          "speed": speed, "raw_wall_s": child.wall, "raw_cpu_s": child.cpu,
                          "wall_s": child.wall * speed, "cpu_s": child.cpu * speed,
                          "peak_rss_mb": child.rss_mb})
            if child.code != 0:
                continue
            dig = output_digests(out)
            if k not in digests:
                digests[k] = {"outputs": dig, "manifest_timings": manifest_timings(out)}
                if wl.oracle == "report":
                    simplices[k] = s.report_simplices(out)
            elif dig != digests[k]["outputs"]:
                deterministic = False
        last = time.monotonic() - t_pass

    # medians over successful single runs: a run that stops early must not
    # look fast, and slow spells on a shared machine are skewed outliers,
    # which a median of runs resists better than a mean
    measured = [c for c in calls if c["ok"]] or calls
    stats = {name: summary([c[name] for c in measured])
             for name in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s", "speed")}
    stats["setup_s"] = summary([u["raw"] * u["speed"] for u in setups])
    stats["raw_setup_s"] = summary([u["raw"] for u in setups])
    for k, entry in digests.items():
        entry["baseline"] = baseline.compare(s.synth_seeds[k], entry["outputs"])
    prop = check_property(wl, [simplices[k] for k in sorted(simplices)
                               if simplices[k] is not None],
                          s.probe.get("cross_check_limit"))
    s.detail.update({"stats": stats, "passes": passes, "calls": calls, "digests": digests,
                     "deterministic": deterministic, "property": prop})
    metrics = _metrics(stats, "end_to_end")
    _print_untraced(s, stats, metrics, passes, digests, deterministic, prop)
    return {"metrics": metrics, "digests": digests}


def _metrics(stats: dict, kind: str) -> dict:
    """Medians of the metrics BENCHMARK.json lists under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    return {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
            for m in listed}


def _print_untraced(s, stats, metrics, passes, digests, deterministic, prop):
    for name, m in metrics.items():
        st, unit = stats[name], m["unit"]
        over = "set-up runs" if name == "setup_s" else f"runs in {passes} passes"
        raw = stats.get("raw_" + name)
        raw = f"  (speed-scaled; raw {raw['median']:.4f})" if raw else ""
        print(f"{name:<12} {st['median']:.4f} {unit:<3} q1 {st['q1']:.4f} "
              f"q3 {st['q3']:.4f}  n={st['n']} {over}{raw}")
    print(f"{'speed':<12} {stats['speed']['median']:.4f} scale factor (square root of "
          f"{CAL_REF_S} s over the calibration loop's time)")
    rate = len(s.failures) / s.attempted if s.attempted else 1.0
    print(f"{'error_rate':<12} {rate:.4f} ratio ({len(s.failures)} of {s.attempted} "
          f"runs failed over {passes} passes)")
    _print_digests(digests, deterministic)
    _print_property(prop)


def _print_digests(digests, deterministic):
    verdicts = [v for entry in digests.values() for v in entry["baseline"].values()]
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    print(f"digests: {len(verdicts)} outputs, "
          + ", ".join(f"{n} {v}" for v, n in counts.items())
          + ("" if deterministic else "; OUTPUTS CHANGED BETWEEN PASSES"))


def _print_property(prop):
    if not prop["applies"]:
        return
    kind = "cross-checked" if prop["expected_cross_checked"] else "not cross-checked"
    state = "kept" if prop["kept"] else "FLIPPED: not a valid seed for a claim"
    print(f"property: {kind} (limit {prop['limit']}), nerve simplices "
          f"{prop['simplices']}: {state}")


# ---------------------------------------------------------------------------
# traced run


def call_in_process(cli, argv: list, rec, spans) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    spans.recording(rec)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0
        spans.recording(None)
    return code, wall, err.getvalue()


def run_traced(s: Session) -> dict:
    wl = s.wl
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, SRC)
    import circlet.cli as cli

    import spans

    startup = [
        run_child(cli_argv()[:1] + ["-c", "import circlet.cli"], s.env,
                  os.path.join(s.work, f"startup{i}"), s.deadline).wall
        for i in range(STARTUP_RUNS)
    ]
    missing = spans.install()
    if missing:
        print("trace: no longer found, reported as 0: " + ", ".join(missing))

    generate = []
    for k, inp in enumerate(s.inputs):
        rec = spans.Recorder()
        code, _, err = call_in_process(cli, synth_args(wl, s.synth_seeds[k], inp), rec, spans)
        if code != 0:
            raise BenchError(f"synth failed with exit {code}: {err[-400:]}")
        generate.append(rec.total["synthetic.generate"])
    input_bytes = statistics.fmean(
        sum(os.path.getsize(os.path.join(d, f)) for f in ("dataset.json", "cover.json", "trivs.json"))
        for d in s.inputs
    )
    exp = s.expected()

    # untraced reference: outputs to compare byte for byte, and the wall
    # time; it counts against --seconds so a traced run lasts no longer
    # than an untraced one
    t_start = time.perf_counter()
    reference = []
    for k, inp in enumerate(s.inputs):
        out = os.path.join(s.work, f"ref{k}")
        child = run_child(cli_argv(*workload_args(wl, inp, out)), s.env,
                          os.path.join(s.work, f"ref{k}"), s.deadline)
        s.account(f"untraced input {k}", k, child.code, child.stderr, out, exp)
        files = ({n: _read(os.path.join(out, n)) for n in output_digests(out)}
                 if child.code == 0 else {})
        reference.append((child.wall, files))
    untraced_wall = statistics.median(w for w, _ in reference)

    rows = []
    layer_self = []
    identical = True
    passes, last = 0, 0.0
    while s.more_passes(t_start, passes, last):
        t_pass = time.monotonic()
        passes += 1
        for k, inp in enumerate(s.inputs):
            out = os.path.join(s.work, f"trace{k}")
            shutil.rmtree(out, ignore_errors=True)
            rec = spans.Recorder()
            code, wall, err = call_in_process(cli, workload_args(wl, inp, out), rec, spans)
            label = f"traced pass {passes} input {k}"
            ok = s.account(label, k, code, err, out, exp)
            if code == 0:
                got = {n: _read(os.path.join(out, n)) for n in output_digests(out)}
                if got != reference[k][1]:
                    identical = ok = False
                    s.failures.append((label, ["traced outputs differ from untraced ones"]))
            m = rec.call_metrics(wall)
            m["wall"] = wall
            rows.append((ok, m))
            layer_self.append((ok, wall, rec.layer_self()))
        last = time.monotonic() - t_pass

    # per-layer figures from successful runs only, as in the untraced run
    rows = [m for ok, m in rows if ok] or [m for _, m in rows]
    layer_self = [(w, ls) for ok, w, ls in layer_self if ok] or [
        (w, ls) for _, w, ls in layer_self]
    stats = {name: summary([r[name] for r in rows]) for name in rows[0]}
    stats["intlinalg.snf_max_cells"] = summary([max(r["intlinalg.snf_max_cells"] for r in rows)])
    stats["trace.overhead_ratio"] = summary(
        [(stats["wall"]["median"] + statistics.median(startup)) / untraced_wall])
    stats["cli.startup_s"] = summary(startup)
    stats["synthetic.generate_s"] = summary(generate)
    stats["io.input_bytes"] = summary([input_bytes])
    prop = check_property(wl, [int(round(stats["nerve.simplices"]["median"]))],
                          s.probe.get("cross_check_limit"))
    observed = stats["persistence.cross_checked"]["median"]
    if prop["applies"] and observed != float(wl.cross_checked):
        prop["kept"] = False
    s.detail.update({"stats": stats, "identical_to_untraced": identical,
                     "untraced_wall_s": untraced_wall, "property": prop,
                     "missing_targets": missing})
    _print_layers(wl, layer_self, untraced_wall, identical)
    _print_property(prop)
    return {"metrics": _metrics(stats, "per_layer")}


def _print_layers(wl, layer_self, untraced_wall, identical):
    walls = [w for w, _ in layer_self]
    mean_wall = statistics.fmean(walls)
    layers = sorted({name for _, ls in layer_self for name in ls})
    print(f"layer self time, {wl.name}, mean of {len(walls)} traced runs "
          f"({mean_wall:.3f} s traced, {untraced_wall:.3f} s untraced child):")
    rows = [(name, statistics.fmean(ls.get(name, 0.0) for _, ls in layer_self))
            for name in layers]
    rows.append(("(unattributed)", mean_wall - sum(t for _, t in rows)))
    for name, t in sorted(rows, key=lambda r: -r[1]):
        print(f"  {name:<16} {t:9.4f} s {100.0 * t / mean_wall:6.1f} %")
    print("traced outputs " + ("byte-identical to untraced ones"
                               if identical else "DIFFER from untraced ones"))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "circlet", "cli.py")):
        print("perfbench: src/circlet/cli.py not found; run from the root of a "
              "circlet checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(f"perfbench: {wl.name} seed {args.seed} trace {args.trace} "
          f"({args.seconds} s, {wl.inputs} inputs per pass)", flush=True)
    try:
        s = Session(wl, args.seed, args.seconds, work)
        env = s.detail["environment"]
        print(f"environment: {env['nproc']} cpus ({env['cpu_model']}), python "
              f"{env['python']}, numpy {env['numpy']}, {env['blas']}, thread env "
              f"{env['thread_env']} ({THREADS_ENV} removed for the program)", flush=True)
        result = run_traced(s) if args.trace else run_untraced(s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    for label, reasons in s.failures[:10]:
        print(f"FAILED {label}: {'; '.join(reasons[:3])}")
    s.detail["failures"] = s.failures
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(s.detail, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": not s.failures,
        "attempted": s.attempted,
        "failed": len({label for label, _ in s.failures}),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
