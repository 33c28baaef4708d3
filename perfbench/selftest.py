#!/usr/bin/env python3
"""Self-test of the benchmark's correctness oracle.

Run from the root of a checkout (one holding ``src/circlet``):

    python3 perfbench/selftest.py

Produces one small output per oracle kind with the real program, checks
that the untouched outputs pass, then tampers with copies of them and
checks that every tampered output, a bad exit code and a traceback on
stderr each count as a failed run.  Exits 0 when all are caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time

import oracle
import run

# kind -> (synth flags, workload command, output file)
CASES = {
    "report": (("--model", "lens:1", "--samples", "1500", "--sets", "12"), ("report",),
               "report.json"),
    "frame": (("--model", "lens:1", "--samples", "1500", "--sets", "12"),
              ("coordinatize", "--dim", "4"), "coords.json"),
    "global": (("--model", "torus", "--samples", "2000", "--sets", "12"), ("trivialize",),
               "coords.json"),
}


def _flip_euler(doc):
    n = doc["classes"]["euler_number"]
    doc["classes"]["euler_number"] = n + (1 if n >= 0 else -1)


def _flip_sw(doc):
    doc["classes"]["sw_coboundary"] = not doc["classes"]["sw_coboundary"]


def _move_codeath(doc):
    doc["persistence"]["euler"]["codeath_index"] -= 1


def _codeath_past_cobirth(doc):
    sw = doc["persistence"]["sw"]
    sw["codeath_index"] = sw["cobirth_index"] + 1


def _stretch_vector(doc):
    doc["vectors"][0]["v"] = [1.001 * x for x in doc["vectors"][0]["v"]]


def _drop_vector(doc):
    doc["vectors"].pop()


def _plane_residual(doc):
    doc["plane_residual"] = 1e-6


def _move_angle(doc):
    row = doc["angles"][len(doc["angles"]) // 2]
    row["angle_turns"] = (row["angle_turns"] + 0.25) % 1.0


def _global_residual(doc):
    doc["residual"] = 1e-6


def _drop_angle(doc):
    doc["angles"].pop()


TAMPERS = {
    "report": [_flip_euler, _flip_sw, _move_codeath, _codeath_past_cobirth],
    "frame": [_stretch_vector, _drop_vector, _plane_residual],
    "global": [_move_angle, _global_residual, _drop_angle],
}


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "circlet", "cli.py")):
        print("selftest: src/circlet/cli.py not found; run from the root of a "
              "circlet checkout", file=sys.stderr)
        return 2
    work = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        missed = _run_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("every tampered output was caught" if not missed
                          else f"MISSED {', '.join(missed)}"))
    return 1 if missed else 0


def _run_cases(work: str) -> list[str]:
    env = run.child_env()
    deadline = time.monotonic() + run.RUN_BUDGET_S
    missed = []
    for kind, (synth, command, name) in CASES.items():
        inp, out = os.path.join(work, kind + "-in"), os.path.join(work, kind + "-out")
        for argv in (["synth", *synth, "--seed", "0", "--out", inp],
                     [*command, "--data", os.path.join(inp, "dataset.json"),
                      "--cover", os.path.join(inp, "cover.json"),
                      "--trivs", os.path.join(inp, "trivs.json"), "--out", out]):
            child = run.run_child(run.cli_argv(*argv), env, os.path.join(work, kind), deadline)
            if child.code != 0:
                raise SystemExit(f"selftest: {argv[0]} failed: {child.stderr[-400:]}")
        exp = oracle.load_expected(inp, with_charts=kind == "global")
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        pinned = oracle.persistence_indices(doc) if kind == "report" else None
        clean = oracle.check_outputs(kind, out, exp, pinned)
        if oracle.failure_reasons(0, "", clean):
            missed.append(f"untouched {kind} output fails: {clean}")
        for tamper in TAMPERS[kind]:
            bad = os.path.join(work, f"{kind}-{tamper.__name__}")
            shutil.copytree(out, bad)
            doc2 = copy.deepcopy(doc)
            tamper(doc2)
            with open(os.path.join(bad, name), "w", encoding="utf-8") as fh:
                json.dump(doc2, fh)
            problems = oracle.check_outputs(kind, bad, exp, pinned)
            caught = bool(oracle.failure_reasons(0, "", problems))
            print(f"{kind:<7} {tamper.__name__.strip('_'):<22} "
                  f"{'caught: ' + problems[0] if caught else 'MISSED'}")
            if not caught:
                missed.append(f"{kind}/{tamper.__name__}")
    for label, code, stderr in (("exit code 3", 3, ""),
                                ("traceback", 0, oracle.TRACEBACK + "\n  ...")):
        caught = bool(oracle.failure_reasons(code, stderr, []))
        print(f"process {label:<22} {'caught' if caught else 'MISSED'}")
        if not caught:
            missed.append(label)
    return missed


if __name__ == "__main__":
    sys.exit(main())
