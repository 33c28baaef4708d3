"""Every layer the benchmark traces still exists in the package, and is traced.

``perfbench/spans.py`` names its targets as (module, function) pairs and
reports a missing one only at run time; a refactor that renames or drops
a traced function would otherwise go unnoticed until the next benchmark.
The traced run imports ``circlet.cli`` first and then wraps every target
in every loaded circlet module, so a layer module must already be in
``sys.modules`` by then (``circlet.cli`` registers the lazily executed
ones), and every call a command makes must go through a name the
wrapping replaced.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans_module()
TARGETS = [(m, f) for m, f, _ in SPANS.SPANS + SPANS.COUNTS]


def test_targets_listed():
    assert SPANS.SPANS and SPANS.COUNTS


@pytest.mark.parametrize(
    "module, function", TARGETS, ids=[f"{m}.{f}" for m, f in TARGETS]
)
def test_target_is_a_function_of_its_module(module, function):
    assert module.startswith("circlet.")
    assert callable(getattr(importlib.import_module(module), function, None))


# the traced benchmark's order: circlet.cli, then the spans module, then
# install; each command then runs in-process under its own recorder
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import circlet.cli as cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
missing = spans.install()
out = sys.argv[2]
bundle = lambda d: [f"--data={d}/dataset.json", f"--cover={d}/cover.json",
                    f"--trivs={d}/trivs.json"]
runs = {
    "synth-lens": ["synth", "--model", "lens:1", "--samples", "2000", "--sets", "16",
                   "--radius", "0.85", "--seed", "1", "--out", f"{out}/lens"],
    "synth-torus": ["synth", "--model", "torus", "--samples", "400", "--sets", "12",
                    "--out", f"{out}/torus"],
    "report": ["report", *bundle(f"{out}/lens"), "--out", f"{out}/report"],
    "trivialize": ["trivialize", *bundle(f"{out}/torus"), "--out", f"{out}/triv"],
}
calls = {}
for name, argv in runs.items():
    rec = spans.Recorder()
    spans.recording(rec)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    spans.recording(None)
    calls[name] = [code, dict(rec.calls)]
print(json.dumps([missing, calls]))
"""

# every span (and counted kernel) each command reaches on those inputs
REACHED = {
    "synth-lens": {"synthetic.generate", "io.write"},
    "synth-torus": {"synthetic.generate", "io.write"},
    "report": {
        "io.load", "nerve.build", "nerve.filtration", "witness.assemble",
        "witness.procrustes", "witness.quality", "persistence.report", "persistence.brute",
        "classes.euler_cochain", "classes.fundamental_class",
        "projection.partition_of_unity", "projection.frame_field",
        "projection.reduction_curve", "io.write",
    },
    "trivialize": {
        "io.load", "nerve.build", "witness.assemble", "witness.procrustes",
        "projection.partition_of_unity", "classes.euler_cochain", "intlinalg.solve_integer",
        "circle.karcher_mean", "projection.global_trivialize", "io.write",
    },
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``install``'s missing targets and each command's exit code and span calls."""
    out = tmp_path_factory.mktemp("traced")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS_PATH), str(out)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_install_finds_every_target_after_importing_the_cli(traced):
    missing, _ = traced
    assert missing == []


@pytest.mark.parametrize("command", list(REACHED))
def test_every_reached_span_records_calls(traced, command):
    code, calls = traced[1][command]
    assert code == 0
    assert set(calls) == REACHED[command]
    assert min(calls.values()) >= 1
