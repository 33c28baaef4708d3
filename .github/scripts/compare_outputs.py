"""Compare the CLI outputs of two source trees, file by file.

Usage: python compare_outputs.py BASE HEAD

In each tree it runs ``python -m circlet.cli`` children with
``PYTHONPATH=<tree>/src``: ``synth`` at seed 0 on six models, then
``witness``, ``classes``, ``euler``, ``persist``, ``report``,
``trivialize`` and ``coordinatize --dim 4`` on each generated bundle,
``coordinatize --dim 4 --stage r`` at the witness's last stage but one and
at half its stages, ``coordinatize --dim 1`` (a schema exit, which writes
only ``manifest.json``), and ``unwrap`` wherever synth wrote
``clusters.json``.  It compares every output file byte for byte
(``manifest.json`` without its timings), every exit code, and all of
stdout and stderr.  It prints ``N files, M differ`` and each difference,
and exits 0 whatever it finds: it is a report, not a gate.
"""

import json
import os
import subprocess
import sys
import tempfile

MODELS = {
    "lens1": ["--model", "lens:1", "--samples", "2000", "--sets", "16", "--radius", "0.85"],
    "torus": ["--model", "torus", "--samples", "400", "--sets", "12"],
    "split1": ["--model", "split:1", "--samples", "2000", "--sets", "20"],
    "disconnected1": ["--model", "disconnected:1", "--samples", "1000", "--sets", "20"],
    # its stage cuts leave edges with a single shared sample
    "rp21": ["--model", "rp2:1", "--samples", "2000", "--sets", "20"],
    # the one model run with fiber noise
    "lens1-noisy": ["--model", "lens:1", "--samples", "2000", "--sets", "16", "--radius", "0.85",
                    "--noise", "0.05"],
}
STREAMS = ("exit code", "stdout", "stderr")


def _runs(model: str, work: str):
    """The children of one model, in order: each one's output directory and arguments.

    The stage cuts read the filtration length off the ``witness.json`` an
    earlier child wrote under ``work``, and are skipped where it wrote none.
    """
    synth = f"{model}/synth"
    bundle = [f"--data={synth}/dataset.json", f"--cover={synth}/cover.json",
              f"--trivs={synth}/trivs.json"]
    witness = f"--witness={model}/witness/witness.json"
    yield synth, ["synth", *MODELS[model], "--seed", "0"]
    yield f"{model}/witness", ["witness", *bundle]
    yield f"{model}/classes", ["classes", witness]
    yield f"{model}/euler", ["euler", f"--classes={model}/classes/classes.json"]
    yield f"{model}/persist", ["persist", witness]
    yield f"{model}/report", ["report", *bundle]
    yield f"{model}/trivialize", ["trivialize", *bundle]
    yield f"{model}/coordinatize", ["coordinatize", "--dim", "4", *bundle]
    yield f"{model}/schema-exit", ["coordinatize", "--dim", "1", *bundle]
    written = os.path.join(work, model, "witness", "witness.json")
    if os.path.exists(written):
        with open(written) as fh:
            stages = len(json.load(fh)["nerve"]["order"])
        for name, r in (("last", stages - 1), ("half", stages // 2)):
            yield f"{model}/stage-{name}", ["coordinatize", "--dim", "4", "--stage", str(r),
                                            *bundle]
    yield f"{model}/unwrap", ["unwrap", *bundle, f"--clusters={synth}/clusters.json"]


def run_tree(tree: str, work: str) -> dict:
    """(output directory, file name or stream) -> bytes, for every child of every model."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    os.makedirs(work)
    found = {}
    for model in MODELS:
        for out, argv in _runs(model, work):
            if argv[0] == "unwrap" and not os.path.exists(f"{work}/{model}/synth/clusters.json"):
                continue
            done = subprocess.run([sys.executable, "-m", "circlet.cli", *argv, f"--out={out}"],
                                  cwd=work, env=env, capture_output=True)
            found[out, "exit code"] = str(done.returncode).encode()
            found[out, "stdout"] = done.stdout
            found[out, "stderr"] = done.stderr
            where = os.path.join(work, out)
            for name in sorted(os.listdir(where)) if os.path.isdir(where) else []:
                with open(os.path.join(where, name), "rb") as fh:
                    data = fh.read()
                if name == "manifest.json":
                    doc = json.loads(data)
                    del doc["timings"]
                    data = json.dumps(doc, sort_keys=True).encode()
                found[out, name] = data
    return found


def _show(base, head) -> str:
    """Both sides around the first byte where they differ, or which side is missing."""
    if base is None or head is None:
        return "  only in " + ("head" if base is None else "base")
    at = next((i for i, (a, b) in enumerate(zip(base, head)) if a != b), min(len(base), len(head)))
    return "\n".join(f"  {side} at byte {at}: {data[max(at - 80, 0):at + 120]!r}"
                     for side, data in (("base", base), ("head", head)))


def main(base: str, head: str):
    with tempfile.TemporaryDirectory() as work:
        before = run_tree(base, os.path.join(work, "base"))
        after = run_tree(head, os.path.join(work, "head"))
    keys = sorted(set(before) | set(after))
    differ = [k for k in keys if before.get(k) != after.get(k)]
    files = sum(k[1] not in STREAMS for k in keys)
    files_differ = sum(k[1] not in STREAMS for k in differ)
    print(f"{files} files, {files_differ} differ")
    print(f"{len(keys) - files} exit codes, stdouts and stderrs, "
          f"{len(differ) - files_differ} differ")
    for key in differ:
        print(f"differs: {key[0]} {key[1]}")
        print(_show(before.get(key), after.get(key)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    try:
        main(*sys.argv[1:])
    except Exception as exc:  # a report, not a gate: say what stopped it and pass
        print(f"comparison did not finish: {type(exc).__name__}: {exc}")
    sys.exit(0)
