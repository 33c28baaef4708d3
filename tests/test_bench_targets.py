"""Every layer the benchmark traces still exists in the package.

``perfbench/spans.py`` names its targets as (module, function) pairs and
reports a missing one only at run time; a refactor that renames or drops
a traced function would otherwise go unnoticed until the next benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
