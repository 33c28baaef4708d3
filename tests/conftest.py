"""Session-wide scenario fixtures, each built once per exact generator call.

A bundle, and the witness derived from it, is shared by every test that
asks for the same generator and arguments, so tests read them and never
mutate them; a test that needs to change an input takes a copy.
"""

import pytest

from circlet.nerve import build_nerve, edge_weights, filtration_order
from circlet.witness import assemble_witness


def _memo(build):
    built = {}

    def get(gen, *args, **kwargs):
        key = (gen.__name__, args, tuple(sorted(kwargs.items())))
        if key not in built:
            built[key] = build(gen, *args, **kwargs)
        return built[key]

    return get


@pytest.fixture(scope="session")
def scenario():
    """``scenario(gen, *args, **kwargs)``: the bundle that call returns."""
    return _memo(lambda gen, *args, **kwargs: gen(*args, **kwargs))


@pytest.fixture(scope="session")
def filtered_witness(scenario):
    """``filtered_witness(gen, *args, **kwargs)``: the scenario's witness on its filtered nerve."""

    def build(gen, *args, **kwargs):
        _, cover, trivs = scenario(gen, *args, **kwargs)
        nerve = build_nerve(cover)
        wit = assemble_witness(trivs, nerve)
        return wit._replace(nerve=filtration_order(edge_weights(nerve, trivs, wit)))

    return _memo(build)
