"""Discrete approximate circle bundles over sampled base spaces.

Build a nerve from a cover, estimate the optimal isometry witness on each
overlap (a turn and a sign per edge, ``cochains.Witness``), compute the
orientation and twisted Euler classes with exact integer linear algebra,
track their persistence along the weights filtration, and produce
topology-respecting coordinates.

The names in ``__all__`` are re-exported from ``circlet.circle`` lazily,
through a module ``__getattr__`` (PEP 562): importing the package loads
no numpy, so ``python -m circlet.cli`` can choose the BLAS thread count
before numpy is first imported (see ``circlet.cli``).
"""

__version__ = "0.1.0"

__all__ = ["karcher_mean", "principal_turn", "s1_angle", "s1_point"]


def __getattr__(name):
    if name in __all__:
        from . import circle

        return getattr(circle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
