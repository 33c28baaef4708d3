"""Exception hierarchy shared by every circlet module.

Three families matter to callers:

* ``SchemaError``: an input file or structure does not match its schema.
* ``ObstructionError``: the computation finished and proved that the
  requested object cannot exist.  These are results, not failures.
* ``GuardError``: a numerical precondition failed; the computation was
  stopped before it could produce garbage.
"""

from __future__ import annotations


class CircletError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CircletError):
    """Input data does not conform to the expected schema or shape."""


class ShapeMismatch(SchemaError):
    """Two objects that must share a domain or shape do not."""


class GuardError(CircletError):
    """A numerical guard tripped; the result would not be trustworthy.

    ``index`` is set by kernels that take leading batch axes: the batch
    position of the first failing item, in C order.
    """

    def __init__(self, *args, index: tuple | None = None):
        super().__init__(*args)
        self.index = index


class DiameterTooLarge(GuardError):
    """Points do not fit in an open half circle; means and arcs degenerate."""


class TooFewSamples(GuardError):
    """An alignment was requested on fewer than two shared samples."""


class EmptyOverlap(GuardError):
    """A nerve edge has no shared samples to measure."""


class IndexOutOfRange(GuardError):
    """A filtration stage index outside ``1..len(nerve)`` was requested."""


class DegreeUnsupported(GuardError):
    """A coboundary or cochain operation in an unsupported degree."""


class NotACocycle(GuardError):
    """A twisting cochain fails the cocycle identity on some triangle."""


class BracketAmbiguous(GuardError):
    """A value to be rounded sits within guard distance of a half integer."""


class EigengapTooSmall(GuardError):
    """Second and third eigenvalues too close to define a rank-2 projector."""


class RankDeficient(GuardError):
    """A projected frame collapsed; the fiberwise polar factor is singular."""


class NotASurface(GuardError):
    """The degree-2 twisted homology of the nerve does not have rank one."""


class UncoveredPoint(GuardError):
    """A base point lies in no cover set."""


class NotACover(GuardError):
    """The requested cover leaves part of the base uncovered."""


class SectionUndefined(GuardError):
    """A cover set reaches the antipode of its center; no section exists."""


class LiftUndefined(GuardError):
    """A cover set admits no single-hemisphere lift to the sphere."""


class InconsistentClusters(GuardError):
    """Two-cluster labels meet an overlap in an inconsistent pattern."""


class PropagationConflict(GuardError):
    """Hemisphere sign propagation over two-cluster labels met a contradiction."""


class ObstructionError(CircletError):
    """A topological obstruction certified by the computation."""

    #: machine-readable token naming the obstructing class
    reason: str = ""


class NotUnwrappable(ObstructionError):
    """A nontrivial connectivity class over a base that is no antipodal quotient."""

    reason = "nu"


class NotTrivializable(ObstructionError):
    """No global trivialization exists; ``reason`` names the obstruction."""

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or f"obstructed by nontrivial class: {reason}")
        self.reason = reason
