"""Exception types raised by the linkdyn package.

Every error derives from LinkdynError so callers can catch the whole
family at once.  Errors that blame a concrete input line (the CLI file
format) carry the 1-based line number.
"""

from __future__ import annotations


class LinkdynError(Exception):
    """Base class for all linkdyn errors."""


# ---------------------------------------------------------------- diagrams


class DiagonalNotTwo(LinkdynError):
    """A generalized Cartan matrix must have every diagonal entry equal to 2."""


class PositiveOffDiagonal(LinkdynError):
    """Off-diagonal entries of a generalized Cartan matrix must be <= 0."""


class ZeroAsymmetry(LinkdynError):
    """a_ij == 0 requires a_ji == 0 and vice versa."""


class NotSymmetrizable(LinkdynError):
    """No positive integer vector d with d_i a_ij == d_j a_ji exists."""


# ------------------------------------------------------------------ cycles


class UnsupportedEdgeInMode(LinkdynError):
    """An edge kind outside the supported families for the requested mode."""


class NotAPath(LinkdynError):
    """The given vertex sequence is not a path in the diagram."""


class VertexNotOnCycle(LinkdynError):
    """Height of a vertex was requested relative to a cycle not through it."""


# --------------------------------------------------------------- existence


class NotLinkConnected(LinkdynError):
    """The union of plain and dotted edges does not connect the diagram."""


class UnsupportedComponentType(LinkdynError):
    """A connected component is not of a recognized finite or affine type."""


class UnsupportedMode(LinkdynError, ValueError):
    """The operation needs a diagram in standard (finite or affine) mode."""


class ShapeParameterMismatch(LinkdynError):
    """Shape parameters for a special two-component matrix are invalid."""


class Neighbouring(LinkdynError):
    """The operation requires two vertices that are not plain-edge neighbours."""


class NotNeighbouring(LinkdynError):
    """The operation requires two vertices joined by a plain edge."""


class UnclassifiedPath(LinkdynError):
    """A self-linking path outside the classified families."""


# ---------------------------------------------------------------- braiding


class InadmissibleD(LinkdynError):
    """The requested root order violates an admissibility constraint."""


class PathInconsistency(LinkdynError):
    """Two dotted edges admit no orientation for the off-diagonal completion.

    Reachable only in selflink mode, which construct and the oracle
    refuse: the four orientations of dotted edges {i,k} and {j,l} all
    fail only when two ends of one dotted edge share a plain component.
    Raising it means a precondition was violated or a bug upstream.
    """


class ScaleExceeded(LinkdynError):
    """The brute-force search space is too large to scan exhaustively."""


class OrderMismatch(LinkdynError):
    """Direct summands cannot agree on a common diagonal order."""


# ------------------------------------------------------------- realization


class LinkConstraintUnsatisfiable(LinkdynError):
    """No character assignment satisfies the linking constraints."""


class OrderNotDividing(LinkdynError):
    """An entry's multiplicative order does not divide the group exponent."""


class NotPrime(LinkdynError):
    """A prime argument was required."""


# ------------------------------------------------------------ presentation


class IndexOutOfRange(LinkdynError):
    """Gaussian binomial index outside 0 <= i <= n."""


# -------------------------------------------------------------------- cli


class DiagramSyntaxError(LinkdynError):
    """A malformed line in a diagram file."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class SemanticError(LinkdynError):
    """A well-formed diagram file describing an invalid diagram."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
