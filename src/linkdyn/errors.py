"""Exception types raised by the linkdyn package.

Every error derives from LinkdynError so callers can catch the whole
family at once.  Its class also says what it means to a caller, and
the CLI reads its exit code from that alone:

- an InputError blames the input (a file, an option, an argument):
  ``error: ...``, exit 3;
- a DefiniteNo is the procedure's answer "no such object":
  ``failure: ...``, exit 1;
- any other error (an UnclassifiedPath nobody caught) is a bug:
  ``internal error in ...``, exit 4.

Errors that blame a concrete input line (the CLI file format) carry
the 1-based line number.
"""

from __future__ import annotations


class LinkdynError(Exception):
    """Base class for all linkdyn errors."""


class InputError(LinkdynError):
    """The input is invalid or outside what the operation supports."""


class DefiniteNo(LinkdynError):
    """The input is valid and the requested object does not exist."""


# ---------------------------------------------------------------- diagrams


class DiagonalNotTwo(InputError):
    """A generalized Cartan matrix must have every diagonal entry equal to 2."""


class PositiveOffDiagonal(InputError):
    """Off-diagonal entries of a generalized Cartan matrix must be <= 0."""


class ZeroAsymmetry(InputError):
    """a_ij == 0 requires a_ji == 0 and vice versa."""


class NotSymmetrizable(InputError):
    """No positive integer vector d with d_i a_ij == d_j a_ji exists."""


# ------------------------------------------------------------------ cycles


class UnsupportedEdgeInMode(InputError):
    """An edge kind outside the supported families for the requested mode."""


class VertexNotOnCycle(InputError):
    """Height of a vertex was requested relative to a cycle not through it."""


# --------------------------------------------------------------- existence


class NotLinkConnected(InputError):
    """The union of plain and dotted edges does not connect the diagram."""


class UnsupportedComponentType(InputError):
    """A connected component is not of a recognized finite or affine type."""


class UnsupportedMode(InputError, ValueError):
    """The operation needs a diagram in standard (finite or affine) mode."""


class ShapeParameterMismatch(InputError):
    """Shape parameters for a special two-component matrix are invalid."""


class Neighbouring(InputError):
    """The operation requires two vertices that are not plain-edge neighbours."""


class NotNeighbouring(InputError):
    """The operation requires two vertices joined by a plain edge."""


class UnclassifiedPath(LinkdynError):
    """A self-linking path outside the classified families."""


# ---------------------------------------------------------------- braiding


class InadmissibleD(InputError):
    """The requested root order violates an admissibility constraint."""


class NoAdmissibleOrder(InadmissibleD, DefiniteNo):
    """No root order was requested and the field offers no admissible one."""


class ScaleExceeded(InputError):
    """An input is larger than the operation is bounded to.

    The diagonals the oracle lists at the order it answers at, the
    rank-four prime, the range where is_prime is exact and the numbers
    whose divisors are listed each have a bound.
    A diagram file's vertex count is bounded too, at 4096, but cli.parse
    refuses a larger one as a SemanticError that names its line.
    """


class MalformedMatrix(InputError, ValueError):
    """Matrix text that does not parse."""


class OrderMismatch(DefiniteNo):
    """Direct summands cannot agree on a common diagonal order."""


# ------------------------------------------------------------- realization


class LinkConstraintUnsatisfiable(DefiniteNo):
    """No character assignment satisfies the linking constraints."""


class OrderNotDividing(DefiniteNo):
    """An entry's multiplicative order does not divide the group exponent."""


class NotPrime(InputError):
    """A prime argument was required."""


# ------------------------------------------------------------ presentation


class IndexOutOfRange(InputError):
    """Gaussian binomial index outside 0 <= i <= n."""


# -------------------------------------------------------------------- cli


class DiagramSyntaxError(InputError):
    """A malformed line in a diagram file."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class SemanticError(InputError):
    """A well-formed diagram file describing an invalid diagram."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
