"""Braiding matrices over roots of unity with free parameters.

Entries are exact expressions q^e * z1^k1 * z2^k2 * ... where q is a
primitive root of unity of a fixed order and the z_t are free nonzero
scalars.  A matrix keeps them as integers, a grid of exponents of q
modulo the order plus a grid of signed ints for the z-parts (+-t for
z_t^+-1), so the defining identities are congruences on exponents and
cancelling codes, and every message renders its entries from those
integers.  The module builds braiding matrices for linkable Dynkin
diagrams and for the shapes the existence criteria exclude, verifies
the defining identities, renders and verifies the oracle's witness
(oracle.py holds the search) and combines matrices of link-connected
parts into direct sums.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cycles import genus_gcd
from .diagram import CartanMatrix, LinkableDynkinDiagram
from .errors import (
    IndexOutOfRange,
    LinkConstraintUnsatisfiable,
    MalformedMatrix,
    NotLinkConnected,
    OrderMismatch,
    ShapeParameterMismatch,
    UnsupportedMode,
)
from .existence import (
    _admissible_orders,
    _recognized_components,
    _validate_order,
    check,
)
from .fields import CYCLOTOMIC, FieldSpec, is_prime
from .oracle import _finite_order_flaw, least_diagonal


# ------------------------------------------------------------------ entries

# the z-exponents of an entry: (t, k) pairs for z_t^k, sorted by t
Terms = tuple[tuple[int, int], ...]


def _entry_text(exp: int, terms: Terms) -> str:
    return f"q^{exp}" + _z_text(terms)


def _z_text(terms: Terms) -> str:
    return "".join([f"*z{t}^{k}" for t, k in terms])


def _terms(*factors: tuple[Terms, int]) -> Terms:
    """z-exponents of the product of the factors, each terms^power.

    Sorted by parameter, each parameter once and zero powers dropped:
    the normal form of a matrix entry.
    """
    acc: dict[int, int] = {}
    for terms, power in factors:
        for t, k in terms:
            acc[t] = acc.get(t, 0) + k * power
    return tuple(sorted((t, k) for t, k in acc.items() if k))


def _code(terms: Terms, cell: tuple[int, int], overflow: list) -> int:
    """The signed int of normal-form terms: t for z_t^1, -t for z_t^-1.

    0 stands for a pure entry.  Terms that no code carries (several
    factors, a power other than +-1, or z_0) go to overflow with their
    cell, and their code is 0.
    """
    if len(terms) == 1:
        (t, k), = terms
        if t > 0 and k in (1, -1):
            return t * k
    if terms:
        overflow.append((cell, terms))
    return 0


def _positive(order: int) -> None:
    if order < 1:
        raise ValueError("order must be positive")


# q's exponent, the first z-factor's index and power, any further factors
_ENTRY = re.compile(r"q\^(-?\d+)(?:\*z(\d+)\^(-?\d+))?((?:\*z\d+\^-?\d+)*)")
_ZPART = re.compile(r"\*z(\d+)\^(-?\d+)")


# the package builds none; kept only for bench/tracer.py's __post_init__ hook
@dataclass(frozen=True)
class RootExpr:
    """The entry q^exp times z_t^k for each (t, k) in zpow, as a record.

    order is the order of the root q; exp is kept in 0..order-1 and
    zpow in the normal form of _terms, so repeated indices merge and
    zero powers drop.
    """

    order: int
    exp: int
    zpow: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _positive(self.order)
        object.__setattr__(self, "exp", self.exp % self.order)
        object.__setattr__(self, "zpow", _terms((self.zpow, 1)))

    def __str__(self) -> str:
        return _entry_text(self.exp, self.zpow)


# ----------------------------------------------------------- BraidingMatrix


@dataclass(frozen=True)
class BraidingMatrix:
    """Square matrix of entries q^e * z1^k1 * ... sharing one root order.

    The stored form is two integer grids of one shape and an overflow.
    exps[i][j] is the exponent of q in entry (i, j), kept in
    0..order-1, and zcodes[i][j] its z-part as one signed int: t for
    z_t^1, -t for z_t^-1 and 0 for a pure entry, which covers every
    entry that construct, the oracle and direct_sum write.  Any other
    z-part (several factors, a power other than +-1, or z_0) is kept in
    zoverflow as ((i, j), terms) in cell order, terms in the normal form
    of _terms, with 0 in zcodes.  A z-part with a code is never kept
    there, so equal matrices compare and hash equal.  The identities,
    the completion, instantiation and realization work on these
    integers, and from_cells is the one builder that normalizes.
    """

    order: int
    exps: tuple[tuple[int, ...], ...]
    zcodes: tuple[tuple[int, ...], ...]
    zoverflow: tuple[tuple[tuple[int, int], Terms], ...] = ()

    @classmethod
    def from_cells(
        cls,
        order: int,
        cells: Sequence[Sequence[tuple[int, Iterable[tuple[int, int]]]]],
    ) -> "BraidingMatrix":
        """The matrix of square rows of (exp, z-exponents) cells, normalized.

        Each exp is reduced modulo the order and each z-part brought to
        the normal form of _terms, then to its code or the overflow.
        ValueError for a row whose length is not the row count, or for
        cells at an order below 1.
        """
        n = len(cells)
        if n:
            _positive(order)
        exps, zcodes, overflow = [], [], []
        for i, row in enumerate(cells):
            if len(row) != n:
                raise ValueError("matrix is not square")
            exps.append(tuple(e % order for e, _ in row))
            zcodes.append(
                tuple(
                    _code(_terms((z, 1)) if z else (), (i, j), overflow)
                    for j, (_, z) in enumerate(row)
                )
            )
        return cls(order, tuple(exps), tuple(zcodes), tuple(overflow))

    @cached_property
    def _overflow(self) -> dict[tuple[int, int], Terms]:
        return dict(self.zoverflow)

    def _zpow(self, i: int, j: int) -> Terms:
        """The z-exponents of entry (i, j) in the normal form of _terms."""
        if c := self.zcodes[i][j]:
            return ((c, 1),) if c > 0 else ((-c, -1),)
        return self._overflow.get((i, j), ())

    @property
    def size(self) -> int:
        return len(self.exps)

    def z_indices(self) -> tuple[int, ...]:
        found = set(map(abs, chain.from_iterable(self.zcodes)))
        found.discard(0)
        found.update(t for _, terms in self.zoverflow for t, _ in terms)
        return tuple(sorted(found))

    def instantiate(self, values: Optional[dict[int, int]] = None) -> "BraidingMatrix":
        """The parameter-free matrix with z_t = q^values[t], 1 if t is unset."""
        d, exps, n = self.order, self.exps, self.size
        if values:
            exps = tuple(
                tuple(
                    (e + sum(values.get(t, 0) * k for t, k in self._zpow(i, j))) % d
                    for j, e in enumerate(row)
                )
                for i, row in enumerate(exps)
            )
        # without values the exponents are reduced already; every row of
        # the pure code grid is one shared tuple
        return BraidingMatrix(d, exps, ((0,) * n,) * n)

    def to_text(self) -> str:
        overflow: dict[int, list[tuple[int, Terms]]] = {}
        for (i, j), terms in self.zoverflow:
            overflow.setdefault(i, []).append((j, terms))
        lines = [f"root_order {self.order}"]
        for i, (row, zrow) in enumerate(zip(self.exps, self.zcodes)):
            cells = [
                f"q^{e}*z{c}^1" if c > 0 else f"q^{e}*z{-c}^-1" if c else f"q^{e}"
                for e, c in zip(row, zrow)
            ]
            for j, terms in overflow.get(i, ()):
                cells[j] += _z_text(terms)
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BraidingMatrix":
        """The matrix of to_text's form, each row split and read once.

        Each token is read by _ENTRY: a lone factor z_t^+-1 with t >= 1
        is its code at once, any other z-part goes through _code.  A bad
        token in any row is reported before a row of the wrong length,
        and the first token before an order below 1.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split() if lines else []
        if len(header) < 2 or header[0] != "root_order":
            raise MalformedMatrix("missing root_order header")
        try:
            order, n = int(header[1]), len(lines) - 1
            exps, zcodes, overflow, square = [], [], [], True
            for i, line in enumerate(lines[1:]):
                row = line.split()
                square = square and len(row) == n
                erow, crow = [], []
                for j, token in enumerate(row):
                    if not (m := _ENTRY.fullmatch(token)):
                        raise ValueError(f"bad root expression {token!r}")
                    if order < 1:
                        raise ValueError("order must be positive")
                    e, t, k, more = m.groups()
                    erow.append(int(e) % order)
                    if t is None:
                        crow.append(0)
                    elif (c := int(t)) and not more and k in ("1", "-1"):
                        crow.append(-c if k == "-1" else c)
                    else:
                        zpow = [(int(u), int(v)) for u, v in _ZPART.findall(token)]
                        crow.append(_code(_terms((zpow, 1)), (i, j), overflow))
                exps.append(tuple(erow))
                zcodes.append(tuple(crow))
            if not square:
                raise ValueError("matrix is not square")
            return cls(order, tuple(exps), tuple(zcodes), tuple(overflow))
        except ValueError as exc:
            raise MalformedMatrix(str(exc)) from None


# ------------------------------------------------------------ verification


class VerificationReport(NamedTuple):
    """Outcome of checking the braiding identities for a matrix."""

    ok: bool
    failures: tuple[str, ...]


def verify(
    diagram: LinkableDynkinDiagram, matrix: BraidingMatrix
) -> VerificationReport:
    """Check the defining identities of a braiding matrix exactly.

    Checked are: no diagonal entry equals 1, the product identity
    b_ij b_ji = b_ii^a_ij for all pairs, the linking identity
    b_ki^(1-a_ij) b_kj = 1 for every linkable pair in both orders and
    all k, and the order conditions of the diagram's mode ('finite':
    diagonal orders above 2, not divisible by 3 when a G2 component is
    present; 'affine': all diagonal orders equal to one prime above 3;
    'selflink': no order conditions beyond b_ii != 1).  Each identity
    is a congruence on the exponents of q modulo the root order plus an
    equation on the z-exponents of the symbolic entries.
    """
    failures = tuple(_failures(diagram, matrix))
    return VerificationReport(not failures, failures)


def _failures(
    diagram: LinkableDynkinDiagram, matrix: BraidingMatrix
) -> Iterator[str]:
    """The failure messages of verify, lazily and in its order.

    Where no cell involved is in the overflow, a product of z-parts with
    codes x and y is free of z exactly when x + y == 0.  So b_ij*b_ji
    against b_ii^a_ij is decided on the codes when b_ii^a_ij is free of
    z (code_ii * a_ij == 0), and b_kx^m*b_ky when m = 1 - a_xy is 1.
    Every other cell, a z on the diagonal with a_ij != 0, a linking
    exponent above 1 or an overflow cell, and every message, goes
    through _terms.
    """
    s = diagram.size
    if matrix.size != s:
        yield f"matrix size {matrix.size} != diagram size {s}"
        return
    d, exps, codes = matrix.order, matrix.exps, matrix.zcodes
    overflow, zpow = matrix._overflow, matrix._zpow
    cartan = diagram.cartan

    def touched(*cells: tuple[int, int]) -> bool:
        return any(c in overflow for c in cells)

    for i in range(s):
        if codes[i][i] or (i, i) in overflow:
            entry = _entry_text(exps[i][i], zpow(i, i))
            yield f"diagonal b_{i + 1}{i + 1} = {entry} contains a free parameter"
        elif exps[i][i] == 0:
            yield f"diagonal b_{i + 1}{i + 1} equals 1"

    for i in range(s):
        row, zrow, a_row = exps[i], codes[i], cartan.dense_row(i)
        e_ii, c_ii = row[i], zrow[i]
        for j in range(s):
            if i == j:
                continue
            # b_ij b_ji = q^left z^zl against b_ii^a_ij = q^right z^zr
            left, right = row[j] + exps[j][i], e_ii * a_row[j]
            if (
                not (left - right) % d
                and zrow[j] + codes[j][i] == 0
                and not c_ii * a_row[j]
                and not (overflow and touched((i, j), (j, i), (i, i)))
            ):
                continue
            zl = _terms((zpow(i, j), 1), (zpow(j, i), 1))
            zr = _terms((zpow(i, i), a_row[j]))
            if (left - right) % d or zl != zr:
                yield (
                    f"product identity fails at ({i + 1},{j + 1}): "
                    f"b_ij*b_ji = {_entry_text(left % d, zl)}, "
                    f"b_ii^a_ij = {_entry_text(right % d, zr)}"
                )

    for i, j in diagram.linkable:
        for x, y in ((i, j), (j, i)):
            exponent = 1 - cartan.a(x, y)
            for k in range(s):
                # b_kx^exponent b_ky = q^e z^z must be 1
                row, zrow = exps[k], codes[k]
                e = (row[x] * exponent + row[y]) % d
                if (
                    not e
                    and exponent == 1
                    and zrow[x] + zrow[y] == 0
                    and not (overflow and touched((k, x), (k, y)))
                ):
                    continue
                z = _terms((zpow(k, x), exponent), (zpow(k, y), 1))
                if e or z:
                    yield (
                        f"linking identity fails for pair ({x + 1},{y + 1}) "
                        f"at k={k + 1}: got {_entry_text(e, z)}"
                    )

    if any(codes[i][i] or (i, i) in overflow or exps[i][i] == 0 for i in range(s)):
        return
    diagonal_orders = [d // gcd(d, exps[i][i]) for i in range(s)]
    if diagram.mode == "finite":
        for i, o in enumerate(diagonal_orders):
            if flaw := _finite_order_flaw(o, diagram.has_g2):
                yield f"order of b_{i + 1}{i + 1} is {o}, {flaw}"
    elif diagram.mode == "affine":
        orders = sorted(set(diagonal_orders))
        if len(orders) > 1:
            yield f"diagonal orders differ: {orders}"
        elif not (orders[0] > 3 and is_prime(orders[0])):
            yield f"diagonal order {orders[0]} is not a prime above 3"


# ---------------------------------------------------------- admissibility


def admissible_orders(
    diagram: LinkableDynkinDiagram,
    field: FieldSpec = CYCLOTOMIC,
    bound: int = 1000,
) -> tuple[int, ...]:
    """Root orders the construction may use, ascending.

    diagram.mode decides the rules, as in construct.  With a nonzero
    genus gcd G the candidates are divisors of G; with G = 0 they are
    the primes among the field's root orders, in a cyclotomic field the
    primes up to the given bound.
    """
    if diagram.mode == "selflink":
        raise UnsupportedMode("root orders require standard linking mode")
    big_g = genus_gcd(diagram)
    return _admissible_orders(diagram, field, big_g, bound)


# ------------------------------------------------------------ construction


def _completed(
    diagram: LinkableDynkinDiagram, d: int, exps: Sequence[int]
) -> BraidingMatrix:
    """The matrix with diagonal q^exps and the four-class completion.

    Ordered vertex pairs split into four classes by which ends lie on
    dotted edges; each class instance uses one fresh parameter z_t, and
    every off-diagonal entry is written once into the grid rows as
    b_vv^c, with the code +-t of z_t^+-1 for all but the dotted edges.
    """
    s = diagram.size
    a = [diagram.cartan.row(v).get for v in range(s)]  # a[i](j, 0) is a_ij
    e = [x % d for x in exps]
    grid = [[0] * s for _ in range(s)]
    codes = [[0] * s for _ in range(s)]
    for i in range(s):
        grid[i][i] = e[i]
    z = 0

    # linkable pairs themselves
    for i, j in diagram.linkable:
        grid[i][j] = -e[i] % d
        grid[j][i] = -e[j] % d

    free = [v for v in range(s) if diagram.partner(v) is None]

    # neither end on a dotted edge
    for i, j in combinations(free, 2):
        z += 1
        codes[j][i] = z
        grid[i][j] = a[i](j, 0) * e[i] % d
        codes[i][j] = -z

    # one end on a dotted edge {i,k}, the other end j free
    for (i, k), j in product(diagram.linkable, free):
        z += 1
        up, down = z, -z
        codes[j][i] = up
        grid[i][j] = a[i](j, 0) * e[i] % d
        codes[i][j] = down
        codes[j][k] = down
        grid[k][j] = a[k](j, 0) * e[k] % d
        codes[k][j] = up

    # both ends on distinct dotted edges; each joins two plain components,
    # so some orientation has both cross entries zero
    for first, second in combinations(diagram.linkable, 2):
        i, k, j, l = next(
            (i, k, j, l)
            for i, k in (first, first[::-1])
            for j, l in (second, second[::-1])
            if a[j](k, 0) == 0 and a[i](l, 0) == 0
        )
        z += 1
        up, down = z, -z
        # the entries carry b_ii^c, its inverse or neither
        c = a[i](j, 0) * e[i] % d
        codes[j][i] = codes[k][j] = up
        grid[i][j] = grid[l][i] = c
        codes[i][j] = codes[l][i] = down
        codes[j][k] = codes[k][l] = down
        grid[i][l] = grid[l][k] = -c % d
        codes[i][l] = codes[l][k] = up
    return BraidingMatrix(d, tuple(map(tuple, grid)), tuple(map(tuple, codes)))


def construct(
    diagram: LinkableDynkinDiagram,
    d: Optional[int] = None,
    field: FieldSpec = CYCLOTOMIC,
) -> BraidingMatrix:
    """Build a braiding matrix for a diagram that passed the existence check.

    The diagonal is propagated from the first vertex: crossing a dotted
    edge inverts the entry, crossing a plain edge raises it to the
    power a_uv / a_vu.  These exponents are the potentials of the genus
    gcd G modulo d, whose denominators (entries of recognized
    components) every admissible d leaves invertible; as d divides G,
    every fundamental cycle closes modulo d, so no edge is checked
    again, and verify still checks every identity.  Off-diagonal
    entries follow the four-class completion with one fresh parameter
    z_t per class instance.  The root order d must be admissible
    (diagram.mode decides the rules); by default the largest admissible
    divisor of the genus gcd is used, or the smallest admissible prime
    when all genera vanish.
    """
    if diagram.mode == "selflink":
        raise UnsupportedMode("construction requires standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("construct needs a link-connected diagram")
    report = check(diagram)
    if report.decision != "yes":
        raise LinkConstraintUnsatisfiable(
            f"existence check says {report.decision}: "
            + "; ".join(report.reasons)
        )
    d = _validate_order(diagram, d, field, report.genus_gcd)
    exps = [num * pow(den, -1, d) % d for num, den in diagram.potentials]
    return _completed(diagram, d, exps)


# ------------------------------------------------------------ excluded case

_SHAPES = {(3, 3): "finite", (1, 2): "affine", (4, 4): "affine"}


def excluded_case_matrix(
    n: int, m: int, d: int = 5
) -> tuple[LinkableDynkinDiagram, BraidingMatrix]:
    """Diagram and braiding matrix for the shapes the theorems skip.

    (n, m) = (3, 3) gives G2 x G2, (1, 2) the rank-two affine double
    with symmetric entries, (4, 4) the one with a quadruple arrow.  The
    two components are joined crosswise by two dotted edges and the
    matrix verifies symbolically in its free parameter.
    """
    if (n, m) not in _SHAPES:
        raise ShapeParameterMismatch(
            f"(n, m) must be one of {sorted(_SHAPES)}, got ({n}, {m})"
        )
    mode = _SHAPES[(n, m)]
    aij, aji = -m, -(m // n)
    rows = [[2, aij, 0, 0], [aji, 2, 0, 0], [0, 0, 2, aij], [0, 0, aji, 2]]
    diagram = LinkableDynkinDiagram(
        CartanMatrix(tuple(tuple(r) for r in rows)),
        linkable=((0, 2), (1, 3)),
        linked=frozenset({(0, 2), (1, 3)}),
        mode=mode,
    )
    _validate_order(diagram, d, CYCLOTOMIC, 0)

    # each cell is q's exponent and the z-exponents, z = z_1
    z, zi = ((1, 1),), ((1, -1),)
    cells = (
        ((1, ()), (-m, zi), (-1, ()), (m, z)),
        ((0, z), (n, ()), (0, zi), (-n, ())),
        ((1, ()), (0, z), (-1, ()), (0, zi)),
        ((-m, zi), (n, ()), (m, z), (-n, ())),
    )
    return diagram, BraidingMatrix.from_cells(d, cells)


# ------------------------------------------------------------- brute force


class OracleResult(NamedTuple):
    """Outcome of the exhaustive search for a braiding matrix."""

    found: bool
    root_order: Optional[int]
    matrix: Optional[BraidingMatrix]
    n_max: int


def brute_force_exists(
    diagram: LinkableDynkinDiagram,
    n_max: int = 30,
    field: FieldSpec = CYCLOTOMIC,
) -> OracleResult:
    """Exhaustively search for a verifying braiding matrix.

    The search is oracle.least_diagonal; only its witness gets
    construct's completion, which verify must accept (RuntimeError
    otherwise: a gap in the completion).  Components must be recognized
    as check requires (UnsupportedComponentType), n_max below 5 is a
    ValueError, and ScaleExceeded comes from the search.
    """
    if n_max < 5:
        raise ValueError(f"order bound {n_max} is below 5, the least order scanned")
    if diagram.mode == "selflink":
        raise UnsupportedMode("the brute-force search requires standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the brute-force search needs a link-connected diagram")
    _recognized_components(diagram)
    if (found := least_diagonal(diagram, n_max, field)) is None:
        return OracleResult(False, None, None, n_max)
    n, least = found
    matrix = _completed(diagram, n, least)
    report = verify(diagram, matrix)
    if not report.ok:
        raise RuntimeError(
            f"identity forms accepted a diagonal that verify rejects "
            f"at root order {n}: " + "; ".join(report.failures)
        )
    return OracleResult(True, n, matrix, n_max)


def ord_diagonal(matrix: BraidingMatrix, i: int) -> int:
    """Multiplicative order of the diagonal entry b_ii."""
    n = matrix.size
    if not 0 <= i < n:
        raise IndexOutOfRange(f"vertex {i + 1} outside 1..{n}")
    d, e = matrix.order, matrix.exps[i][i]
    if terms := matrix._zpow(i, i):
        raise ValueError(f"{_entry_text(e, terms)} contains free parameters")
    return d // gcd(d, e)


# -------------------------------------------------------------- direct sum


def direct_sum(
    parts: Sequence[tuple[LinkableDynkinDiagram, BraidingMatrix]],
    homogeneous: bool = False,
) -> BraidingMatrix:
    """Combine the matrices of link-connected parts, each with its diagram.

    Cross entries of the Cartan matrix vanish, so off-block entries
    pair a fresh parameter with its inverse.  A unit is a free vertex
    or a dotted edge of a part's diagram, and each pair of units in
    different parts takes one parameter, numbered in ascending order
    of their least vertices.  Without homogeneity the parts are rebased
    to the least common multiple of their root orders; with homogeneity
    all diagonal orders must already agree (OrderMismatch otherwise).
    ValueError for no parts or a part whose diagram and matrix differ
    in size.
    """
    if not parts:
        raise ValueError("need at least one part")
    for diagram, part in parts:
        if diagram.size != part.size:
            raise ValueError(
                f"a part has a diagram of size {diagram.size} "
                f"and a matrix of size {part.size}"
            )
    if homogeneous:
        orders = {ord_diagonal(part, i) for _, part in parts for i in range(part.size)}
        if len(orders) > 1:
            raise OrderMismatch(
                f"diagonal orders {sorted(orders)} cannot be made equal"
            )
    if len(parts) == 1:
        return parts[0][1]
    target = lcm(*(part.order for _, part in parts))
    total = sum(part.size for _, part in parts)
    grid = [[0] * total for _ in range(total)]
    codes = [[0] * total for _ in range(total)]
    overflow: list[tuple[tuple[int, int], Terms]] = []

    # rebase every part to the common order and renumber its parameters
    z_next = base = 0
    part_units = []
    for diagram, part in parts:
        scale = target // part.order
        remap = {t: z_next + pos + 1 for pos, t in enumerate(part.z_indices())}
        z_next += len(remap)
        for i, (row, zrow) in enumerate(zip(part.exps, part.zcodes)):
            grid[base + i][base : base + part.size] = [e * scale for e in row]
            codes[base + i][base : base + part.size] = [
                remap[c] if c > 0 else -remap[-c] if c else 0 for c in zrow
            ]
        # remap keeps the order of the indices, so the terms stay normal;
        # a z_0^+-1 gets an index from 1 up and so a code
        for (i, j), terms in part.zoverflow:
            cell = (base + i, base + j)
            terms = tuple((remap[t], k) for t, k in terms)
            codes[cell[0]][cell[1]] = _code(terms, cell, overflow)
        # its units, ascending: a free vertex v as its end (v, 1), a
        # dotted edge {i, k} as its ends (i, 1), (k, -1)
        free = (v for v in range(part.size) if diagram.partner(v) is None)
        units = [((base + v, 1),) for v in free]
        units += [((base + i, 1), (base + k, -1)) for i, k in diagram.linkable]
        part_units.append(sorted(units))
        base += part.size

    # each unit with every unit of a later part: b_yx = z^(sx sy) and
    # b_xy its inverse for ends (x, sx) and (y, sy), so the linking
    # identity of a dotted edge survives for every outside vertex
    for p, units in enumerate(part_units):
        later = chain.from_iterable(part_units[p + 1 :])
        for first, second in product(units, later):
            z_next += 1
            for (x, sx), (y, sy) in product(first, second):
                codes[y][x] = z_next * sx * sy
                codes[x][y] = -z_next * sx * sy
    return BraidingMatrix(
        target, tuple(map(tuple, grid)), tuple(map(tuple, codes)), tuple(overflow)
    )
