"""Braiding matrices over roots of unity with free parameters.

Entries are exact expressions q^e * z1^k1 * z2^k2 * ... where q is a
primitive root of unity of a fixed order and the z_t are free nonzero
scalars.  A matrix keeps them as integers, a grid of exponents of q
modulo the order plus a grid of signed ints for the z-parts (+-t for
z_t^+-1), so the defining identities are congruences on exponents and
cancelling codes, and every message renders its entries from those
integers.  The module builds braiding matrices for linkable Dynkin
diagrams, verifies the defining identities, searches for matrices by
brute force and combines matrices of link-connected parts into direct
sums.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, product
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cycles import genus_gcd
from .diagram import ComponentType, LinkableDynkinDiagram, dotted_edges_that_meet
from .errors import (
    InadmissibleD,
    IndexOutOfRange,
    LinkConstraintUnsatisfiable,
    MalformedMatrix,
    NoAdmissibleOrder,
    NotLinkConnected,
    OrderMismatch,
    ScaleExceeded,
    UnsupportedComponentType,
    UnsupportedMode,
)
from .fields import CYCLOTOMIC, FieldSpec, divisors, is_prime

_Z_LIMIT = 2_000_000  # diagonals the oracle will list at the order it answers at


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


def _finite_order_flaw(o: int, has_g2: bool) -> Optional[str]:
    """Why a finite diagram's diagonal entry may not have order o, or None.

    The order must exceed 2 and, with a G2 component present, be prime
    to 3.
    """
    if o <= 2:
        return "must exceed 2"
    if has_g2 and o % 3 == 0:
        return "divisible by 3 with a G2 component present"
    return None


def _recognized_components(diagram: LinkableDynkinDiagram) -> Sequence[ComponentType]:
    """The components of a finite or affine diagram, all of a known type.

    A finite diagram uses the finite catalog, an affine one both
    catalogs; UnsupportedComponentType names the first unrecognized
    component.
    """
    for c in diagram.components:
        if c.label == "other":
            verts = ", ".join(str(v + 1) for v in c.vertices)
            raise UnsupportedComponentType(
                f"component with vertices {verts} is not of a recognized "
                f"{'finite' if diagram.mode == 'finite' else 'finite or affine'} type"
            )
    return diagram.components


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


def _order_fault(
    diagram: LinkableDynkinDiagram, d: int, field: FieldSpec, big_g: int
) -> Optional[str]:
    """The first reason d is not an admissible root order, None if it is.

    A finite diagram wants d odd, above 2 and prime to 3 if a G2
    component is present, an affine one a prime above 3; both want d to
    divide a nonzero genus gcd big_g and the field to hold a primitive
    d-th root.
    """
    if diagram.mode == "finite":
        if d <= 2:
            return f"root order {d} must exceed 2"
        if d % 2 == 0:
            return f"root order {d} must be odd"
        if d % 3 == 0 and diagram.has_g2:
            return f"root order {d} is divisible by 3 with a G2 component present"
    elif d <= 3 or not is_prime(d):
        return f"root order {d} must be a prime above 3"
    if big_g > 0 and big_g % d != 0:
        return f"root order {d} does not divide the genus gcd {big_g}"
    if not field.has_primitive_root(d):
        return f"the field has no primitive root of order {d}"
    return None


def _admissible_orders(
    diagram: LinkableDynkinDiagram,
    field: FieldSpec,
    big_g: int,
    bound: int = 100,
    limit: Optional[int] = None,
) -> tuple[int, ...]:
    """admissible_orders for a diagram whose genus gcd big_g is known.

    The candidates are the divisors of a nonzero big_g, else the field's
    root orders; bound only cuts off a cyclotomic field, where every
    prime qualifies, and the default suits listing and choosing one.
    Only the first limit orders are tested and returned, all for None.
    """
    candidates = divisors(big_g) if big_g else field.root_orders()
    any_order = diagram.mode == "finite" and big_g > 0
    # the cheap test first: most candidates fail it and need no message
    orders = (
        d
        for d in candidates or range(3, bound + 1)
        if (any_order or is_prime(d))
        and _order_fault(diagram, d, field, big_g) is None
    )
    return tuple(islice(orders, limit))


def _validate_order(
    diagram: LinkableDynkinDiagram, d: Optional[int], field: FieldSpec, big_g: int
) -> int:
    if d is None:
        if diagram.mode == "finite" and big_g > 0:
            choices = _admissible_orders(diagram, field, big_g)
            if not choices:
                raise NoAdmissibleOrder(
                    f"no admissible root order divides the genus gcd {big_g}"
                )
            return choices[-1]
        # no cycle constraint: smallest prime from 5 up that the field
        # offers; 3 is the only admissible order below 5, so two suffice
        orders = _admissible_orders(diagram, field, big_g, limit=2)
        choices = [c for c in orders if c >= 5]
        if not choices:
            raise NoAdmissibleOrder("the field provides no admissible root order")
        return choices[0]
    fault = _order_fault(diagram, d, field, big_g)
    if fault:
        raise InadmissibleD(fault)
    return d


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
    from .existence import check  # deferred: existence imports this module

    report = check(diagram)
    if report.decision != "yes":
        raise LinkConstraintUnsatisfiable(
            f"existence check says {report.decision}: "
            + "; ".join(report.reasons)
        )
    d = _validate_order(diagram, d, field, report.genus_gcd)
    exps = [num * pow(den, -1, d) % d for num, den in diagram.potentials]
    return _completed(diagram, d, exps)


# ------------------------------------------------------------- brute force


class OracleResult(NamedTuple):
    """Outcome of the exhaustive search for a braiding matrix."""

    found: bool
    root_order: Optional[int]
    matrix: Optional[BraidingMatrix]
    n_max: int


def _order_ok(e: int, n: int, mode: str, has_g2: bool) -> bool:
    if e % n == 0:
        return False
    if mode == "affine":
        return True  # n is prime above 3, so the order is exactly n
    return _finite_order_flaw(n // gcd(n, e), has_g2) is None


def _no_admissible_order(big_n: int, mode: str, has_g2: bool) -> bool:
    """Whether no divisor of big_n is an admissible diagonal entry order.

    Finite mode admits every order above 2, prime to 3 with a G2
    component present; affine mode admits the primes above 3.
    """
    for p in (2, 3) if mode == "affine" else (3,) if has_g2 else ():
        while big_n % p == 0:
            big_n //= p
    return big_n <= (2 if mode == "finite" else 1)


def _diagonal_forms(diagram: LinkableDynkinDiagram) -> list[Terms]:
    """verify's identities as integer forms, (v, c_v) terms in the diagonal.

    With b_ii = q^e_i and unknown off-diagonal exponents x_ij they are a
    linear system A x = B e.  Nonzero scalars form a divisible group, so
    off-diagonal entries exist iff k B e == 0 (mod n) for each k with
    k A = 0.  A dotted edge {x, y} has a_xy = 0, so its linking
    identities read x_kx + x_ky = 0, and A splits into blocks of at most
    four vertex pairs:
    - a pair {u, v}: x_uv + x_vu = a_uv e_u = a_vu e_v gives the plain
      edge form a_uv e_u - a_vu e_v;
    - a dotted edge {x, y}: k = x, y give x_xy = -e_x and x_yx = -e_y,
      so x_xy + x_yx = 0 gives e_x + e_y;
    - a dotted edge {i, k} and a free j: x_ij + x_ji = a_ij e_i,
      x_kj + x_jk = a_kj e_k and x_ji + x_jk = 0 have rank 3: no form;
    - dotted edges {i, k}, {j, l}: the product identities of {i, j},
      {i, l}, {k, j}, {k, l} and x_ij + x_il = x_kj + x_kl = x_ji + x_jk
      = x_li + x_lk = 0 form one even cycle in 8 unknowns; its only
      left-kernel vector is the alternating sum, every other invariant
      factor is 1, and the form is (a_ij + a_il) e_i + (a_kj + a_kl) e_k,
      zero unless a plain edge joins the two dotted edges.
    """
    a = diagram.cartan.a
    forms = [((u, a(u, v)), (v, -a(v, u))) for u, v in diagram.cartan.plain_edges()]
    forms += [((x, 1), (y, 1)) for x, y in diagram.linkable]
    for (i, k), (j, l) in dotted_edges_that_meet(diagram):
        terms = ((i, a(i, j) + a(i, l)), (k, a(k, j) + a(k, l)))
        if form := tuple((v, c) for v, c in terms if c):
            forms.append(form)
    return forms


def _diagonalize(
    rows: Sequence[Sequence[tuple[int, int]]], s: int
) -> tuple[list[int], list[list[int]]]:
    """d_1..d_s (zero past the rank) and the columns of V, U F V = diag(d).

    F has one row per form, given by its (v, c_v), in s unknowns; U and
    V are unimodular, found by integer row and column operations (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4).  So F e == 0
    (mod n) exactly for e = V y with every d_i y_i == 0 (mod n).
    """
    m = [[dict(form).get(v, 0) for v in range(s)] for form in rows]
    cols = [[int(i == j) for i in range(s)] for j in range(s)]
    diag = [0] * s
    t = 0
    # the rows left have zeros left of column t; the least entry moves to
    # (t, t) and reduces its column and row until both are clear
    while m := [row for row in m if any(row)]:
        _, p, j = min(
            (abs(x), p, j) for p, row in enumerate(m) for j, x in enumerate(row) if x
        )
        m[0], m[p] = m[p], m[0]
        for row in m:
            row[t], row[j] = row[j], row[t]
        cols[t], cols[j] = cols[j], cols[t]
        top, pivot = m[0], m[0][t]
        for row in m[1:]:
            if q := row[t] // pivot:
                row[:] = [x - q * y for x, y in zip(row, top)]
        for k in range(t + 1, s):
            if q := top[k] // pivot:
                for row in m:
                    row[k] -= q * row[t]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[t])]
        if not any(top[t + 1 :]) and not any(row[t] for row in m[1:]):
            diag[t] = pivot
            m.pop(0)
            t += 1
    return diag, cols


def brute_force_exists(
    diagram: LinkableDynkinDiagram,
    n_max: int = 30,
    field: FieldSpec = CYCLOTOMIC,
) -> OracleResult:
    """Exhaustively search for a verifying braiding matrix.

    Root orders are scanned ascending (finite mode: 5..n_max, affine
    mode: primes above 3 up to n_max, both limited to orders the field
    provides).  With off-diagonal entries any nonzero scalars, verify's
    identities reduce to _diagonal_forms, diagonalized once, so "none"
    proves that no braiding matrix has its diagonal at a scanned order.
    The answer is "none" before the scan when some vertex's exponent
    lies in the span of the columns of finite order d_i and no divisor
    of their lcm is an admissible order.  The scan stops past the
    field's largest root order, and in a cyclotomic field with every
    invariant factor d_i nonzero, past 4 + lcm(d_i), where every order's
    outcome has been seen.  An order is skipped when some
    vertex's entry can only have an order that is not admissible;
    otherwise the diagonals satisfying the forms are read off the
    diagonal form.  Some of them have entries of
    admissible orders only, so the first such order ends the scan, and
    the least of those, in link traversal order, is the witness; only
    it gets construct's completion, which verify must accept
    (RuntimeError otherwise: a gap in the completion).  Components must
    be recognized as check requires (UnsupportedComponentType), n_max
    below 5 is a ValueError, and ScaleExceeded is raised when that order
    has more diagonals than the search will enumerate.
    """
    if n_max < 5:
        raise ValueError(f"order bound {n_max} is below 5, the least order scanned")
    mode = diagram.mode
    if mode == "selflink":
        raise UnsupportedMode("the brute-force search requires standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the brute-force search needs a link-connected diagram")
    _recognized_components(diagram)
    has_g2 = diagram.has_g2
    s = diagram.size
    order = diagram.link_walks[0][0]
    diag, cols = _diagonalize(_diagonal_forms(diagram), s)
    # a vertex no free column moves has e_p in the span of the torsion
    # columns, so at every n its entry's order divides the lcm of their
    # |d_i|: with no admissible divisor, every order would be skipped
    free = [col for x, col in zip(diag, cols) if not x]
    torsion = [(abs(x), col) for x, col in zip(diag, cols) if x]
    for p in range(s):
        if not any(col[p] for col in free):
            big_l = lcm(*(x for x, col in torsion if col[p]))
            if _no_admissible_order(big_l, mode, has_g2):
                return OracleResult(False, None, None, n_max)
    # no order past the field's largest root has one; with every d_i
    # nonzero the diagonals, as roots of unity, depend on n only through
    # gcd(n, D) for D the lcm of the d_i, and 5..4 + D meets every residue
    # class mod D, so a larger order answers only where a smaller one did
    last = field.largest_root_order() or (4 + lcm(*diag) if all(diag) else n_max)
    for n in range(5, min(n_max, last) + 1):
        if not field.has_primitive_root(n) or mode == "affine" and not is_prime(n):
            continue
        # each column of V scaled to n / m and taken 0..m-1 times; a column
        # with m = 1 only contributes 0
        gens = [
            (m, [c * (n // m) for c in col])
            for x, col in zip(diag, cols)
            if (m := gcd(x, n)) > 1
        ]
        # e_p is a multiple of h = gcd(n, g[p] for every g): ord(b_pp) | n/h
        caps = (n // gcd(n, *(g[p] for _, g in gens)) for p in range(s))
        if any(_no_admissible_order(cap, mode, has_g2) for cap in caps):
            continue
        # y_i runs over the multiples of n / gcd(d_i, n): this order is the
        # answer, so its count is the only one that could be too large
        if (count := prod(m for m, _ in gens)) > _Z_LIMIT:
            raise ScaleExceeded(
                f"{count} diagonal assignments at {s} vertices; "
                f"shrink the diagram or the order bound"
            )
        diagonals = (
            tuple(sum(k * g[p] for k, (_, g) in zip(ks, gens)) % n for p in range(s))
            for ks in product(*(range(m) for m, _ in gens))
        )
        fits = (e for e in diagonals if all(_order_ok(x, n, mode, has_g2) for x in e))
        # past the caps some diagonal fits: each prime part of the forms'
        # solutions holds one whose every entry has its part's largest order
        least = min(fits, key=itemgetter(*order))
        matrix = _completed(diagram, n, least)
        report = verify(diagram, matrix)
        if not report.ok:
            raise RuntimeError(
                f"identity forms accepted a diagonal that verify rejects "
                f"at root order {n}: " + "; ".join(report.failures)
            )
        return OracleResult(True, n, matrix, n_max)
    return OracleResult(False, None, None, n_max)


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
