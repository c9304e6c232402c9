"""Braiding matrices over roots of unity with free parameters.

Entries are exact expressions q^e * z1^k1 * z2^k2 * ... where q is a
primitive root of unity of a fixed order and the z_t are free nonzero
scalars.  A matrix keeps them as integers, a grid of exponents of q
modulo the order plus the z-exponents of its symbolic entries, so the
defining identities are congruences on exponents and every message
renders its entries from those integers.  RootExpr is only the record
of one entry that BraidingMatrix.entry returns.  The module builds
braiding matrices for linkable Dynkin diagrams, verifies the defining
identities, searches for matrices by brute force and combines matrices
of link-connected parts into direct sums.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cycles import genus_gcd
from .diagram import ComponentType, LinkableDynkinDiagram
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

_Z_LIMIT = 2_000_000  # diagonals per root order the oracle is willing to enumerate


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


def _product(a: Terms, b: Terms) -> Terms:
    """_terms((a, 1), (b, 1)) for a and b in normal form."""
    if not b:
        return a
    if not a:
        return b
    if len(a) == len(b) == 1 and a[0][0] == b[0][0]:
        k = a[0][1] + b[0][1]
        return ((a[0][0], k),) if k else ()
    return _terms((a, 1), (b, 1))


def _power(a: Terms, p: int) -> Terms:
    """_terms((a, p)) for a in normal form."""
    if p == 1 or not a:
        return a
    return tuple((t, k * p) for t, k in a) if p else ()


def _positive(order: int) -> None:
    if order < 1:
        raise ValueError("order must be positive")


_TOKEN = re.compile(r"^q\^(-?\d+)((?:\*z\d+\^-?\d+)*)$")
_ZPART = re.compile(r"\*z(\d+)\^(-?\d+)")


def _parse_entry(text: str, order: int) -> tuple[int, list[tuple[int, int]]]:
    """q's exponent and the z-exponents, as written, of a well-formed token."""
    m = _TOKEN.match(text)
    if not m:
        raise ValueError(f"bad root expression {text!r}")
    _positive(order)
    zpow = [(int(t), int(k)) for t, k in _ZPART.findall(m.group(2))]
    return int(m.group(1)), zpow


@dataclass(frozen=True)
class RootExpr:
    """The entry q^exp times z_t^k for each (t, k) in zpow, as a record.

    order is the order of the root q; exp is kept in 0..order-1 and
    zpow in the normal form of _terms, so repeated indices merge and
    zero powers drop.  BraidingMatrix.entry returns one; the identities
    are computed on the matrix's integer grid, not on these values.
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


def _grid(
    order: int, rows: Sequence[Sequence[tuple[int, Iterable[tuple[int, int]]]]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[dict[int, Terms], ...]]:
    """exps and zrows of a square matrix from its (exp, z-exponents) cells."""
    n = len(rows)
    exps, zrows = [], []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
        exps.append(tuple(e % order for e, _ in row))
        zrows.append(
            {j: t for j, (_, z) in enumerate(row) if z and (t := _terms((z, 1)))}
        )
    return tuple(exps), tuple(zrows)


@dataclass(frozen=True, init=False)
class BraidingMatrix:
    """Square matrix of entries q^e * z1^k1 * ... sharing one root order.

    The stored form is integer: exps[i][j] is the exponent of q in
    entry (i, j), kept in 0..order-1, and zrows[i] maps the column j of
    each symbolic entry in row i to its z-exponents ((t, k), ...),
    sorted by t, each t once and every k nonzero; a pure entry has no
    key.  The identities, the completion, instantiation and realization
    work on these integers.  entry and entries build RootExpr records
    on demand; BraidingMatrix(order, rows) reads rows of RootExpr and
    from_text parses tokens, both through _grid.
    """

    order: int
    exps: tuple[tuple[int, ...], ...]
    zrows: tuple[dict[int, Terms], ...]

    def __init__(self, order: int, entries: Sequence[Sequence[RootExpr]]) -> None:
        n = len(entries)
        for row in entries:
            if len(row) != n:
                break  # _grid reports a short row before later orders
            if any(e.order != order for e in row):
                raise ValueError("entry root order differs from matrix order")
        exps, zrows = _grid(order, [[(e.exp, e.zpow) for e in row] for row in entries])
        # the dataclass is frozen, so write the fields past __setattr__
        self.__dict__.update(order=order, exps=exps, zrows=zrows)

    @classmethod
    def _from_grid(
        cls,
        order: int,
        exps: tuple[tuple[int, ...], ...],
        zrows: Optional[tuple[dict[int, Terms], ...]] = None,
    ) -> "BraidingMatrix":
        """A matrix from its stored form, which the caller keeps normal.

        zrows defaults to a matrix without free parameters.
        """
        matrix = object.__new__(cls)
        matrix.__dict__.update(
            order=order, exps=exps, zrows=zrows or tuple({} for _ in exps)
        )
        return matrix

    def __hash__(self) -> int:
        zrows = tuple(tuple(sorted(zrow.items())) for zrow in self.zrows)
        return hash((self.order, self.exps, zrows))

    @property
    def size(self) -> int:
        return len(self.exps)

    def entry(self, i: int, j: int) -> RootExpr:
        return RootExpr(self.order, self.exps[i][j], self.zrows[i].get(j, ()))

    @property
    def entries(self) -> tuple[tuple[RootExpr, ...], ...]:
        n = self.size
        return tuple(tuple(self.entry(i, j) for j in range(n)) for i in range(n))

    def z_indices(self) -> tuple[int, ...]:
        return tuple(
            sorted(
                {t for zrow in self.zrows for terms in zrow.values() for t, _ in terms}
            )
        )

    def instantiate(self, values: Optional[dict[int, int]] = None) -> "BraidingMatrix":
        """The parameter-free matrix with z_t = q^values[t], 1 if t is unset."""
        d, exps = self.order, self.exps
        if values:
            exps = tuple(
                tuple(
                    (e + sum(values.get(t, 0) * k for t, k in zrow.get(j, ()))) % d
                    for j, e in enumerate(row)
                )
                for row, zrow in zip(exps, self.zrows)
            )
        # without values the exponents are reduced already
        return BraidingMatrix._from_grid(d, exps)

    def to_text(self) -> str:
        lines = [f"root_order {self.order}"]
        for row, zrow in zip(self.exps, self.zrows):
            # the q^e cells, then z-factors on the symbolic entries only
            cells = [f"q^{e}" for e in row]
            for j, terms in zrow.items():
                cells[j] += _z_text(terms)
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BraidingMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split() if lines else []
        if len(header) < 2 or header[0] != "root_order":
            raise MalformedMatrix("missing root_order header")
        try:
            order = int(header[1])
            rows = [[_parse_entry(t, order) for t in ln.split()] for ln in lines[1:]]
            return cls._from_grid(order, *_grid(order, rows))
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
    """The failure messages of verify, lazily and in its order."""
    s = diagram.size
    if matrix.size != s:
        yield f"matrix size {matrix.size} != diagram size {s}"
        return
    d, exps, zrows = matrix.order, matrix.exps, matrix.zrows
    cartan = diagram.cartan.entries

    for i in range(s):
        if terms := zrows[i].get(i):
            entry = _entry_text(exps[i][i], terms)
            yield f"diagonal b_{i + 1}{i + 1} = {entry} contains a free parameter"
        elif exps[i][i] == 0:
            yield f"diagonal b_{i + 1}{i + 1} equals 1"

    for i in range(s):
        row, zrow, a_row = exps[i], zrows[i], cartan[i]
        z_ii = zrow.get(i, ())
        for j in range(s):
            if i == j:
                continue
            # b_ij b_ji = q^left z^zl against b_ii^a_ij = q^right z^zr
            left, right = row[j] + exps[j][i], row[i] * a_row[j]
            zl = _product(zrow.get(j, ()), zrows[j].get(i, ()))
            zr = _power(z_ii, a_row[j])
            if (left - right) % d or zl != zr:
                yield (
                    f"product identity fails at ({i + 1},{j + 1}): "
                    f"b_ij*b_ji = {_entry_text(left % d, zl)}, "
                    f"b_ii^a_ij = {_entry_text(right % d, zr)}"
                )

    for i, j in diagram.linkable:
        for x, y in ((i, j), (j, i)):
            exponent = 1 - cartan[x][y]
            for k in range(s):
                # b_kx^exponent b_ky = q^e z^z must be 1
                row, zrow = exps[k], zrows[k]
                e = (row[x] * exponent + row[y]) % d
                z = _product(_power(zrow.get(x, ()), exponent), zrow.get(y, ()))
                if e or z:
                    yield (
                        f"linking identity fails for pair ({x + 1},{y + 1}) "
                        f"at k={k + 1}: got {_entry_text(e, z)}"
                    )

    if any(i in zrows[i] or exps[i][i] == 0 for i in range(s)):
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
    b_vv^c, times z_t^+-1 in zrows for all but the dotted edges.
    """
    a = diagram.cartan.entries
    s = diagram.size
    e = [x % d for x in exps]
    grid = [[0] * s for _ in range(s)]
    zrows: list[dict[int, Terms]] = [{} for _ in range(s)]
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
        zrows[j][i] = ((z, 1),)
        grid[i][j] = a[i][j] * e[i] % d
        zrows[i][j] = ((z, -1),)

    # one end on a dotted edge {i,k}, the other end j free
    for (i, k), j in product(diagram.linkable, free):
        z += 1
        up, down = ((z, 1),), ((z, -1),)
        zrows[j][i] = up
        grid[i][j] = a[i][j] * e[i] % d
        zrows[i][j] = down
        zrows[j][k] = down
        grid[k][j] = a[k][j] * e[k] % d
        zrows[k][j] = up

    # both ends on distinct dotted edges; each joins two plain components,
    # so some orientation has both cross entries zero
    for first, second in combinations(diagram.linkable, 2):
        i, k, j, l = next(
            (i, k, j, l)
            for i, k in (first, first[::-1])
            for j, l in (second, second[::-1])
            if a[j][k] == 0 and a[i][l] == 0
        )
        z += 1
        up, down = ((z, 1),), ((z, -1),)
        # the entries carry b_ii^c, its inverse or neither
        c = a[i][j] * e[i] % d
        zrows[j][i] = zrows[k][j] = up
        grid[i][j] = grid[l][i] = c
        zrows[i][j] = zrows[l][i] = down
        zrows[j][k] = zrows[k][l] = down
        grid[i][l] = grid[l][k] = -c % d
        zrows[i][l] = zrows[l][k] = up
    return BraidingMatrix._from_grid(d, tuple(map(tuple, grid)), tuple(zrows))


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
    """Whether no divisor of big_n is an admissible diagonal entry order."""
    while has_g2 and big_n % 3 == 0:  # has_g2 only in finite mode
        big_n //= 3
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
      factor is 1, and the form is (a_ij + a_il) e_i + (a_kj + a_kl) e_k.
    """
    a = diagram.cartan.entries
    forms = [((u, a[u][v]), (v, -a[v][u])) for u, v in diagram.cartan.plain_edges()]
    forms += [((x, 1), (y, 1)) for x, y in diagram.linkable]
    for (i, k), (j, l) in combinations(diagram.linkable, 2):
        terms = ((i, a[i][j] + a[i][l]), (k, a[k][j] + a[k][l]))
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
    An order is skipped when some vertex's entry can only have an order
    that is not admissible; otherwise the diagonals satisfying the forms
    are read off the diagonal form.  The witness is the least of them,
    in link traversal order, whose entries all have an admissible order;
    only it gets construct's completion, which verify must accept
    (RuntimeError otherwise: a gap in the completion).  Components must be
    recognized as check requires (UnsupportedComponentType), n_max
    below 5 is a ValueError, and ScaleExceeded is raised when some
    order has more such diagonals than the search will enumerate.
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

    def scanned(orders: range) -> Iterator[int]:
        return (
            n
            for n in orders
            if field.has_primitive_root(n) and (mode == "finite" or is_prime(n))
        )

    diag, cols = _diagonalize(_diagonal_forms(diagram), s)
    # at order n, y_i runs over the multiples of n / gcd(d_i, n); the
    # count is refused at the first order from the top that exceeds it,
    # and no order's count exceeds the product of nonzero |d_i|
    if 0 in diag or prod(map(abs, diag)) > _Z_LIMIT:
        for n in scanned(range(n_max, 4, -1)):
            if (count := prod(gcd(x, n) for x in diag)) > _Z_LIMIT:
                raise ScaleExceeded(
                    f"{count} diagonal assignments at {s} vertices; "
                    f"shrink the diagram or the order bound"
                )
    for n in scanned(range(5, n_max + 1)):
        # each column of V scaled to n / m, read in traversal order and
        # taken 0..m-1 times; a column with m = 1 only contributes 0
        gens = [
            (m, [col[v] * (n // m) for v in order])
            for x, col in zip(diag, cols)
            if (m := gcd(x, n)) > 1
        ]
        # e_p is a multiple of h = gcd(n, g[p] for every g): ord(b_pp) | n/h
        caps = (n // gcd(n, *(g[p] for _, g in gens)) for p in range(s))
        if any(_no_admissible_order(cap, mode, has_g2) for cap in caps):
            continue
        diagonals = (
            tuple(sum(k * g[p] for k, (_, g) in zip(ks, gens)) % n for p in range(s))
            for ks in product(*(range(m) for m, _ in gens))
        )
        fits = (e for e in diagonals if all(_order_ok(x, n, mode, has_g2) for x in e))
        # past the caps some diagonal fits: each prime part of the forms'
        # solutions holds one whose every entry has its part's largest order
        least = min(fits)
        matrix = _completed(diagram, n, [least[order.index(v)] for v in range(s)])
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
    if terms := matrix.zrows[i].get(i):
        raise ValueError(f"{_entry_text(e, terms)} contains free parameters")
    return d // gcd(d, e)


# -------------------------------------------------------------- direct sum


def _partner_pairs(matrix: BraidingMatrix) -> tuple[tuple[int, int], ...]:
    """Recover dotted pairs of a constructed matrix from its entries.

    A linked pair is the only place where both off-diagonal entries are
    parameter-free and tied to the diagonal as b_ik = b_ii^-1 = b_kk
    and b_ki = b_kk^-1.  Greedy and disjoint, which matches the output
    of construct since dotted edges never share a vertex.
    """
    found: list[tuple[int, int]] = []
    used: set[int] = set()
    d, exps, zrows = matrix.order, matrix.exps, matrix.zrows
    for i in range(matrix.size):
        e_ii = exps[i][i]
        if i in used or i in zrows[i] or e_ii == 0:
            continue
        for k in range(i + 1, matrix.size):
            if k in used or k in zrows[i] or i in zrows[k] or k in zrows[k]:
                continue
            if exps[i][k] == -e_ii % d == exps[k][k] and exps[k][i] == e_ii:
                found.append((i, k))
                used.update((i, k))
                break
    return tuple(found)


def direct_sum(
    parts: Sequence[BraidingMatrix], homogeneous: bool = False
) -> BraidingMatrix:
    """Combine matrices of link-connected parts into one matrix.

    Cross entries of the Cartan matrix vanish, so off-block entries
    pair a fresh parameter with its inverse; entries in the rows and
    columns of a dotted pair share that parameter so the linking
    identity survives for every outside vertex.  Without homogeneity
    the parts are rebased to the least common multiple of their root
    orders; with homogeneity all diagonal orders must already agree
    (OrderMismatch otherwise).
    """
    if not parts:
        raise ValueError("need at least one part")
    if homogeneous:
        orders: set[int] = set()
        for part in parts:
            for i in range(part.size):
                if i in part.zrows[i]:
                    raise ValueError("diagonal contains a free parameter")
                orders.add(part.order // gcd(part.order, part.exps[i][i]))
        if len(orders) > 1:
            raise OrderMismatch(
                f"diagonal orders {sorted(orders)} cannot be made equal"
            )
    if len(parts) == 1:
        return parts[0]
    target = lcm(*(p.order for p in parts))
    sizes = [p.size for p in parts]
    offsets = [sum(sizes[:i]) for i in range(len(parts))]
    total = sum(sizes)
    grid = [[0] * total for _ in range(total)]
    zrows: list[dict[int, Terms]] = [{} for _ in range(total)]

    # rebase every part to the common order and renumber its parameters
    z_next = 0
    for part, base in zip(parts, offsets):
        scale = target // part.order
        remap = {t: z_next + pos + 1 for pos, t in enumerate(part.z_indices())}
        z_next += len(remap)
        for i, (row, zrow) in enumerate(zip(part.exps, part.zrows)):
            grid[base + i][base : base + part.size] = [e * scale for e in row]
            for j, terms in zrow.items():
                zrows[base + i][base + j] = tuple((remap[t], k) for t, k in terms)

    partner: dict[int, int] = {}
    for part, base in zip(parts, offsets):
        for i, k in _partner_pairs(part):
            partner[base + i] = base + k
            partner[base + k] = base + i

    # cross-block pairs: ascending order, one fresh parameter per class
    # instance; a dotted pair forces the opposite column to cancel it
    block = [max(p for p in range(len(parts)) if offsets[p] <= v) for v in range(total)]
    assigned: set[tuple[int, int]] = set()

    def put(r: int, c: int, power: int) -> None:
        zrows[r][c] = ((z_next, power),)
        assigned.add((r, c))

    for i in range(total):
        for j in range(i + 1, total):
            if block[i] == block[j] or (i, j) in assigned:
                continue
            z_next += 1
            put(j, i, 1)
            put(i, j, -1)
            k = partner.get(i)
            l = partner.get(j)
            if k is not None:
                put(j, k, -1)
                put(k, j, 1)
            if l is not None:
                put(i, l, 1)
                put(l, i, -1)
            if k is not None and l is not None:
                put(k, l, -1)
                put(l, k, 1)
    return BraidingMatrix._from_grid(target, tuple(map(tuple, grid)), tuple(zrows))
