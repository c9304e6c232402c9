"""Braiding matrices over roots of unity with free parameters.

Entries are exact expressions q^e * z1^k1 * z2^k2 * ... where q is a
primitive root of unity of a fixed order and the z_t are free nonzero
scalars.  The module builds braiding matrices for linkable Dynkin
diagrams, verifies the defining identities symbolically, searches for
matrices by brute force and combines matrices of link-connected parts
into direct sums.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cycles import genus_gcd
from .diagram import ComponentType, LinkableDynkinDiagram, classify_components
from .errors import (
    InadmissibleD,
    IndexOutOfRange,
    LinkConstraintUnsatisfiable,
    NotLinkConnected,
    OrderMismatch,
    PathInconsistency,
    ScaleExceeded,
    UnsupportedComponentType,
    UnsupportedMode,
)
from .fields import CYCLOTOMIC, FieldSpec, is_prime

_Z_LIMIT = 2_000_000  # brute-force assignments we are willing to enumerate


# ---------------------------------------------------------------- RootExpr


@dataclass(frozen=True)
class RootExpr:
    """q^exp times a product of powers of free parameters z_t.

    order is the order of the root q; exp is kept in 0..order-1 and
    zpow maps parameter indices to nonzero integer powers, stored
    sorted.  The element is a unit, so inverses always exist.
    """

    order: int
    exp: int
    zpow: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        object.__setattr__(self, "exp", self.exp % self.order)
        cleaned = tuple(sorted((t, k) for t, k in self.zpow if k != 0))
        object.__setattr__(self, "zpow", cleaned)

    # ------------------------------------------------------- constructors

    @classmethod
    def root(cls, order: int, exp: int = 1) -> "RootExpr":
        return cls(order, exp)

    @classmethod
    def one(cls, order: int) -> "RootExpr":
        return cls(order, 0)

    @classmethod
    def z(cls, order: int, index: int, power: int = 1) -> "RootExpr":
        return cls(order, 0, ((index, power),))

    # -------------------------------------------------------- arithmetic

    def _combine(self, other: "RootExpr", sign: int) -> "RootExpr":
        if self.order != other.order:
            raise ValueError("mixed root orders")
        powers = dict(self.zpow)
        for t, k in other.zpow:
            powers[t] = powers.get(t, 0) + sign * k
        return RootExpr(
            self.order,
            self.exp + sign * other.exp,
            tuple(powers.items()),
        )

    def __mul__(self, other: "RootExpr") -> "RootExpr":
        return self._combine(other, 1)

    def __truediv__(self, other: "RootExpr") -> "RootExpr":
        return self._combine(other, -1)

    def inv(self) -> "RootExpr":
        return RootExpr(self.order, -self.exp, tuple((t, -k) for t, k in self.zpow))

    def __pow__(self, n: int) -> "RootExpr":
        return RootExpr(self.order, self.exp * n, tuple((t, k * n) for t, k in self.zpow))

    # ---------------------------------------------------------- queries

    @property
    def is_one(self) -> bool:
        return self.exp == 0 and not self.zpow

    @property
    def is_symbolic(self) -> bool:
        return bool(self.zpow)

    def multiplicative_order(self) -> int:
        if self.zpow:
            raise ValueError(f"{self} contains free parameters")
        return self.order // gcd(self.order, self.exp)

    def substitute(self, values: Optional[dict[int, "RootExpr"]] = None) -> "RootExpr":
        """Replace every free parameter, by default with 1."""
        acc = RootExpr(self.order, self.exp)
        for t, k in self.zpow:
            val = (values or {}).get(t)
            if val is None:
                continue
            if val.order != self.order:
                raise ValueError("substitution value has a different root order")
            acc = acc * val**k
        return acc

    # ------------------------------------------------------------- text

    def __str__(self) -> str:
        parts = [f"q^{self.exp}"]
        parts.extend(f"z{t}^{k}" for t, k in self.zpow)
        return "*".join(parts)

    _TOKEN = re.compile(r"^q\^(-?\d+)((?:\*z\d+\^-?\d+)*)$")
    _ZPART = re.compile(r"\*z(\d+)\^(-?\d+)")

    @classmethod
    def parse(cls, text: str, order: int) -> "RootExpr":
        m = cls._TOKEN.match(text)
        if not m:
            raise ValueError(f"bad root expression {text!r}")
        exp = int(m.group(1))
        zpow = tuple(
            (int(t), int(k)) for t, k in cls._ZPART.findall(m.group(2))
        )
        return cls(order, exp, zpow)


# ----------------------------------------------------------- BraidingMatrix


@dataclass(frozen=True)
class BraidingMatrix:
    """Square matrix of RootExpr entries sharing one root order."""

    order: int
    entries: tuple[tuple[RootExpr, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix is not square")
            for e in row:
                if e.order != self.order:
                    raise ValueError("entry root order differs from matrix order")

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> RootExpr:
        return self.entries[i][j]

    def diagonal(self) -> tuple[RootExpr, ...]:
        return tuple(self.entries[i][i] for i in range(self.size))

    def z_indices(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for row in self.entries:
            for e in row:
                seen.update(t for t, _ in e.zpow)
        return tuple(sorted(seen))

    def instantiate(
        self, values: Optional[dict[int, RootExpr]] = None
    ) -> "BraidingMatrix":
        """Substitute values (default 1) for every free parameter."""
        full = {t: RootExpr.one(self.order) for t in self.z_indices()}
        full.update(values or {})
        rows = tuple(
            tuple(e.substitute(full) for e in row) for row in self.entries
        )
        return BraidingMatrix(self.order, rows)

    def to_text(self) -> str:
        lines = [f"root_order {self.order}"]
        for row in self.entries:
            lines.append(" ".join(str(e) for e in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BraidingMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split() if lines else []
        if len(header) < 2 or header[0] != "root_order":
            raise ValueError("missing root_order header")
        order = int(header[1])
        rows = tuple(
            tuple(RootExpr.parse(tok, order) for tok in ln.split())
            for ln in lines[1:]
        )
        return cls(order, rows)


# ------------------------------------------------------------ verification


class VerificationReport(NamedTuple):
    """Outcome of checking the braiding identities for a matrix."""

    ok: bool
    failures: tuple[str, ...]


def verify(
    diagram: LinkableDynkinDiagram,
    matrix: BraidingMatrix,
    mode: str = "finite",
) -> VerificationReport:
    """Check the defining identities of a braiding matrix symbolically.

    Checked are: no diagonal entry equals 1, the product identity
    b_ij b_ji = b_ii^a_ij for all pairs, the linking identity
    b_ki^(1-a_ij) b_kj = 1 for every linkable pair in both orders and
    all k, and the order conditions of the requested mode ('finite':
    diagonal orders above 2, not divisible by 3 when a G2 component is
    present; 'affine': all diagonal orders equal to one prime above 3;
    'selflink': no order conditions beyond b_ii != 1).
    """
    failures = tuple(_failures(diagram, matrix, mode))
    return VerificationReport(not failures, failures)


def _failures(
    diagram: LinkableDynkinDiagram, matrix: BraidingMatrix, mode: str
) -> Iterator[str]:
    """The failure messages of verify, lazily and in its order."""
    s = diagram.size
    if matrix.size != s:
        yield f"matrix size {matrix.size} != diagram size {s}"
        return
    b = matrix.entry

    for i in range(s):
        if b(i, i).is_symbolic:
            yield f"diagonal b_{i + 1}{i + 1} = {b(i, i)} contains a free parameter"
        elif b(i, i).is_one:
            yield f"diagonal b_{i + 1}{i + 1} equals 1"

    for i in range(s):
        for j in range(s):
            if i == j:
                continue
            left = b(i, j) * b(j, i)
            right = b(i, i) ** diagram.a(i, j)
            if left != right:
                yield (
                    f"product identity fails at ({i + 1},{j + 1}): "
                    f"b_ij*b_ji = {left}, b_ii^a_ij = {right}"
                )

    for i, j in diagram.linkable:
        for x, y in ((i, j), (j, i)):
            exponent = 1 - diagram.a(x, y)
            for k in range(s):
                val = b(k, x) ** exponent * b(k, y)
                if not val.is_one:
                    yield (
                        f"linking identity fails for pair ({x + 1},{y + 1}) "
                        f"at k={k + 1}: got {val}"
                    )

    diag_ok = all(
        not b(i, i).is_symbolic and not b(i, i).is_one for i in range(s)
    )
    if diag_ok and mode == "finite":
        has_g2 = _has_g2(diagram)
        for i in range(s):
            o = b(i, i).multiplicative_order()
            if o <= 2:
                yield f"order of b_{i + 1}{i + 1} is {o}, must exceed 2"
            elif has_g2 and o % 3 == 0:
                yield (
                    f"order of b_{i + 1}{i + 1} is {o}, divisible by 3 "
                    f"with a G2 component present"
                )
    elif diag_ok and mode == "affine":
        orders = sorted({b(i, i).multiplicative_order() for i in range(s)})
        if len(orders) > 1:
            yield f"diagonal orders differ: {orders}"
        elif not (orders[0] > 3 and is_prime(orders[0])):
            yield f"diagonal order {orders[0]} is not a prime above 3"


# ---------------------------------------------------------- admissibility


def _has_g2(diagram: LinkableDynkinDiagram) -> bool:
    return any(c.label == "G2" for c in classify_components(diagram, "finite"))


def _recognized_components(
    diagram: LinkableDynkinDiagram, mode: str
) -> list[ComponentType]:
    """The components for mode 'finite' or 'affine', all of a known type.

    Finite mode uses the finite catalog, affine mode both catalogs;
    UnsupportedComponentType names the first unrecognized component.
    """
    comps = classify_components(diagram, "finite" if mode == "finite" else "any")
    for c in comps:
        if c.label == "other":
            verts = ", ".join(str(v + 1) for v in c.vertices)
            raise UnsupportedComponentType(
                f"component with vertices {verts} is not of a recognized "
                f"{'finite' if mode == 'finite' else 'finite or affine'} type"
            )
    return comps


def admissible_orders(
    diagram: LinkableDynkinDiagram,
    mode: str = "finite",
    field: FieldSpec = CYCLOTOMIC,
    bound: int = 1000,
) -> tuple[int, ...]:
    """Root orders the construction may use, ascending.

    With a nonzero genus gcd G the candidates are divisors of G; with
    G = 0 they are the primes among the field's root orders, in a
    cyclotomic field the primes up to the given bound.
    """
    big_g = genus_gcd(diagram, mode)
    return _admissible_orders(diagram, mode, field, big_g, bound)


def _admissible_orders(
    diagram: LinkableDynkinDiagram,
    mode: str,
    field: FieldSpec,
    big_g: int,
    bound: int = 100,
) -> tuple[int, ...]:
    """admissible_orders for a diagram whose genus gcd big_g is known.

    With big_g = 0 the candidates are the field's root orders; bound
    only cuts off a cyclotomic field, where every prime qualifies, and
    the default suits listing and choosing one.
    """
    g2 = mode == "finite" and _has_g2(diagram)
    low = 3 if mode == "finite" else 5
    candidates = field.root_orders()
    if big_g or candidates is None:
        candidates = range(low, (big_g or bound) + 1)
    out = []
    for d in candidates:
        if d < low or big_g % d or d % 2 == 0 or (g2 and d % 3 == 0):
            continue
        if field.has_primitive_root(d) and (
            (mode == "finite" and big_g > 0) or is_prime(d)
        ):
            out.append(d)
    return tuple(out)


def _validate_order(
    diagram: LinkableDynkinDiagram,
    d: Optional[int],
    mode: str,
    field: FieldSpec,
    big_g: int,
) -> int:
    if d is None:
        choices = _admissible_orders(diagram, mode, field, big_g)
        if mode == "finite" and big_g > 0:
            if not choices:
                raise InadmissibleD(
                    f"no admissible root order divides the genus gcd {big_g}"
                )
            return choices[-1]
        # no cycle constraint: smallest prime from 5 up that the field offers
        choices = tuple(c for c in choices if c >= 5)
        if not choices:
            raise InadmissibleD("the field provides no admissible root order")
        return choices[0]
    if mode == "finite":
        if d <= 2:
            raise InadmissibleD(f"root order {d} must exceed 2")
        if d % 2 == 0:
            raise InadmissibleD(f"root order {d} must be odd")
        if _has_g2(diagram) and d % 3 == 0:
            raise InadmissibleD(
                f"root order {d} is divisible by 3 with a G2 component present"
            )
    else:
        if d <= 3 or not is_prime(d):
            raise InadmissibleD(f"root order {d} must be a prime above 3")
    if big_g > 0 and big_g % d != 0:
        raise InadmissibleD(
            f"root order {d} does not divide the genus gcd {big_g}"
        )
    if not field.has_primitive_root(d):
        raise InadmissibleD(f"the field has no primitive root of order {d}")
    return d


# ------------------------------------------------------------ construction


def _diagonal_exponents(diagram: LinkableDynkinDiagram, d: int) -> list[int]:
    """Propagate the diagonal exponent from vertex 0 over the link graph."""
    s = diagram.size
    exps: list[Optional[int]] = [None] * s
    exps[0] = 1
    order, parent = diagram.link_traversal()
    for v in order[1:]:
        u = parent[v]
        if diagram.a(u, v) != 0:
            ratio_den = diagram.a(v, u) % d
            if gcd(ratio_den, d) != 1:
                raise InadmissibleD(
                    f"entry a({v + 1},{u + 1}) = {diagram.a(v, u)} is "
                    f"not invertible modulo {d}"
                )
            exps[v] = exps[u] * diagram.a(u, v) * pow(ratio_den, -1, d) % d
        else:
            exps[v] = -exps[u] % d
    if len(order) < s:
        raise NotLinkConnected("the diagram is not link-connected")

    # every edge must agree, not only the spanning tree used above
    for u in range(s):
        for v in range(u + 1, s):
            if diagram.a(u, v) != 0:
                if (exps[u] * diagram.a(u, v) - exps[v] * diagram.a(v, u)) % d:
                    raise PathInconsistency(
                        f"plain edge ({u + 1},{v + 1}) relates exponents "
                        f"{exps[u]} and {exps[v]} inconsistently modulo {d}"
                    )
            if diagram.is_linkable_pair(u, v) and (exps[u] + exps[v]) % d:
                raise PathInconsistency(
                    f"dotted edge ({u + 1},{v + 1}) needs opposite exponents, "
                    f"got {exps[u]} and {exps[v]} modulo {d}"
                )
    return exps  # type: ignore[return-value]


def _offdiagonal_entries(
    diagram: LinkableDynkinDiagram, diag: Sequence[RootExpr]
) -> dict[tuple[int, int], RootExpr]:
    """Fill all off-diagonal entries from the diagonal.

    Ordered vertex pairs split into four classes by which ends lie on
    dotted edges; each class instance uses one fresh parameter z_t and
    every ordered pair is set exactly once.
    """
    d = diag[0].order
    partner = {v: diagram.partner(v) for v in range(diagram.size)}
    out: dict[tuple[int, int], RootExpr] = {}
    z_counter = 0

    def fresh() -> RootExpr:
        nonlocal z_counter
        z_counter += 1
        return RootExpr.z(d, z_counter)

    # linkable pairs themselves
    for i, j in diagram.linkable:
        out[(i, j)] = diag[i].inv()
        out[(j, i)] = diag[j].inv()

    free = [v for v in range(diagram.size) if partner[v] is None]

    # neither end on a dotted edge
    for i in free:
        for j in free:
            if i < j:
                z = fresh()
                out[(j, i)] = z
                out[(i, j)] = diag[i] ** diagram.a(i, j) * z.inv()

    # one end on a dotted edge {i,k}, the other end j free
    for i, k in diagram.linkable:
        for j in free:
            z = fresh()
            out[(j, i)] = z
            out[(i, j)] = diag[i] ** diagram.a(i, j) * z.inv()
            out[(j, k)] = z.inv()
            out[(k, j)] = diag[k] ** diagram.a(k, j) * z

    # both ends on distinct dotted edges
    pairs = diagram.linkable
    for p in range(len(pairs)):
        for q in range(p + 1, len(pairs)):
            roles = None
            for i, k in (pairs[p], pairs[p][::-1]):
                for j, l in (pairs[q], pairs[q][::-1]):
                    if diagram.a(j, k) == 0 and diagram.a(i, l) == 0:
                        roles = (i, k, j, l)
                        break
                if roles:
                    break
            if roles is None:
                raise PathInconsistency(
                    f"dotted edges {pairs[p]} and {pairs[q]} admit no "
                    f"orientation with vanishing cross entries"
                )
            i, k, j, l = roles
            z = fresh()
            base = diag[i] ** diagram.a(i, j)
            out[(j, i)] = z
            out[(k, j)] = z
            out[(i, j)] = base * z.inv()
            out[(l, i)] = base * z.inv()
            out[(j, k)] = z.inv()
            out[(k, l)] = z.inv()
            out[(i, l)] = base.inv() * z
            out[(l, k)] = base.inv() * z
    return out


def _completed(
    diagram: LinkableDynkinDiagram, d: int, exps: Sequence[int]
) -> BraidingMatrix:
    """The matrix with diagonal q^exps and the four-class completion."""
    diag = [RootExpr.root(d, e) for e in exps]
    off = _offdiagonal_entries(diagram, diag)
    s = diagram.size
    return BraidingMatrix(
        d,
        tuple(
            tuple(diag[i] if i == j else off[(i, j)] for j in range(s))
            for i in range(s)
        ),
    )


def construct(
    diagram: LinkableDynkinDiagram,
    d: Optional[int] = None,
    field: FieldSpec = CYCLOTOMIC,
) -> BraidingMatrix:
    """Build a braiding matrix for a diagram that passed the existence check.

    The diagonal is propagated from the first vertex: crossing a dotted
    edge inverts the entry, crossing a plain edge raises it to the
    power a_uv / a_vu.  Off-diagonal entries follow the four-class
    completion with one fresh parameter z_t per class instance.  The
    root order d must be admissible (diagram.mode decides the rules);
    by default the largest admissible divisor of the genus gcd is used,
    or the smallest admissible prime when all genera vanish.
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
    d = _validate_order(diagram, d, diagram.mode, field, report.genus_gcd)
    return _completed(diagram, d, _diagonal_exponents(diagram, d))


# ------------------------------------------------------------- brute force


class OracleResult(NamedTuple):
    """Outcome of the exhaustive search for a braiding matrix."""

    found: bool
    root_order: Optional[int]
    matrix: Optional[BraidingMatrix]
    n_max: int


def _solve_linear(a: int, b: int, n: int) -> list[int]:
    # all x with a*x == b (mod n), ascending
    a %= n
    b %= n
    g = gcd(a, n)
    if b % g:
        return []
    step = n // g
    x0 = (b // g) * pow((a // g) % step, -1, step) % step if step > 1 else 0
    return [x0 + t * step for t in range(g)]


def _order_ok(e: int, n: int, mode: str, has_g2: bool) -> bool:
    if e % n == 0:
        return False
    if mode == "affine":
        return True  # n is prime above 3, so the order is exactly n
    o = n // gcd(n, e)
    if o <= 2:
        return False
    return not (has_g2 and o % 3 == 0)


def _identity_forms(
    diagram: LinkableDynkinDiagram,
) -> Optional[tuple[tuple[tuple[int, int], ...], ...]]:
    """The product and linking identities as integer forms in the diagonal.

    The four-class completion runs once on a symbolic diagonal whose
    entry v is the marker parameter z_{-v-1} at root order 1, so every
    identity _failures checks leaves a product of markers and fresh z_t.
    With diagonal q^e at order n the identity holds iff no fresh z_t
    remains and the marker powers c_v give sum c_v e_v == 0 (mod n);
    each form lists its (v, c_v).  None when some identity keeps a
    fresh z_t, which no diagonal can cancel.
    """
    s = diagram.size
    diag = [RootExpr.z(1, -v - 1) for v in range(s)]
    off = _offdiagonal_entries(diagram, diag)

    def b(i: int, j: int) -> RootExpr:
        return diag[i] if i == j else off[(i, j)]

    residues = [
        b(i, j) * b(j, i) / diag[i] ** diagram.a(i, j)
        for i in range(s)
        for j in range(s)
        if i != j
    ]
    residues.extend(
        b(k, x) ** (1 - diagram.a(x, y)) * b(k, y)
        for i, j in diagram.linkable
        for x, y in ((i, j), (j, i))
        for k in range(s)
    )
    forms = set()
    for r in residues:
        if any(t > 0 for t, _ in r.zpow):
            return None
        if r.zpow:
            forms.add(tuple((-t - 1, c) for t, c in r.zpow))
    return tuple(sorted(forms))


def _forms_hold(
    forms: Sequence[Sequence[tuple[int, int]]], n: int, exps: Sequence[int]
) -> bool:
    """Whether diagonal q^exps at order n satisfies every identity form."""
    for form in forms:
        if sum(c * exps[v] for v, c in form) % n:
            return False
    return True


def _search_space(diagram: LinkableDynkinDiagram, order: list[int], n: int) -> int:
    # candidates per vertex are bounded by its tightest earlier constraint
    est = n - 1
    for idx, v in enumerate(order[1:], start=1):
        tightest = n
        for u in order[:idx]:
            if diagram.a(v, u) != 0:
                tightest = min(tightest, gcd(abs(diagram.a(v, u)), n))
            elif diagram.is_linkable_pair(v, u):
                tightest = 1
        est *= tightest
    return est


def brute_force_exists(
    diagram: LinkableDynkinDiagram,
    n_max: int = 30,
    field: FieldSpec = CYCLOTOMIC,
) -> OracleResult:
    """Exhaustively search for a verifying braiding matrix.

    Root orders are scanned ascending (finite mode: 5..n_max, affine
    mode: primes above 3 up to n_max, both limited to orders the field
    provides).  For each order every diagonal assignment compatible
    with the edge constraints is screened against verify's identities
    under the four-class completion, compiled once into integer forms
    in the diagonal exponents; only the first passing diagonal in scan
    order is completed, and verify must accept it (RuntimeError
    otherwise).  Components must be recognized as check requires
    (UnsupportedComponentType) and n_max below 5 is a ValueError.  The
    search space is estimated up front and ScaleExceeded is raised when
    it is too large; diagrams without branching edges stay cheap at any
    size.
    """
    if n_max < 5:
        raise ValueError(f"order bound {n_max} is below 5, the least order scanned")
    mode = diagram.mode
    if mode == "selflink":
        raise UnsupportedMode("the brute-force search requires standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the brute-force search needs a link-connected diagram")
    _recognized_components(diagram, mode)
    has_g2 = mode == "finite" and _has_g2(diagram)
    s = diagram.size

    # fixed visit order: breadth-first from vertex 0 over the link graph
    order, _ = diagram.link_traversal()

    candidates_n = [
        n
        for n in range(5, n_max + 1)
        if field.has_primitive_root(n)
        and (mode == "finite" or is_prime(n))
    ]
    worst = max((_search_space(diagram, order, n) for n in candidates_n), default=0)
    if worst > _Z_LIMIT:
        raise ScaleExceeded(
            f"about {worst} diagonal assignments at {s} vertices; "
            f"shrink the diagram or the order bound"
        )

    def assignments(n: int) -> Iterable[list[int]]:
        exps: list[Optional[int]] = [None] * s

        def extend(idx: int) -> Iterable[list[int]]:
            if idx == len(order):
                yield [e for e in exps]  # type: ignore[misc]
                return
            v = order[idx]
            # level 0 is the root exponent; later vertices follow earlier ones
            constraints: list[Iterable[int]] = [range(n)] if idx == 0 else []
            for u in order[:idx]:
                eu = exps[u]
                if diagram.a(v, u) != 0:
                    constraints.append(
                        _solve_linear(diagram.a(v, u), eu * diagram.a(u, v), n)
                    )
                elif diagram.is_linkable_pair(v, u):
                    constraints.append([-eu % n])
            if not constraints:
                raise NotLinkConnected("vertex order is not link-contiguous")
            options = set(constraints[0])
            for c in constraints[1:]:
                options &= set(c)
            for e in sorted(options):
                if not _order_ok(e, n, mode, has_g2):
                    continue
                exps[v] = e
                yield from extend(idx + 1)
                exps[v] = None

        yield from extend(0)

    none = OracleResult(False, None, None, n_max)
    candidates = ((n, exps) for n in candidates_n for exps in assignments(n))
    first = next(candidates, None)
    if first is None:
        return none
    # compiled at the first candidate, so PathInconsistency from the
    # completion surfaces exactly where building its matrix would raise it
    forms = _identity_forms(diagram)
    if forms is None:
        return none
    for n, exps in chain((first,), candidates):
        if _forms_hold(forms, n, exps):
            matrix = _completed(diagram, n, exps)
            report = verify(diagram, matrix, mode)
            if not report.ok:
                raise RuntimeError(
                    f"identity forms accepted a diagonal that verify rejects "
                    f"at root order {n}: " + "; ".join(report.failures)
                )
            return OracleResult(True, n, matrix, n_max)
    return none


def ord_diagonal(matrix: BraidingMatrix, i: int) -> int:
    """Multiplicative order of the diagonal entry b_ii."""
    n = matrix.size
    if not 0 <= i < n:
        raise IndexOutOfRange(f"vertex {i + 1} outside 1..{n}")
    return matrix.entry(i, i).multiplicative_order()


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
    for i in range(matrix.size):
        if i in used:
            continue
        bii = matrix.entry(i, i)
        if bii.is_symbolic or bii.is_one:
            continue
        for k in range(i + 1, matrix.size):
            if k in used:
                continue
            bik = matrix.entry(i, k)
            bki = matrix.entry(k, i)
            if bik.is_symbolic or bki.is_symbolic:
                continue
            if (
                bik == bii.inv()
                and bik == matrix.entry(k, k)
                and bki == bii
            ):
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
            for e in part.diagonal():
                if e.is_symbolic:
                    raise ValueError("diagonal contains a free parameter")
                orders.add(e.multiplicative_order())
        if len(orders) > 1:
            raise OrderMismatch(
                f"diagonal orders {sorted(orders)} cannot be made equal"
            )
    if len(parts) == 1:
        return parts[0]
    target = lcm(*(p.order for p in parts))

    # rebase every part to the common order and renumber its parameters
    rebased: list[list[list[RootExpr]]] = []
    z_next = 0
    for part in parts:
        scale = target // part.order
        remap = {t: z_next + pos + 1 for pos, t in enumerate(part.z_indices())}
        z_next += len(remap)
        rows = []
        for row in part.entries:
            new_row = []
            for e in row:
                new_row.append(
                    RootExpr(
                        target,
                        e.exp * scale,
                        tuple((remap[t], k) for t, k in e.zpow),
                    )
                )
            rows.append(new_row)
        rebased.append(rows)

    sizes = [p.size for p in parts]
    offsets = [sum(sizes[:i]) for i in range(len(parts))]
    total = sum(sizes)
    one = RootExpr.one(target)
    grid: list[list[RootExpr]] = [[one] * total for _ in range(total)]
    for p, rows in enumerate(rebased):
        for i in range(sizes[p]):
            for j in range(sizes[p]):
                grid[offsets[p] + i][offsets[p] + j] = rows[i][j]

    partner: dict[int, int] = {}
    for p, part in enumerate(parts):
        for i, k in _partner_pairs(part):
            partner[offsets[p] + i] = offsets[p] + k
            partner[offsets[p] + k] = offsets[p] + i

    # cross-block pairs: ascending order, one fresh parameter per class
    # instance; a dotted pair forces the opposite column to cancel it
    block = [max(p for p in range(len(parts)) if offsets[p] <= v) for v in range(total)]
    assigned: set[tuple[int, int]] = set()

    def put(r: int, c: int, value: RootExpr) -> None:
        grid[r][c] = value
        assigned.add((r, c))

    for i in range(total):
        for j in range(i + 1, total):
            if block[i] == block[j] or (i, j) in assigned:
                continue
            z_next += 1
            z = RootExpr.z(target, z_next)
            put(j, i, z)
            put(i, j, z.inv())
            k = partner.get(i)
            l = partner.get(j)
            if k is not None:
                put(j, k, z.inv())
                put(k, j, z)
            if l is not None:
                put(i, l, z)
                put(l, i, z.inv())
            if k is not None and l is not None:
                put(k, l, z.inv())
                put(l, k, z)
    return BraidingMatrix(target, tuple(tuple(row) for row in grid))
