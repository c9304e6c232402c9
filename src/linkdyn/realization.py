"""Realizing braiding matrices over abelian groups.

A realization assigns to each vertex a group element g_i and a
character chi_i so that b_ij = chi_j(g_i), with the linking identity
chi_i^(1-a_ij) chi_j = 1 for every dotted pair.  Any matrix without
free parameters works over Z^s; over (Z/m)^s the entry orders must
divide m.  The module also builds the classical two-copy datum from a
symmetrizable Cartan matrix and solves the rank-four congruence system
that governs realizations over (Z/p)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Optional

from .braiding import BraidingMatrix, _entry_text
from .diagram import CartanMatrix, LinkableDynkinDiagram
from .errors import (
    InadmissibleD,
    LinkConstraintUnsatisfiable,
    NotPrime,
    NotSymmetrizable,
    OrderNotDividing,
    ScaleExceeded,
)
from .fields import is_prime

Pair = tuple[int, int]


# ------------------------------------------------------------ linking datum


@dataclass(frozen=True)
class LinkingDatum:
    """Group data realizing a braiding matrix.

    factors are the invariant factors of the group (0 meaning an
    infinite cyclic factor); elements holds each g_i as an exponent
    vector over the generators; character_exps holds each chi_j by the
    exponents, in 0..order-1, of its values q^e on the generators, q a
    primitive root of unity of the given order.  Every identity and
    message is computed on these exponents.
    """

    order: int
    factors: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]
    character_exps: tuple[tuple[int, ...], ...]
    linkable: tuple[Pair, ...]
    linked: frozenset[Pair]
    diagram: Optional[LinkableDynkinDiagram] = field(default=None, compare=False)

    @cached_property
    def braiding_exps(self) -> tuple[tuple[int, ...], ...]:
        """The exponent of q in chi_j(g_i), row i and column j; computed once."""
        d, chis = self.order, self.character_exps
        rows = []
        for vec in self.elements:
            support = [(t, e) for t, e in enumerate(vec) if e]
            rows.append(tuple(sum(chi[t] * e for t, e in support) % d for chi in chis))
        return tuple(rows)

    def entry_exp(self, i: int, j: int) -> int:
        """The exponent of q in chi_j(g_i)."""
        return self.braiding_exps[i][j]

    def braiding_matrix(self) -> BraidingMatrix:
        n = len(self.braiding_exps)
        return BraidingMatrix(self.order, self.braiding_exps, ((0,) * n,) * n)

    def verify_datum(
        self, source: Optional[BraidingMatrix] = None
    ) -> tuple[str, ...]:
        """Failure messages for the realization identities, empty if fine.

        With a source matrix, chi_j(g_i) must equal its entry (i, j).  A
        source of another size or root order gets one failure for each
        mismatch, and nothing else is checked.
        """
        failures: list[str] = []
        d, chis = self.order, self.character_exps
        if source is not None:
            n = len(self.elements)
            if source.size != n:
                failures.append(f"matrix size {source.size} != datum size {n}")
            if source.order != d:
                failures.append(
                    f"matrix root order {source.order} != datum root order {d}"
                )
            if failures:
                return tuple(failures)
            for i, row in enumerate(source.exps):
                for j, e_ij in enumerate(row):
                    e, zpow = self.entry_exp(i, j), source._zpow(i, j)
                    if e != e_ij or zpow:
                        failures.append(
                            f"chi_{j + 1}(g_{i + 1}) = q^{e} but the matrix "
                            f"holds {_entry_text(e_ij, zpow)}"
                        )
        if self.diagram is not None:
            a = self.diagram.a
            for i, j in self.linkable:
                for x, y in ((i, j), (j, i)):
                    exponent = 1 - a(x, y)
                    for t in range(len(self.factors)):
                        e = (chis[x][t] * exponent + chis[y][t]) % d
                        if e:
                            failures.append(
                                f"character identity fails for pair "
                                f"({x + 1},{y + 1}) at generator {t + 1}: "
                                f"got q^{e}"
                            )
        return tuple(failures)

    # --------------------------------------------------------------- text

    def to_text(self) -> str:
        lines = [f"root_order {self.order}"]
        lines.append("factors " + " ".join(str(f) for f in self.factors))
        for i, vec in enumerate(self.elements):
            lines.append(f"g {i + 1}: " + " ".join(map(str, vec)))
        # one q-power string per exponent that occurs, never per cell
        qs = {e: f"q^{e}" for e in set().union(*self.character_exps)}
        for j, chi in enumerate(self.character_exps):
            lines.append(f"chi {j + 1}: " + " ".join([qs[e] for e in chi]))
        for i, j in self.linkable:
            flag = 1 if (i, j) in self.linked else 0
            lines.append(f"lambda {i + 1} {j + 1}: {flag}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------ realizations


def _realize(
    inst: BraidingMatrix, diagram: LinkableDynkinDiagram, factor: int
) -> LinkingDatum:
    """The canonical-basis datum of a parameter-free matrix.

    The group is (Z/factor)^s, Z^s for factor 0.  chi_j(e_i) = b_ij, so
    the characters are the grid's columns, the datum's braiding grid is
    the matrix's own and only linking can fail.
    """
    s = inst.size
    datum = LinkingDatum(
        order=inst.order,
        factors=(factor,) * s,
        elements=tuple((0,) * i + (1,) + (0,) * (s - 1 - i) for i in range(s)),
        character_exps=tuple(zip(*inst.exps)),
        linkable=diagram.linkable,
        linked=diagram.linked,
        diagram=diagram,
    )
    # seeds the cached property, which would sum the same grid again
    object.__setattr__(datum, "braiding_exps", inst.exps)
    failures = datum.verify_datum()
    if failures:
        raise LinkConstraintUnsatisfiable("; ".join(failures))
    return datum


def realize_free(
    matrix: BraidingMatrix, diagram: LinkableDynkinDiagram
) -> LinkingDatum:
    """Realize a matrix over Z^s with the canonical basis as the g_i.

    Free parameters are set to 1 first, as by BraidingMatrix.instantiate;
    pass matrix.instantiate(values) to give them other values.  The
    character linking identity is rechecked; failures raise
    LinkConstraintUnsatisfiable.
    """
    return _realize(matrix.instantiate(), diagram, 0)


def realize_mod_p(
    matrix: BraidingMatrix,
    diagram: LinkableDynkinDiagram,
    modulus: int,
) -> LinkingDatum:
    """Realize a matrix over (Z/modulus)^s.

    Free parameters are set to 1 as in realize_free.  Every
    substituted entry must have multiplicative order dividing the
    modulus (OrderNotDividing otherwise), which makes the characters
    well defined on the finite group.  A modulus below 1 raises
    ValueError.
    """
    if modulus < 1:
        raise ValueError(f"modulus {modulus} must be positive")
    inst = matrix.instantiate()
    d = inst.order
    for i, row in enumerate(inst.exps):
        for j, e in enumerate(row):
            o = d // gcd(d, e)
            if modulus % o:
                raise OrderNotDividing(
                    f"entry ({i + 1},{j + 1}) = q^{e} has order "
                    f"{o}, which does not divide {modulus}"
                )
    return _realize(inst, diagram, modulus)


# --------------------------------------------------------------- symmetrizer


def find_symmetrizer(cartan: CartanMatrix) -> tuple[int, ...]:
    """Positive integers d with d_i a_ij = d_j a_ji, minimal per component.

    d_v / d_u = a_uv / a_vu along the breadth-first walk of the plain
    edges, which gives the potentials of the diagram without dotted
    edges.  Raises NotSymmetrizable naming the first pair that fails
    when no such vector exists.  A pair with no positive ratio, a
    one-sided zero a_ij = 0 != a_ji or a_ij a_ji < 0, leaves d at 0,
    and then only those pairs fail.
    """
    n, a = cartan.size, cartan.a
    # only pairs with a nonzero entry can fail, in row-major order
    pairs = sorted({p for i in range(n) for j in cartan.row(i) for p in ((i, j), (j, i))})
    out = [0] * n
    if all(a(i, j) * a(j, i) > 0 for i, j in pairs):
        diagram = LinkableDynkinDiagram(cartan, (), frozenset())
        pot = [Fraction(*p) for p in diagram.potentials]
        for comp in diagram.plain_components():
            scale = lcm(*(pot[v].denominator for v in comp))
            shrink = gcd(*(int(pot[v] * scale) for v in comp))
            for v in comp:
                out[v] = int(pot[v] * scale) // shrink
    for i, j in pairs:
        if out[i] * a(i, j) != out[j] * a(j, i) or a(i, j) * a(j, i) <= 0:
            raise NotSymmetrizable(
                f"no positive d with d_{i + 1} a({i + 1},{j + 1}) = "
                f"d_{j + 1} a({j + 1},{i + 1})"
            )
    return tuple(out)


def double_datum(
    cartan: CartanMatrix,
    symmetrizer: Optional[tuple[int, ...]] = None,
    q_order: int = 5,
) -> LinkingDatum:
    """Two linked copies of a symmetrizable Cartan matrix over Z^N.

    Vertices N+1..2N mirror 1..N, each pair {i, N+i} is linked, the
    group is Z^N with g_i = g_(N+i) = e_i, and chi_j(e_t) = q^(d_t a_tj)
    with the mirrored characters inverted.  This induces the braiding
    matrix behind the standard quantized enveloping algebras.
    """
    n = cartan.size
    if symmetrizer is None:
        symmetrizer = find_symmetrizer(cartan)
    else:
        if len(symmetrizer) != n or any(d <= 0 for d in symmetrizer):
            raise NotSymmetrizable("symmetrizer must be positive of full length")
        for i in range(n):
            for j in range(n):
                if i != j and symmetrizer[i] * cartan.a(i, j) != symmetrizer[j] * cartan.a(j, i):
                    raise NotSymmetrizable(
                        f"d_{i + 1} a({i + 1},{j + 1}) != d_{j + 1} a({j + 1},{i + 1})"
                    )
    for d_i in symmetrizer:
        if (2 * d_i) % q_order == 0:
            raise InadmissibleD(
                f"q of order {q_order} makes a diagonal entry q^{2 * d_i} "
                f"collapse to 1"
            )

    rows = [cartan.row(i) for i in range(n)]
    double_cartan = CartanMatrix(tuple(rows + [{n + j: x for j, x in r.items()} for r in rows]))
    pairs = tuple((i, n + i) for i in range(n))
    diagram = LinkableDynkinDiagram(
        double_cartan, pairs, frozenset(pairs), mode="finite"
    )

    characters = tuple(
        tuple(
            (1 if j < n else -1) * symmetrizer[t] * cartan.a(t, j % n) % q_order
            for t in range(n)
        )
        for j in range(2 * n)
    )
    elements = tuple(
        tuple(1 if t == i % n else 0 for t in range(n)) for i in range(2 * n)
    )
    return LinkingDatum(
        order=q_order,
        factors=(0,) * n,
        elements=elements,
        character_exps=characters,
        linkable=pairs,
        linked=frozenset(pairs),
        diagram=diagram,
    )


# ---------------------------------------------------- (Z/p)^2 for rank four


_P_LIMIT = 100_000  # largest prime a4 solves: time and the table grow as p


def _require_rank4_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise NotPrime(f"{p} is not a prime of at least 5")


def _sqrt_table(p: int) -> list[int]:
    """One square root r of each residue mod p, -1 for non-squares.

    The other root is p - r.  p is refused above _P_LIMIT, before the
    primality test and before the p-entry table is built.
    """
    if p > _P_LIMIT:
        raise ScaleExceeded(f"p = {p} exceeds the rank-four limit {_P_LIMIT}")
    _require_rank4_prime(p)
    table = [-1] * p
    for x in range(p // 2 + 1):
        table[x * x % p] = x
    return table


def _inverses(p: int) -> list[int]:
    """x^-1 modulo the prime p for x = 1 .. p - 1, at index x; 0 at 0.

    p = (p // x) x + p % x gives x^-1 = -(p // x) (p % x)^-1, and
    p % x < x, so one pass from 2 up fills the table in O(p).
    """
    inv = [0, 1] + [0] * (p - 2)
    for x in range(2, p):
        inv[x] = -(p // x) * inv[p % x] % p
    return inv


def _quad(
    a: int, b: int, c: int, p: int, table: list[int], inv: list[int]
) -> tuple[int, ...]:
    """The roots of a x^2 + b x + c modulo p, ascending.

    table is _sqrt_table(p) and inv is _inverses(p).
    """
    a, b, c = a % p, b % p, c % p
    if a == 0:
        if b == 0:
            return tuple(range(p)) if c == 0 else ()
        return (-c * inv[b] % p,)
    r = table[(b * b - 4 * a * c) % p]
    if r < 0:
        return ()
    half = inv[2 * a % p]
    return tuple(sorted({(-b + r) * half % p, (-b - r) * half % p}))


def magic_pairs(
    p: int, table: Optional[list[int]] = None
) -> tuple[tuple[int, int], ...]:
    """All (n, m) with n^2 - nm + m^2 + m + 1 = 0 modulo p, sorted.

    As a quadratic in m, m^2 + (1 - n) m + n^2 + 1, its discriminant
    is -3n^2 - 2n - 3 and its roots are (n - 1 +- r) / 2 for a square
    root r of that.  table is _sqrt_table(p), built here when not given.
    """
    if table is None:
        table = _sqrt_table(p)
    half = (p + 1) // 2  # 2^-1 modulo the odd prime p
    return tuple(
        (n, m)
        for n in range(p)
        if (r := table[(-3 * n * n - 2 * n - 3) % p]) >= 0
        for m in sorted({(n - 1 + r) * half % p, (n - 1 - r) * half % p})
    )


def count_magic_solutions(p: int) -> int:
    return len(magic_pairs(p))


def _satisfies_system(t: tuple[int, int, int, int], p: int) -> bool:
    n, m, k, l = t
    return (
        (n * n - n * m + m * m + m + 1) % p == 0
        and (k * k - k * l + l * l + 1) % p == 0
        and (k * (m - 2 * n) + l * (n - 2 * m - 1) + 1) % p == 0
    )


def _a4_scan(
    p: int, magic: tuple[tuple[int, int], ...], table: list[int], inv: list[int]
) -> tuple[tuple[int, int, int, int], ...]:
    """All (n, m, k, l) solving the three congruences, by enumeration.

    For each magic pair the coupling line k cm + l cl + 1 = 0 is solved
    for l (for k when cl = 0) and put into the conic k^2 - kl + l^2 + 1
    = 0, which leaves one quadratic with at most two roots.  magic is
    magic_pairs(p), table is _sqrt_table(p) and inv is _inverses(p).
    """
    out = []
    for n, m in magic:
        cm, cl = (m - 2 * n) % p, (n - 2 * m - 1) % p
        if cl:
            # cl^2 times the conic at l = -(1 + k cm) / cl
            over = inv[cl]
            a, b, c = cl * cl + cl * cm + cm * cm, cl + 2 * cm, 1 + cl * cl
            for k in _quad(a, b, c, p, table, inv):
                out.append((n, m, k, -(1 + k * cm) * over % p))
        elif cm:  # with cm = cl = 0 the line reads 1 = 0
            k = -inv[cm] % p
            for l in _quad(1, -k, k * k + 1, p, table, inv):
                out.append((n, m, k, l))
    return tuple(sorted(out))


def _a4_closed_form(
    p: int, magic: tuple[tuple[int, int], ...], table: list[int], inv: list[int]
) -> tuple[tuple[int, int, int, int], ...]:
    """The same solutions through the square-root case formulas.

    Candidates are generated for the three parameter cases (m = 2n,
    n = 2m + 1, and the generic one) over every sign choice, then
    filtered through the congruences, so an ambiguous sign coupling in
    a formula cannot add spurious tuples.  magic is magic_pairs(p),
    table is _sqrt_table(p) and inv is _inverses(p).
    """
    inv2, inv3, inv4 = inv[2], inv[3], inv[4]
    # both roots of -2 and of 5, one root 0 for 5 at p = 5
    roots_m2, roots_5 = (
        {r, -r % p} if (r := table[a % p]) >= 0 else set() for a in (-2, 5)
    )
    cands: set[tuple[int, int, int, int]] = set()

    # -2 is a unit modulo the odd prime p, so no root is 0
    for r2 in roots_m2:
        ir2 = inv[r2]
        # m = 2n
        for n in ((-1 + r2) * inv3 % p, (-1 - r2) * inv3 % p):
            m = 2 * n % p
            for l in (ir2, (-ir2) % p):
                for one in (1, -1):
                    for r5 in roots_5:
                        k = (one + r5) * inv2 * ir2 % p
                        cands.add((n, m, k, l))
        # n = 2m + 1
        for m in ((-2 + r2) * inv3 % p, (-2 - r2) * inv3 % p):
            n = (2 * m + 1) % p
            for k in (ir2, (-ir2) % p):
                for one in (1, -1):
                    for r5 in roots_5:
                        l = (one + r5) * inv2 * ir2 % p
                        cands.add((n, m, k, l))

    # generic case, signs of sqrt(5) coupled oppositely between l and k
    for n, m in magic:
        dm = (m - 2 * n) % p
        dn = (n - 2 * m - 1) % p
        if dm == 0 or dn == 0:
            continue
        for r5 in roots_5:
            l = (-inv2 - 3 * m * inv4 + r5 * dm * inv4) % p
            k = (
                (dn * (3 * m + 2) - 4) * inv[4 * dm % p]
                - r5 * dn * inv4
            ) % p
            cands.add((n, m, k, l))

    return tuple(sorted(t for t in cands if _satisfies_system(t, p)))


class A4Solution(NamedTuple):
    """Both solution routes for the rank-four system over (Z/p)^2."""

    p: int
    tuples: tuple[tuple[int, int, int, int], ...]
    closed_form: tuple[tuple[int, int, int, int], ...]
    routes_agree: bool

    def report(self) -> tuple[bool, tuple[str, ...]]:
        """Realizability and the report lines of a4_realizable_zp2."""
        p = self.p
        realizable = bool(self.tuples)
        lines = [
            f"solutions over (Z/{p})^2: {len(self.tuples)}",
            f"closed-form route: {len(self.closed_form)} tuples "
            f"({'agrees with the scan' if self.routes_agree else 'DISAGREES with the scan'})",
        ]
        if p == 5:
            lines.append("5 is 0 modulo 5, trivially a square")
        else:
            square = pow(5, (p - 1) // 2, p) == 1
            lines.append(
                f"5 is a {'square' if square else 'non-square'} modulo {p} "
                f"(Euler criterion)"
            )
        shortcut = p == 5 or p % 10 in (1, 3)
        lines.append(
            f"residue shortcut (p = 5 or p mod 10 in {{1, 3}}) predicts "
            f"{'realizable' if shortcut else 'not realizable'}"
        )
        if shortcut != realizable:
            lines.append(
                f"shortcut and scan disagree for p = {p}; values above are "
                f"from the scan"
            )
        return realizable, tuple(lines)


def a4_solve_zp2(p: int) -> A4Solution:
    """Both routes, sharing one square-root table, one inverse table and
    magic_pairs(p)."""
    table = _sqrt_table(p)
    inv = _inverses(p)
    magic = magic_pairs(p, table)
    scan = _a4_scan(p, magic, table, inv)
    closed = _a4_closed_form(p, magic, table, inv)
    return A4Solution(p, scan, closed, scan == closed)


def a4_realizable_zp2(p: int) -> tuple[bool, tuple[str, ...]]:
    """Whether the rank-four chain admits a realization over (Z/p)^2.

    The scan, which lists every solution, decides; the report compares
    it with the square-root criterion and with the residue-class
    shortcut, flagging primes where the shortcut and the scan differ.
    """
    return a4_solve_zp2(p).report()


def max_diagram_note_zp2(p: int) -> str:
    """Stated size bound for finite diagrams realizable over (Z/p)^2.

    This repeats a classification bound; nothing here recomputes it.
    """
    _require_rank4_prime(p)
    if p == 5:
        return (
            "largest finite diagram over (Z/5)^2: four vertices, except "
            "A_4 x A_1 (stated classification bound, not recomputed)"
        )
    return (
        f"largest finite diagram over (Z/{p})^2: four vertices "
        f"(stated classification bound, not recomputed)"
    )


__all__ = [
    "LinkingDatum",
    "realize_free",
    "realize_mod_p",
    "find_symmetrizer",
    "double_datum",
    "magic_pairs",
    "count_magic_solutions",
    "a4_solve_zp2",
    "A4Solution",
    "a4_realizable_zp2",
    "max_diagram_note_zp2",
]
