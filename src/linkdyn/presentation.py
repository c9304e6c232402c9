"""Exact q-arithmetic and emission of the linked Hopf algebra presentation.

The coefficient ring is Z[q^(+-1), symbols]: sparse Laurent polynomials
with integer coefficients in q and optional named symbols.  A value may
instead pin q to a primitive d-th root of unity, in which case elements
live in Z[zeta_d] (tensored with the symbols): exponents are kept modulo
d, and a value is zero when every symbol group's polynomial p in q is
divisible by the d-th cyclotomic polynomial Phi_d.  Since
x^d - 1 = Phi_d * Psi_d is squarefree, that holds exactly when
p * Psi_d vanishes modulo x^d - 1, and the cofactor Psi_d is sparse, so
the test never reduces a dense vector.

The presentation needs none of that.  Each Serre coefficient is a
q-binomial [n choose k]_{q_i} times a power of q, n = 1 - a_ij: its
terms are an integer Gaussian-binomial row with shifted exponents, and
whether it vanishes is the q-Lucas rule on k, n and the order of q_i.
So the cost of a presentation does not grow with the root order, and
its text and machine forms are each rendered only when asked for.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from math import gcd
from typing import Optional

from .diagram import CartanMatrix
from .errors import IndexOutOfRange
from .fields import divisors
from .realization import LinkingDatum

Sym = tuple[tuple[str, int], ...]
Key = tuple[int, Sym]
Terms = tuple[tuple[Key, int], ...]


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _binomial_product(factors: list[tuple[int, int]]) -> list[int]:
    """Ascending coefficients of prod (x^e - 1)^k over (e, k), k = +-1.

    Multiplying by x^e - 1 and dividing by it exactly are each one
    O(degree) pass; the divisions come last and must be exact.
    """
    poly = [1]
    for e, k in sorted(factors, key=lambda f: -f[1]):
        if k > 0:
            # coefficient i of p * (x^e - 1) is p[i - e] - p[i]
            poly = [0] * e + poly
            for i in range(len(poly) - e):
                poly[i] -= poly[i + e]
        else:
            # q with q * (x^e - 1) = p: q[i] = q[i - e] - p[i], bottom up
            quot = [-c for c in poly[: len(poly) - e]]
            for i in range(e, len(quot)):
                quot[i] += quot[i - e]
            # the top e coefficients of p are q[i - e] and must agree
            top = [quot[i - e] if i >= e else 0 for i in range(len(quot), len(poly))]
            if top != poly[len(quot) :]:
                raise ArithmeticError("polynomial division was not exact")
            poly = quot
    return poly


_PHI_CACHE: dict[int, tuple[int, ...]] = {}
_PSI_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}


def _phi_powers(d: int) -> list[tuple[int, int]]:
    # Phi_d = prod over e | d of (x^e - 1)^mu(d/e)
    return [(e, m) for e in divisors(d) if (m := _mobius(d // e))]


def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, ascending.

    Built from Phi_d = prod_{e | d} (x^e - 1)^mu(d/e).  d must be at
    least 1; a smaller d raises ValueError.
    """
    if d < 1:
        raise ValueError(f"cyclotomic polynomials are indexed from 1, got {d}")
    if d not in _PHI_CACHE:
        _PHI_CACHE[d] = tuple(_binomial_product(_phi_powers(d)))
    return _PHI_CACHE[d]


def _cofactor(d: int) -> tuple[tuple[int, int], ...]:
    """Nonzero terms (exponent, coefficient) of Psi_d = (x^d - 1) / Phi_d.

    Psi_d = prod_{e | d, e < d} (x^e - 1)^-mu(d/e).
    """
    if d not in _PSI_CACHE:
        quotient = _binomial_product([(e, -m) for e, m in _phi_powers(d) if e < d])
        _PSI_CACHE[d] = tuple((e, c) for e, c in enumerate(quotient) if c)
    return _PSI_CACHE[d]


def _vanishes_at_root(group: list[tuple[int, int]], d: int) -> bool:
    # p = sum c q^e is 0 mod Phi_d iff p * Psi_d is 0 mod x^d - 1
    psi = _cofactor(d)
    prod: dict[int, int] = {}
    for e, c in group:
        for f, k in psi:
            key = (e + f) % d
            prod[key] = prod.get(key, 0) + c * k
    return not any(prod.values())


def _merge_sym(a: Sym, b: Sym) -> Sym:
    acc = dict(a)
    for name, k in b:
        acc[name] = acc.get(name, 0) + k
    return tuple(sorted((n, k) for n, k in acc.items() if k))


def _signed_sum(pieces: Iterable[tuple[int, str]]) -> str:
    # [(sign, body), ...] as "body - body + body", "0" when there is none
    out: list[str] = []
    for sign, body in pieces:
        if out:
            out.append(" + " if sign > 0 else " - ")
        elif sign < 0:
            out.append("-")
        out.append(body)
    return "".join(out) if out else "0"


def _render(terms: Terms, sign: int = 1) -> str:
    # sign * (sum of c q^e sym) as "-2*q^3 + z1 - q"
    def magnitude(e: int, sym: Sym, c: int) -> str:
        mags = [str(abs(c))] if abs(c) != 1 or (e == 0 and not sym) else []
        if e:
            mags.append("q" if e == 1 else f"q^{e}")
        mags.extend(name if k == 1 else f"{name}^{k}" for name, k in sym)
        return "*".join(mags)

    return _signed_sum((sign * c, magnitude(e, sym, c)) for (e, sym), c in terms)


@dataclass(frozen=True, eq=False)
class QValue:
    """One exact coefficient: Laurent polynomial in q and named symbols.

    root_order 0 keeps q as a free indeterminate; a positive root_order
    d treats q as a primitive d-th root of unity.  Exponents are then
    kept modulo d and terms are never reduced, so monomials stay
    readable.  Zero tests (hence equality) stay exact: each symbol
    group's polynomial p in q is zero when p times the cofactor
    Psi_d = (x^d - 1) / Phi_d vanishes modulo x^d - 1, and a group with
    a single term, a unit times q^e, never is.
    """

    root_order: int
    terms: Terms

    @staticmethod
    def _make(root_order: int, data: dict[Key, int]) -> "QValue":
        if root_order:
            folded: dict[Key, int] = {}
            for (e, sym), c in data.items():
                key = (e % root_order, sym)
                folded[key] = folded.get(key, 0) + c
            data = folded
        items = [(k, c) for k, c in data.items() if c]
        items.sort(key=lambda kv: (kv[0][1], kv[0][0]))
        return QValue(root_order, tuple(items))

    # ------------------------------------------------------- constructors

    @classmethod
    def zero(cls, root_order: int = 0) -> "QValue":
        return cls._make(root_order, {})

    @classmethod
    def one(cls, root_order: int = 0) -> "QValue":
        return cls._make(root_order, {(0, ()): 1})

    @classmethod
    def integer(cls, n: int) -> "QValue":
        return cls._make(0, {(0, ()): n})

    @classmethod
    def q(cls, root_order: int = 0) -> "QValue":
        return cls._make(root_order, {(1, ()): 1})

    @classmethod
    def symbol(cls, name: str) -> "QValue":
        return cls._make(0, {(0, ((name, 1),)): 1})

    # --------------------------------------------------------- predicates

    @property
    def is_zero(self) -> bool:
        if not self.terms:
            return True
        if not self.root_order:
            return False
        by_sym: dict[Sym, list[tuple[int, int]]] = {}
        for (e, sym), c in self.terms:
            by_sym.setdefault(sym, []).append((e, c))
        return all(
            len(group) > 1 and _vanishes_at_root(group, self.root_order)
            for group in by_sym.values()
        )

    @property
    def is_one(self) -> bool:
        return (self - 1).is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QValue, int)):
            return NotImplemented
        try:
            return (self - self._coerce(other)).is_zero
        except ValueError:
            return False

    __hash__ = None  # type: ignore[assignment]  # values compare modulo Phi_d

    def _constant_like(self) -> bool:
        return all(e == 0 for (e, _sym), _c in self.terms)

    # --------------------------------------------------------- arithmetic

    @staticmethod
    def _coerce(other: "QValue | int") -> "QValue":
        if isinstance(other, int):
            return QValue.integer(other)
        if isinstance(other, QValue):
            return other
        raise TypeError(f"cannot mix QValue with {type(other).__name__}")

    @staticmethod
    def _align(a: "QValue", b: "QValue") -> tuple["QValue", "QValue"]:
        if a.root_order == b.root_order:
            return a, b
        if a._constant_like():
            return QValue._make(b.root_order, dict(a.terms)), b
        if b._constant_like():
            return a, QValue._make(a.root_order, dict(b.terms))
        raise ValueError("cannot mix q values of different root orders")

    def __add__(self, other: "QValue | int") -> "QValue":
        a, b = self._align(self, self._coerce(other))
        data = dict(a.terms)
        for k, c in b.terms:
            data[k] = data.get(k, 0) + c
        return QValue._make(a.root_order, data)

    __radd__ = __add__

    def __neg__(self) -> "QValue":
        return QValue._make(self.root_order, {k: -c for k, c in self.terms})

    def __sub__(self, other: "QValue | int") -> "QValue":
        return self + (-self._coerce(other))

    def __mul__(self, other: "QValue | int") -> "QValue":
        a, b = self._align(self, self._coerce(other))
        data: dict[Key, int] = {}
        for (e1, s1), c1 in a.terms:
            for (e2, s2), c2 in b.terms:
                key = (e1 + e2, _merge_sym(s1, s2))
                data[key] = data.get(key, 0) + c1 * c2
        return QValue._make(a.root_order, data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QValue":
        if k == 0:
            return QValue.one(self.root_order)
        if k < 0:
            if len(self.terms) != 1 or abs(self.terms[0][1]) != 1:
                raise ValueError("only monomials with unit coefficient invert")
            (e, sym), c = self.terms[0]
            inv = QValue._make(
                self.root_order, {(-e, tuple((n, -p) for n, p in sym)): c}
            )
            return inv ** (-k)
        acc = QValue.one(self.root_order)
        for _ in range(k):
            acc = acc * self
        return acc

    # ---------------------------------------------------------- rendering

    def render(self) -> str:
        return "0" if self.is_zero else _render(self.terms)

    def __str__(self) -> str:
        return self.render()


# ------------------------------------------------------------ q-arithmetic


def qbinomial(n: int, i: int, q: QValue) -> QValue:
    """q-binomial bracket by the Pascal recurrence, no division."""
    if n < 0 or i < 0 or i > n:
        raise IndexOutOfRange(f"q-binomial needs 0 <= i <= n, got ({n}, {i})")
    return _qbinomial_row(n, q)[i]


@cache
def _gaussian_row(n: int) -> tuple[tuple[int, ...], ...]:
    """[n choose k]_x for k = 0 .. n, each by its ascending coefficients.

    Integer polynomials from the Pascal recurrence
    [m + 1 choose k] = x^k [m choose k] + [m choose k - 1], built on
    first use.
    """
    row: tuple[tuple[int, ...], ...] = ((1,),)
    for m in range(n):
        nxt = []
        for k in range(m + 2):
            coeffs = [0] * (k * (m + 1 - k) + 1)
            if k <= m:
                for t, c in enumerate(row[k]):
                    coeffs[t + k] += c
            if k:
                for t, c in enumerate(row[k - 1]):
                    coeffs[t] += c
            nxt.append(tuple(coeffs))
        row = tuple(nxt)
    return row


def _qbinomial_row(n: int, q: QValue) -> list[QValue]:
    # [n choose k]_q for k = 0 .. n: the integer rows at x = q, by Horner
    out = []
    for coeffs in _gaussian_row(n):
        acc = QValue.zero(q.root_order)
        for c in reversed(coeffs):
            acc = acc * q + c
        out.append(acc)
    return out


def _bracket_vanishes(n: int, k: int, order: int) -> bool:
    """Whether [n choose k] is 0 at a primitive root of unity of the order.

    The q-Lucas theorem (Olive 1965; Desarmenien 1982): at a primitive
    N-th root w, [n choose k]_w = C(n // N, k // N) [n % N choose k % N]_w,
    so it vanishes exactly when N > 1 and k % N > n % N.
    """
    return order > 1 and k % order > n % order


def _serre_slots(n: int, e_ii: int, e_ij: int, d: int) -> tuple[Optional[Terms], ...]:
    """The terms of c_0 .. c_n at q a primitive d-th root, None for a zero.

    c_k = (-1)^k [n choose k]_{q_i} q_i^(k(k-1)/2) b_ij^k with q_i = q^e_ii
    and b_ij = q^e_ij: the exponent t of the integer row moves to
    e_ii t + e_ii k(k-1)/2 + k e_ij, folded mod d.  The terms are in
    QValue's form: exponents ascending in 0 .. d - 1, no zero coefficient.
    """
    order = d // gcd(d, e_ii)  # the order of q_i
    slots: list[Optional[Terms]] = []
    for k, coeffs in enumerate(_gaussian_row(n)):
        if _bracket_vanishes(n, k, order):
            slots.append(None)
            continue
        sign = -1 if k % 2 else 1
        shift = e_ii * (k * (k - 1) // 2) + k * e_ij
        folded: dict[int, int] = {}
        for t, c in enumerate(coeffs):
            e = (e_ii * t + shift) % d
            folded[e] = folded.get(e, 0) + sign * c
        slots.append(tuple(((e, ()), c) for e, c in sorted(folded.items()) if c))
    return tuple(slots)


def check_identity(which: int, n: int, i: int, q: QValue) -> bool:
    """Exact check of one of the three bracket identities.

    which = 1 needs 1 <= i <= n and tests both stated equalities; for
    which in {2, 3} the argument i is ignored and n >= 1 is required.
    """
    if which == 1:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"identity 1 needs 1 <= i <= n, got ({n}, {i})")
        rhs = qbinomial(n + 1, i, q)
        lhs1 = q**i * qbinomial(n, i, q) + qbinomial(n, i - 1, q)
        lhs2 = qbinomial(n, i, q) + q ** (n + 1 - i) * qbinomial(n, i - 1, q)
        return (lhs1 - rhs).is_zero and (lhs2 - rhs).is_zero
    if which == 2:
        if n < 1:
            raise IndexOutOfRange(f"identity 2 needs n >= 1, got {n}")
        acc = QValue.zero(q.root_order)
        for t in range(n + 1):
            term = q ** (t * (t - 1) // 2) * qbinomial(n, t, q)
            acc = acc + (-term if t % 2 else term)
        return acc.is_zero
    if which == 3:
        if n < 1:
            raise IndexOutOfRange(f"identity 3 needs n >= 1, got {n}")
        acc = QValue.zero(q.root_order)
        for t in range(n + 1):
            term = q ** ((t * t + t) // 2 - n * t) * qbinomial(n, t, q)
            acc = acc + (-term if t % 2 else term)
        return acc.is_zero
    raise ValueError(f"no identity numbered {which}")


def serre_coefficients(a_ij: int, q_i: QValue, b_ij: QValue) -> list[QValue]:
    """Coefficients c_k of a_i^(1-a_ij-k) a_j a_i^k in the crossed power.

    c_k = (-1)^k [1-a_ij choose k]_{q_i} q_i^(k(k-1)/2) b_ij^k for
    k = 0 .. 1-a_ij, so the list always has 2 - a_ij entries.
    """
    if a_ij > 0:
        raise ValueError("off-diagonal Cartan entries are nonpositive")
    out = []
    for k, c in enumerate(_qbinomial_row(1 - a_ij, q_i)):
        c = c * q_i ** (k * (k - 1) // 2) * b_ij**k
        out.append(-c if k % 2 else c)
    return out


# ------------------------------------------------------------ presentation


@dataclass(frozen=True)
class HopfPresentation:
    """Generators, relations, and coproduct of the linked algebra.

    Rendered from its linking datum on demand: rows builds one format a
    row of relations at a time, and to_text and to_machine join the
    rows.  Two presentations are equal when their data and Cartan
    matrices are, the whole input of the rendering.
    """

    datum: LinkingDatum
    cartan: CartanMatrix = field(init=False)

    def __post_init__(self) -> None:
        if self.datum.diagram is None:
            raise ValueError("datum carries no diagram; cannot expand relations")
        object.__setattr__(self, "cartan", self.datum.diagram.cartan)

    def rows(self, machine: bool = False) -> Iterator[str]:
        """The document of one format, text or machine, a row at a time.

        Each piece is one or more whole lines, each ending in a newline:
        the header, the group powers, the commutators of each h_t, the
        mixed relations of each h_t, the Serre relations of each vertex i
        with the vertices after it, then the coproduct.  A row is filled
        from tables built once per document (the number strings, the
        q-power strings of the exponents that occur and one left-side
        template per Serre key), so each line is a few concatenations or
        one str.join.  to_text and to_machine join the pieces; the CLI
        writes them as they come, so no whole document is held.
        """
        datum = self.datum
        factors, elements, chis = datum.factors, datum.elements, datum.character_exps
        s, n = len(factors), len(elements)
        num = [str(v) for v in range(1, max(s, n) + 1)]
        h = ["h_" + x for x in num[:s]]
        a = ["a_" + x for x in num[:n]]
        # only the exponents that occur, never range(order): the order may
        # be 2^46 - 1
        qs = {e: f"q^{e}" for e in set().union(*chis)}
        if machine:
            yield f"generators {s} {n}\n"
            heads = ("",) * 3
        else:
            yield "generators: " + " ".join(h + a) + "\n"
            heads = ("group relations:\n", "mixed relations:\n", "serre relations:\n")
        blocks = (
            self._group_rows(machine, num, h),
            self._mixed_rows(machine, num, h, a, qs),
            self._serre_rows(machine, num),
        )
        for head, block in zip(heads, blocks):
            for piece in block:  # an empty block has no heading
                yield head + piece
                head = ""
        yield self._coproduct(machine, num, h, a)

    def to_text(self) -> str:
        return "".join(self.rows())

    def to_machine(self) -> str:
        return "".join(self.rows(machine=True))

    # ------------------------------------------------------------- rows

    def _group_rows(self, machine: bool, num: list[str], h: list[str]) -> Iterator[str]:
        # the powers of the finite factors, then the commutators of each h_t
        # with the later generators: each row one join over a table
        factors = self.datum.factors
        powers = [(num[t], f) for t, f in enumerate(factors) if f]
        if powers:
            yield "".join(
                f"group power {x} {f}\n" if machine else f"  h_{x}^{f} = 1\n"
                for x, f in powers
            )
        s = len(factors)
        if machine:
            for t in range(s - 1):
                pre = f"group comm {num[t]} "
                yield pre + ("\n" + pre).join(num[t + 1 : s]) + "\n"
        else:
            # each line is "  h_t " + "h_u = h_u" + " h_t"
            swapped = [f"{x} = {x}" for x in h]
            for t in range(s - 1):
                pre, post = f"  {h[t]} ", f" {h[t]}\n"
                yield pre + (post + pre).join(swapped[t + 1 :]) + post

    def _mixed_rows(
        self, machine: bool, num: list[str], h: list[str], a: list[str], qs: dict[int, str]
    ) -> Iterator[str]:
        # h_t a_j = chi_j(h_t) a_j h_t for every j, one row per t
        cols = zip(*self.datum.character_exps)  # one column at a time: s x n in all
        if machine:
            coeff = {e: f" | coeff: {q if e else 1}\n" for e, q in qs.items()}
            for t, col in enumerate(cols):
                pre = f"mixed {num[t]} "
                yield "".join([pre + x + coeff[e] for x, e in zip(num, col)])
        else:
            scalar = {e: q + " " if e else "" for e, q in qs.items()}
            equals = [x + " = " for x in a]
            for t, col in enumerate(cols):
                pre, post = f"  {h[t]} ", f" {h[t]}\n"
                lines = [eq + scalar[e] + x for eq, x, e in zip(equals, a, col)]
                yield pre + (post + pre).join(lines) + post

    def _serre_rows(self, machine: bool, num: list[str]) -> Iterator[str]:
        """The crossed-power relations of each vertex i with every j > i.

        A left side has 2 - a_ij coefficient slots; a zero slot is
        dropped from the text form and written as 0 in the machine form.
        Apart from the vertex numbers a relation depends on
        (a_ij, b_ii, b_ij) and on whether the pair is linked, so each
        distinct triple's left side is rendered once, as a template with
        "{i}" and "{j}" for the vertex numbers.  A row fills in i once
        per template and splits it at "{j}", so each relation is one
        str.join; the plain neighbours and the linked partner of i, the
        only pairs with a_ij != 0 or a deformed right side, are
        rendered after.
        """
        datum = self.datum
        d, grid, factors, elements = datum.order, datum.braiding_exps, datum.factors, datum.elements
        cartan, s = self.cartan, len(factors)
        lefts: dict[tuple[int, int, int], str] = {}
        partners: dict[int, list[int]] = {}
        for i, j in datum.linked:
            if i < j:
                partners.setdefault(i, []).append(j)
        unlinked = "lambda=0" if machine else "0"

        def split(here: str, key: tuple[int, int, int], rhs: str) -> list[str]:
            # one relation of vertex number `here`, cut where j goes
            left = lefts.get(key)
            if left is None:
                slots = _serre_slots(1 - key[0], key[1], key[2], d)
                left = lefts[key] = _serre_left(slots, machine)
            line = (
                f"serre {here} {{j}} | coeffs: {left} | rhs: {rhs}\n"
                if machine
                else f"  {left} = {rhs}\n"
            )
            return line.replace("{i}", here).split("{j}")

        for i, row in enumerate(grid[:-1]):
            e_ii, here, later = row[i], num[i], row[i + 1 :]
            plain = {e: split(here, (0, e_ii, e), unlinked) for e in set(later)}
            lines = [x.join(plain[e]) for x, e in zip(num[i + 1 :], later)]
            arow, linked = cartan.row(i), partners.get(i, ())
            for j in sorted({j for j in arow if j > i}.union(linked)):
                a_ij, rhs = arow.get(j, 0), unlinked
                if j in linked:
                    g_i, g_j = elements[i], elements[j]
                    gw = _group_word(
                        tuple((1 - a_ij) * g_i[t] + g_j[t] for t in range(s)), factors
                    )
                    if machine:
                        rhs = f"lambda=1 g={gw}"
                    elif gw != "1":
                        rhs = f"1 - {gw}"
                lines[j - i - 1] = num[j].join(split(here, (a_ij, e_ii, row[j]), rhs))
            yield "".join(lines)

    def _coproduct(self, machine: bool, num: list[str], h: list[str], a: list[str]) -> str:
        # the whole block, its heading first in the text form
        factors = self.datum.factors
        words = [_group_word(vec, factors) for vec in self.datum.elements]
        if machine:
            return "".join(f"coproduct h {x}\n" for x in num[: len(h)]) + "".join(
                f"coproduct a {x} | g={gw}\n" for x, gw in zip(num, words)
            )
        return (
            "coproduct:\n"
            + "".join(f"  delta({x}) = {x} (x) {x}\n" for x in h)
            + "".join(f"  delta({x}) = {x} (x) 1 + {gw} (x) {x}\n" for x, gw in zip(a, words))
        )


def _group_word(exps: tuple[int, ...], factors: tuple[int, ...]) -> str:
    parts = []
    for t in compress(range(len(exps)), exps):  # the nonzero exponents only
        e = exps[t] % factors[t] if factors[t] else exps[t]
        if e:
            parts.append(f"h_{t + 1}" if e == 1 else f"h_{t + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _serre_left(slots: tuple[Optional[Terms], ...], machine: bool) -> str:
    """One format's left side of a Serre relation, "{i}" and "{j}" for a_i, a_j.

    The k-th slot multiplies the word a_i^(top - k) a_j a_i^k, where
    top + 1 is the slot count.  The machine form lists every slot, 0 for
    a zero, then the words; the text form drops zero slots, pulls each
    leading sign out and parenthesizes sums.
    """
    top = len(slots) - 1
    sep = "*" if machine else " "
    powers = ["", "a_{i}"] + [f"a_{{i}}^{p}" for p in range(2, top + 1)]
    words = [
        sep.join(w for w in (powers[top - k], "a_{j}", powers[k]) if w)
        for k in range(top + 1)
    ]
    if machine:
        coeffs = " ; ".join("0" if c is None else _render(c) for c in slots)
        return f"{coeffs} | words: {' , '.join(words)}"
    pieces = []
    for word, c in zip(words, slots):
        if c is not None:
            sign = -1 if c[0][1] < 0 else 1
            body = _render(c, sign) if len(c) == 1 else f"({_render(c, sign)})"
            pieces.append((sign, word if body == "1" else f"{body} {word}"))
    return _signed_sum(pieces)


def emit_presentation(datum: LinkingDatum) -> HopfPresentation:
    """Full presentation of the algebra attached to a linking datum.

    Group relations come from the invariant factors, mixed relations
    carry the exact character coefficients, and each vertex pair i < j
    contributes one crossed-power relation whose left side has 2 - a_ij
    coefficient slots (zero coefficients are dropped from the text form
    but kept in the machine form).  The slots depend only on
    (a_ij, b_ii, b_ij): each distinct triple is built from integer
    Gaussian-binomial rows, zero-tested by the q-Lucas rule and rendered
    at most once per format.  Nothing is rendered here: rows, to_text
    and to_machine each render their own format when called.
    """
    return HopfPresentation(datum)


__all__ = [
    "QValue",
    "cyclotomic_polynomial",
    "qbinomial",
    "check_identity",
    "serre_coefficients",
    "HopfPresentation",
    "emit_presentation",
]
