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

    Rendered from its linking datum on demand: lines builds the lines
    of one format as they are read, and to_text and to_machine join
    them.  Two presentations are equal when their data and Cartan
    matrices are, the whole input of the rendering.
    """

    datum: LinkingDatum
    cartan: CartanMatrix = field(init=False)

    def __post_init__(self) -> None:
        if self.datum.diagram is None:
            raise ValueError("datum carries no diagram; cannot expand relations")
        object.__setattr__(self, "cartan", self.datum.diagram.cartan)

    def lines(self, machine: bool = False) -> Iterator[str]:
        """The lines of one format, text or machine, each built as it is read.

        to_text and to_machine join them into one document; the CLI
        writes them a chunk at a time, so no whole document is held.
        """
        s, n = len(self.datum.factors), len(self.datum.elements)
        if machine:
            yield f"generators {s} {n}"
        else:
            h = [f"h_{t + 1}" for t in range(s)]
            yield "generators: " + " ".join(h + [f"a_{i + 1}" for i in range(n)])
        indent = "" if machine else "  "
        blocks = (
            ("group", self._group(machine)),
            ("mixed", self._mixed(machine)),
            ("serre", self._serre(machine)),
        )
        for kind, block in blocks:
            for t, line in enumerate(block):
                if not (t or machine):
                    yield f"{kind} relations:"  # an empty block has no heading
                yield indent + line
        if not machine:
            yield "coproduct:"
        for line in self._coproduct(machine):
            yield indent + line

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def to_machine(self) -> str:
        return "\n".join(self.lines(machine=True)) + "\n"

    # ---------------------------------------------------------- builders

    def _group(self, machine: bool) -> Iterator[str]:
        factors = self.datum.factors
        for t, f in enumerate(factors):
            if f:
                yield f"group power {t + 1} {f}" if machine else f"h_{t + 1}^{f} = 1"
        for t in range(len(factors)):
            for u in range(t + 1, len(factors)):
                yield (
                    f"group comm {t + 1} {u + 1}"
                    if machine
                    else f"h_{t + 1} h_{u + 1} = h_{u + 1} h_{t + 1}"
                )

    def _mixed(self, machine: bool) -> Iterator[str]:
        chis = self.datum.character_exps
        for t in range(len(self.datum.factors)):
            for j, chi in enumerate(chis):
                c = f"q^{chi[t]}" if chi[t] else "1"
                if machine:
                    yield f"mixed {t + 1} {j + 1} | coeff: {c}"
                elif chi[t]:
                    yield f"h_{t + 1} a_{j + 1} = {c} a_{j + 1} h_{t + 1}"
                else:
                    yield f"h_{t + 1} a_{j + 1} = a_{j + 1} h_{t + 1}"

    def _serre(self, machine: bool) -> Iterator[str]:
        """One crossed-power relation per vertex pair i < j.

        Its left side has 2 - a_ij coefficient slots; a zero slot is
        dropped from the text form and written as 0 in the machine form.
        Apart from the vertex numbers the left side depends on
        (a_ij, b_ii, b_ij) only, so each distinct triple is rendered
        once, as a template with "{i}" and "{j}" for the vertex numbers,
        and each relation formats its template.
        """
        datum = self.datum
        d, grid, factors = datum.order, datum.braiding_exps, datum.factors
        cartan, elements = self.cartan, datum.elements
        lefts: dict[tuple[int, int, int], str] = {}
        for i, row in enumerate(grid):
            e_ii, a_row = row[i], cartan.dense_row(i)
            for j in range(i + 1, len(grid)):
                a = a_row[j]
                top = 1 - a
                key = (a, e_ii, row[j])
                template = lefts.get(key)
                if template is None:
                    slots = _serre_slots(top, e_ii, row[j], d)
                    template = lefts[key] = _serre_left(slots, machine)
                left = template.format(i=i + 1, j=j + 1)
                gw = None
                if (i, j) in datum.linked:
                    g_i, g_j = elements[i], elements[j]
                    gw = _group_word(
                        tuple(top * g_i[t] + g_j[t] for t in range(len(factors))),
                        factors,
                    )
                if machine:
                    rhs = f"lambda=1 g={gw}" if gw else "lambda=0"
                    yield f"serre {i + 1} {j + 1} | coeffs: {left} | rhs: {rhs}"
                else:
                    rhs = "0" if gw in (None, "1") else f"1 - {gw}"
                    yield f"{left} = {rhs}"

    def _coproduct(self, machine: bool) -> Iterator[str]:
        factors = self.datum.factors
        for t in range(len(factors)):
            h = t + 1
            yield f"coproduct h {h}" if machine else f"delta(h_{h}) = h_{h} (x) h_{h}"
        for i, vec in enumerate(self.datum.elements):
            gw = _group_word(vec, factors)
            a = i + 1
            yield (
                f"coproduct a {a} | g={gw}"
                if machine
                else f"delta(a_{a}) = a_{a} (x) 1 + {gw} (x) a_{a}"
            )


def _group_word(exps: tuple[int, ...], factors: tuple[int, ...]) -> str:
    parts = []
    for t, e in enumerate(exps):
        if factors[t]:
            e %= factors[t]
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
    at most once per format.  Nothing is rendered here: lines, to_text
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
