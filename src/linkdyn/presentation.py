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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .braiding import RootExpr
from .errors import IndexOutOfRange
from .fields import divisors
from .realization import LinkingDatum

Sym = tuple[tuple[str, int], ...]
Key = tuple[int, Sym]
# one coefficient of a text relation: _split_sign of it, None when zero
_Slot = Optional[tuple[int, str]]


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
    terms: tuple[tuple[Key, int], ...]

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

    @classmethod
    def from_root_expr(cls, value: RootExpr) -> "QValue":
        sym = tuple((f"z{t}", k) for t, k in value.zpow)
        return cls._make(value.order, {(value.exp, sym): 1})

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
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for (e, sym), c in self.terms:
            mags: list[str] = []
            if abs(c) != 1 or (e == 0 and not sym):
                mags.append(str(abs(c)))
            if e:
                mags.append("q" if e == 1 else f"q^{e}")
            for name, k in sym:
                mags.append(name if k == 1 else f"{name}^{k}")
            body = "*".join(mags)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()


# ------------------------------------------------------------ q-arithmetic


def qnumber(n: int, q: QValue) -> QValue:
    """1 + q + ... + q^(n-1)."""
    if n < 0:
        raise IndexOutOfRange(f"q-number needs n >= 0, got {n}")
    acc = QValue.zero(q.root_order)
    for t in range(n):
        acc = acc + q**t
    return acc


def qfactorial(n: int, q: QValue) -> QValue:
    if n < 0:
        raise IndexOutOfRange(f"q-factorial needs n >= 0, got {n}")
    acc = QValue.one(q.root_order)
    for t in range(1, n + 1):
        acc = acc * qnumber(t, q)
    return acc


def qbinomial(n: int, i: int, q: QValue) -> QValue:
    """q-binomial bracket by the Pascal recurrence, no division."""
    if n < 0 or i < 0 or i > n:
        raise IndexOutOfRange(f"q-binomial needs 0 <= i <= n, got ({n}, {i})")
    return _qbinomial_row(n, q)[i]


def _qbinomial_row(n: int, q: QValue) -> list[QValue]:
    # [n choose k]_q for k = 0 .. n, one Pascal row
    row = [QValue.one(q.root_order)]
    for r in range(n):
        new = []
        for c in range(r + 2):
            val = QValue.zero(q.root_order)
            if c <= r:
                val = val + q**c * row[c]
            if c >= 1:
                val = val + row[c - 1]
            new.append(val)
        row = new
    return row


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
    return _crossed(_serre_brackets(a_ij, q_i), b_ij)


def _serre_brackets(a_ij: int, q_i: QValue) -> list[QValue]:
    # the factors (-1)^k [1-a_ij choose k]_{q_i} q_i^(k(k-1)/2) of c_k
    if a_ij > 0:
        raise ValueError("off-diagonal Cartan entries are nonpositive")
    out = []
    for k, c in enumerate(_qbinomial_row(1 - a_ij, q_i)):
        c = c * q_i ** (k * (k - 1) // 2)
        out.append(-c if k % 2 else c)
    return out


def _crossed(brackets: list[QValue], b_ij: QValue) -> list[QValue]:
    return [c * b_ij**k for k, c in enumerate(brackets)]


# ------------------------------------------------------------ presentation


class Relation(NamedTuple):
    kind: str
    text: str
    machine: str


@dataclass(frozen=True)
class HopfPresentation:
    """Generators, relations, and coproduct of the linked algebra."""

    group_generators: tuple[str, ...]
    algebra_generators: tuple[str, ...]
    relations: tuple[Relation, ...]
    coproduct: tuple[str, ...]
    coproduct_machine: tuple[str, ...]

    def to_text(self) -> str:
        lines = [
            "generators: "
            + " ".join(self.group_generators + self.algebra_generators)
        ]
        for kind in ("group", "mixed", "serre"):
            block = [r for r in self.relations if r.kind == kind]
            if block:
                lines.append(f"{kind} relations:")
                lines.extend("  " + r.text for r in block)
        lines.append("coproduct:")
        lines.extend("  " + c for c in self.coproduct)
        return "\n".join(lines) + "\n"

    def to_machine(self) -> str:
        lines = [
            f"generators {len(self.group_generators)} "
            f"{len(self.algebra_generators)}"
        ]
        lines.extend(r.machine for r in self.relations)
        lines.extend(self.coproduct_machine)
        return "\n".join(lines) + "\n"


def _group_word(exps: tuple[int, ...], factors: tuple[int, ...]) -> str:
    parts = []
    for t, e in enumerate(exps):
        if factors[t]:
            e %= factors[t]
        if e:
            parts.append(f"h_{t + 1}" if e == 1 else f"h_{t + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _coeff_str(exp: int) -> str:
    return "1" if exp == 0 else f"q^{exp}"


def _serre_word(i: int, j: int, top: int, k: int, sep: str) -> str:
    parts = []
    left = top - k
    if left:
        parts.append(f"a_{i + 1}" if left == 1 else f"a_{i + 1}^{left}")
    parts.append(f"a_{j + 1}")
    if k:
        parts.append(f"a_{i + 1}" if k == 1 else f"a_{i + 1}^{k}")
    return sep.join(parts)


def _split_sign(c: QValue, text: str) -> tuple[int, str]:
    # text is c.render(); pull the leading sign out, parenthesize genuine sums
    if len(c.terms) == 1:
        return (-1, text[1:]) if text.startswith("-") else (1, text)
    if c.terms[0][1] < 0:
        return -1, f"({(-c).render()})"
    return 1, f"({text})"


def _signed_sum(slots: list[_Slot], words: list[str]) -> str:
    parts: list[str] = []
    for slot, w in zip(slots, words):
        if slot is None:
            continue
        sign, body = slot
        piece = w if body == "1" else f"{body} {w}"
        if not parts:
            parts.append(piece if sign > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if sign > 0 else f" - {piece}")
    return "".join(parts) if parts else "0"


def emit_presentation(datum: LinkingDatum) -> HopfPresentation:
    """Full presentation of the algebra attached to a linking datum.

    Group relations come from the invariant factors, mixed relations
    carry the exact character coefficients, and each vertex pair i < j
    contributes one crossed-power relation whose left side has 2 - a_ij
    coefficient slots (zero coefficients are dropped from the text form
    but kept in the machine form).  The slots depend only on
    (a_ij, b_ii, b_ij), so each distinct triple is built, zero-tested
    and rendered once per call.
    """
    diagram = datum.diagram
    if diagram is None:
        raise ValueError("datum carries no diagram; cannot expand relations")
    factors = datum.factors
    l, s = len(factors), len(datum.elements)
    hs = tuple(f"h_{t + 1}" for t in range(l))
    alg = tuple(f"a_{i + 1}" for i in range(s))
    rels: list[Relation] = []

    for t, f in enumerate(factors):
        if f:
            rels.append(
                Relation("group", f"h_{t + 1}^{f} = 1", f"group power {t + 1} {f}")
            )
    for t in range(l):
        for u in range(t + 1, l):
            rels.append(
                Relation(
                    "group",
                    f"h_{t + 1} h_{u + 1} = h_{u + 1} h_{t + 1}",
                    f"group comm {t + 1} {u + 1}",
                )
            )

    for t in range(l):
        for j in range(s):
            ctext = _coeff_str(datum.character_exps[j][t])
            rhs = (
                f"a_{j + 1} h_{t + 1}"
                if ctext == "1"
                else f"{ctext} a_{j + 1} h_{t + 1}"
            )
            rels.append(
                Relation(
                    "mixed",
                    f"h_{t + 1} a_{j + 1} = {rhs}",
                    f"mixed {t + 1} {j + 1} | coeff: {ctext}",
                )
            )

    def root_power(e: int) -> QValue:
        return QValue._make(datum.order, {(e, ()): 1})

    # the Serre coefficients depend only on (a_ij, b_ii, b_ij), read as
    # exponents of q: per key the machine field and the text slots, and
    # per (a_ij, b_ii) their q_i-only brackets
    brackets: dict[tuple[int, int], list[QValue]] = {}
    slots: dict[tuple[int, int, int], tuple[str, list[_Slot]]] = {}
    for i in range(s):
        e_ii = datum.entry_exp(i, i)
        q_i = root_power(e_ii)
        for j in range(i + 1, s):
            a = diagram.a(i, j)
            top = 1 - a
            key = (a, e_ii, datum.entry_exp(i, j))
            if key not in slots:
                if (a, e_ii) not in brackets:
                    brackets[a, e_ii] = _serre_brackets(a, q_i)
                coeffs = _crossed(brackets[a, e_ii], root_power(key[2]))
                # render is "0" exactly for a zero coefficient
                texts = [c.render() for c in coeffs]
                pairs = zip(coeffs, texts)
                slots[key] = (
                    " ; ".join(texts),
                    [None if t == "0" else _split_sign(c, t) for c, t in pairs],
                )
            field, split = slots[key]
            words_text = [_serre_word(i, j, top, k, " ") for k in range(top + 1)]
            lam = 1 if (i, j) in datum.linked else 0
            gw = ""
            if lam:
                exps = tuple(
                    (1 - a) * datum.elements[i][t] + datum.elements[j][t]
                    for t in range(l)
                )
                gw = _group_word(exps, factors)
                rhs = "0" if gw == "1" else f"1 - {gw}"
            else:
                rhs = "0"
            machine = (
                f"serre {i + 1} {j + 1} | coeffs: {field}"
                + " | words: "
                + " , ".join(w.replace(" ", "*") for w in words_text)
                + f" | rhs: lambda={lam}"
                + (f" g={gw}" if lam else "")
            )
            rels.append(
                Relation("serre", f"{_signed_sum(split, words_text)} = {rhs}", machine)
            )

    copro = [f"delta(h_{t + 1}) = h_{t + 1} (x) h_{t + 1}" for t in range(l)]
    copro_m = [f"coproduct h {t + 1}" for t in range(l)]
    for i in range(s):
        gw = _group_word(datum.elements[i], factors)
        copro.append(f"delta(a_{i + 1}) = a_{i + 1} (x) 1 + {gw} (x) a_{i + 1}")
        copro_m.append(f"coproduct a {i + 1} | g={gw}")

    return HopfPresentation(hs, alg, tuple(rels), tuple(copro), tuple(copro_m))


__all__ = [
    "QValue",
    "cyclotomic_polynomial",
    "qnumber",
    "qfactorial",
    "qbinomial",
    "check_identity",
    "serre_coefficients",
    "Relation",
    "HopfPresentation",
    "emit_presentation",
]
