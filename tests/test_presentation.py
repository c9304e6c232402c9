"""Exact q-arithmetic and the emitted algebra presentation."""

import math
import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

import linkdyn.presentation
from conftest import circle, component_diag, relations_of, small_family
from linkdyn import (
    CartanMatrix,
    QValue,
    admissible_orders,
    check,
    check_identity,
    construct,
    cyclotomic_polynomial,
    double_datum,
    emit_presentation,
    qbinomial,
    realize_free,
    realize_mod_p,
    serre_coefficients,
)
from linkdyn.errors import IndexOutOfRange


def poly_of(value):
    """Pure-q QValue as an exponent -> coefficient dict."""
    out = {}
    for (e, sym), c in value.terms:
        assert sym == ()
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def gaussian_binomial(n, i):
    # subset-sum statistic: one term q^(sum S - 0-1-...-(i-1)) per
    # i-subset S of {0..n-1}
    base = i * (i - 1) // 2
    out = {}
    for subset in combinations(range(n), i):
        e = sum(subset) - base
        out[e] = out.get(e, 0) + 1
    return out


def inversion_factorial(n):
    out = {}
    for w in permutations(range(n)):
        inv = sum(
            1 for x in range(n) for y in range(x + 1, n) if w[x] > w[y]
        )
        out[inv] = out.get(inv, 0) + 1
    return out


def q_number(n, q):
    """1 + q + ... + q^(n-1), written out as a QValue sum."""
    return sum((q**t for t in range(n)), QValue.zero(q.root_order))


def q_factorial(n, q):
    """The product of q_number(t, q) for t = 1 .. n."""
    acc = QValue.one(q.root_order)
    for t in range(1, n + 1):
        acc = acc * q_number(t, q)
    return acc


_REFERENCE_PHI = {}


def recursive_cyclotomic(d):
    """Phi_d by long division of x^d - 1 by Phi_e for every proper divisor e.

    The construction that the product over (x^e - 1)^mu(d/e) replaced,
    kept as the reference; each Phi_e comes from the same recursion.
    """
    if d not in _REFERENCE_PHI:
        work = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e:
                continue
            den = recursive_cyclotomic(e)
            dn = len(den) - 1
            out = [0] * (len(work) - dn)
            for top in range(len(work) - 1, dn - 1, -1):
                c = work[top]
                if c:
                    out[top - dn] = c
                    for t, dc in enumerate(den):
                        work[top - dn + t] -= c * dc
            assert not any(work)
            work = out
        _REFERENCE_PHI[d] = tuple(work)
    return _REFERENCE_PHI[d]


class TestCyclotomic:
    def test_agrees_with_recursive_division(self):
        cofactor = linkdyn.presentation._cofactor
        for d in range(1, 1101):
            phi = cyclotomic_polynomial(d)
            assert phi == recursive_cyclotomic(d), d
            # Phi_d * Psi_d = x^d - 1
            prod = [0] * (d + 1)
            for e, c in cofactor(d):
                for f, k in enumerate(phi):
                    prod[e + f] += c * k
            assert prod == [-1] + [0] * (d - 1) + [1], d

    @pytest.mark.parametrize(
        "d, expected",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (3, (1, 1, 1)),
            (4, (1, 0, 1)),
            (5, (1, 1, 1, 1, 1)),
            (6, (1, -1, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_small_polynomials(self, d, expected):
        assert cyclotomic_polynomial(d) == expected

    def test_inexact_division_is_refused(self):
        # 1 / (x^2 - 1) is no polynomial
        with pytest.raises(ArithmeticError, match="^polynomial division was not exact$"):
            linkdyn.presentation._binomial_product([(2, -1)])
        assert linkdyn.presentation._binomial_product([(2, 1), (2, -1)]) == [1]

    def test_product_over_divisors_recovers_power(self):
        for n in range(1, 25):
            prod = [1]
            for e in range(1, n + 1):
                if n % e:
                    continue
                phi = cyclotomic_polynomial(e)
                nxt = [0] * (len(prod) + len(phi) - 1)
                for x, a in enumerate(prod):
                    for y, b in enumerate(phi):
                        nxt[x + y] += a * b
                prod = nxt
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_first_large_coefficient(self):
        # every polynomial below index 105 has coefficients in {-1, 0, 1}
        for d in range(1, 105):
            assert all(abs(c) <= 1 for c in cyclotomic_polynomial(d))
        assert cyclotomic_polynomial(105)[7] == -2

    @pytest.mark.parametrize("d", [0, -3])
    def test_index_below_one_rejected(self, d):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(d)


def dense_remainder(vec, d):
    """Remainder of sum c q^e modulo Phi_d, by dense long division.

    The reference for QValue.is_zero: fold the exponents modulo d, then
    cancel the top coefficient against Phi_d until the degree drops
    below phi(d).
    """
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    coeffs = [0] * d
    for e, c in vec.items():
        coeffs[e % d] += c
    for top in range(d - 1, deg - 1, -1):
        c = coeffs[top]
        if c == 0:
            continue
        shift = top - deg
        for t, pc in enumerate(phi):
            coeffs[shift + t] -= c * pc
    return {e: c for e, c in enumerate(coeffs[:deg]) if c}


def folded_product(poly, terms, d):
    """Dense poly times the sparse terms, with exponents folded mod d."""
    out = {}
    for e, c in enumerate(poly):
        if c:
            for f, k in terms:
                out[(e + f) % d] = out.get((e + f) % d, 0) + c * k
    return out


def sparse_terms(rng, d, count):
    return [
        (rng.randrange(-d, 2 * d), rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(count)
    ]


def as_vector(terms):
    vec = {}
    for e, c in terms:
        vec[e] = vec.get(e, 0) + c
    return vec


def at_root(d, groups):
    """QValue at root order d from {symbol power: {exponent: coeff}}."""
    data = {}
    for k, vec in groups.items():
        sym = (("z1", k),) if k else ()
        for e, c in vec.items():
            data[(e, sym)] = data.get((e, sym), 0) + c
    return QValue._make(d, data)


class TestCofactorZeroTest:
    ORDERS = list(range(1, 131)) + [255, 513, 1023]

    @pytest.mark.parametrize("d", ORDERS)
    def test_agrees_with_dense_reduction(self, d):
        rng = random.Random(7919 + d)
        phi = cyclotomic_polynomial(d)
        proper = [e for e in range(1, d) if d % e == 0]
        sparse = [as_vector(sparse_terms(rng, d, n)) for n in (1, 2, 3, 6)]
        multiples = [
            folded_product(phi, sparse_terms(rng, d, n), d) for n in (1, 3)
        ]
        vectors = sparse + multiples
        # a multiple of Phi_d plus one more term
        vec = folded_product(phi, sparse_terms(rng, d, 2), d)
        e, c = sparse_terms(rng, d, 1)[0]
        vec[e % d] = vec.get(e % d, 0) + c
        vectors.append(vec)
        if proper:
            # a multiple of a factor of the cofactor instead of Phi_d
            other = cyclotomic_polynomial(rng.choice(proper))
            vectors.append(folded_product(other, sparse_terms(rng, d, 2), d))
        verdicts = set()
        for vec in vectors:
            expected = not dense_remainder(vec, d)
            assert at_root(d, {0: vec}).is_zero == expected, (d, vec)
            verdicts.add(expected)
        assert verdicts == {True, False}
        # one symbol group per power of z1: zero only if every group is
        assert at_root(d, {0: multiples[0], 2: multiples[1]}).is_zero
        assert not at_root(d, {0: multiples[0], -1: sparse[0]}).is_zero


MONOMIALS = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.integers(-3, 5),
        st.integers(-2, 2),
    ),
    max_size=3,
)


def build_value(root_order, monomials):
    acc = QValue.zero(root_order)
    for c, e, k in monomials:
        term = QValue.integer(c) * QValue.q(root_order) ** e
        if k:
            term = term * QValue.symbol("z1") ** k
        acc = acc + term
    return acc


class TestQValueRing:
    @pytest.mark.parametrize("d", [0, 5, 7])
    @given(ma=MONOMIALS, mb=MONOMIALS, mc=MONOMIALS)
    def test_ring_axioms(self, d, ma, mb, mc):
        a, b, c = (build_value(d, m) for m in (ma, mb, mc))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        assert a * QValue.one(d) == a
        assert (a * QValue.zero(d)).is_zero

    def test_root_relations(self):
        q = QValue.q(5)
        assert (q**5).is_one
        assert q**-1 == q**4
        assert q_number(5, q).is_zero
        assert not q_number(5, QValue.q()).is_zero

    def test_integer_comparison(self):
        assert QValue.integer(3) == 3
        assert qbinomial(4, 2, QValue.one()) == 6
        assert QValue.q(5) != 0

    def test_distinct_root_orders_do_not_mix(self):
        with pytest.raises(ValueError):
            QValue.q(5) + QValue.q(7)
        with pytest.raises(ValueError):
            QValue.q() * QValue.q(5)
        # equality answers False instead
        assert QValue.q(5) != QValue.q(7)
        assert not QValue.q(5) == QValue.q(7)

    def test_other_types_are_unequal(self):
        assert QValue.q(5) != "x"
        assert not QValue.integer(1) == "1"
        # arithmetic refuses them
        with pytest.raises(TypeError, match="cannot mix QValue with str"):
            QValue.q(5) + "x"

    def test_constants_align_with_any_order(self):
        assert QValue.integer(2) + QValue.q(5) == QValue.q(5) + 2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(QValue.q())

    def test_only_unit_monomials_invert(self):
        with pytest.raises(ValueError):
            (QValue.q() + 1) ** -1
        with pytest.raises(ValueError):
            (2 * QValue.q()) ** -1

    def test_render(self):
        q = QValue.q()
        assert str(q**2 - q + 3) == "3 - q + q^2"
        assert str(QValue.zero()) == "0"
        assert str(QValue.symbol("z1") * q) == "q*z1"


class TestQCombinatorics:
    def test_qnumber_values(self):
        q = QValue.q()
        assert q_number(0, q).is_zero
        assert q_number(1, q).is_one
        assert q_number(3, q) == 1 + q + q**2

    def test_qnumber_telescopes(self):
        q = QValue.q()
        for n in range(7):
            assert q_number(n, q) * (q - 1) == q**n - 1

    @pytest.mark.parametrize("n", range(9))
    def test_qbinomial_matches_subset_statistic(self, n):
        q = QValue.q()
        for i in range(n + 1):
            assert poly_of(qbinomial(n, i, q)) == gaussian_binomial(n, i)

    @pytest.mark.parametrize("n", range(6))
    def test_qfactorial_matches_inversion_statistic(self, n):
        assert poly_of(q_factorial(n, QValue.q())) == inversion_factorial(n)

    def test_bracket_times_factorials(self):
        q = QValue.q()
        for n in range(7):
            for i in range(n + 1):
                lhs = qbinomial(n, i, q) * q_factorial(i, q) * q_factorial(
                    n - i, q
                )
                assert lhs == q_factorial(n, q)

    def test_specializes_to_binomial(self):
        for n in range(8):
            for i in range(n + 1):
                value = qbinomial(n, i, QValue.one())
                assert value == math.comb(n, i)

    def test_argument_validation(self):
        q = QValue.q()
        with pytest.raises(IndexOutOfRange):
            qbinomial(3, 4, q)
        with pytest.raises(IndexOutOfRange):
            qbinomial(-1, 0, q)


class TestIdentities:
    @pytest.mark.parametrize("root_order", [0, 5, 7, 11])
    def test_first_identity_through_rank_eight(self, root_order):
        q = QValue.q(root_order)
        for n in range(1, 9):
            for i in range(1, n + 1):
                assert check_identity(1, n, i, q)

    @pytest.mark.parametrize("which", [2, 3])
    @pytest.mark.parametrize("root_order", [0, 5, 7, 11])
    def test_alternating_identities_through_rank_eight(
        self, which, root_order
    ):
        q = QValue.q(root_order)
        for n in range(1, 9):
            assert check_identity(which, n, 0, q)

    def test_argument_validation(self):
        q = QValue.q()
        with pytest.raises(IndexOutOfRange):
            check_identity(1, 3, 0, q)
        with pytest.raises(IndexOutOfRange):
            check_identity(1, 3, 4, q)
        with pytest.raises(IndexOutOfRange):
            check_identity(2, 0, 0, q)
        with pytest.raises(IndexOutOfRange):
            check_identity(3, -1, 0, q)
        with pytest.raises(ValueError):
            check_identity(4, 1, 1, q)


def adjoint_expansion(top, q_i, b_ij):
    """Independent crossed-power expansion in the free algebra.

    Words are tracked as (left, right) powers around the single a_j;
    commuting a_i in from the left costs the product of its braidings
    with every letter already present.
    """
    words = {(0, 0): QValue.one(q_i.root_order)}
    for _ in range(top):
        nxt = {}
        for (p, s), c in words.items():
            key = (p + 1, s)
            nxt[key] = nxt.get(key, QValue.zero(q_i.root_order)) + c
            cost = c * q_i ** (p + s) * b_ij
            key = (p, s + 1)
            nxt[key] = nxt.get(key, QValue.zero(q_i.root_order)) - cost
        words = nxt
    return words


class TestSerreCoefficients:
    @pytest.mark.parametrize("a_ij", [0, -1, -2, -3, -4])
    def test_matches_free_algebra_expansion(self, a_ij):
        q_i = QValue.symbol("Q")
        b_ij = QValue.symbol("B")
        top = 1 - a_ij
        coeffs = serre_coefficients(a_ij, q_i, b_ij)
        assert len(coeffs) == top + 1
        expanded = adjoint_expansion(top, q_i, b_ij)
        for k in range(top + 1):
            assert coeffs[k] == expanded[(top - k, k)]

    @pytest.mark.parametrize("a_ij", [-1, -2, -3])
    def test_matches_expansion_at_root(self, a_ij):
        q_i = QValue.q(5) ** 2
        b_ij = QValue.q(5) ** -1
        coeffs = serre_coefficients(a_ij, q_i, b_ij)
        expanded = adjoint_expansion(1 - a_ij, q_i, b_ij)
        for k, c in enumerate(coeffs):
            assert c == expanded[(1 - a_ij - k, k)]

    def test_stated_small_cases(self):
        q_i = QValue.symbol("Q")
        b = QValue.symbol("B")
        assert serre_coefficients(0, q_i, b) == [QValue.one(), -b]
        two = serre_coefficients(-1, q_i, b)
        assert two == [QValue.one(), -(1 + q_i) * b, q_i * b**2]

    def test_classical_specialization(self):
        one = QValue.one()
        for a_ij in range(-4, 0):
            coeffs = serre_coefficients(a_ij, one, one)
            top = 1 - a_ij
            for k, c in enumerate(coeffs):
                expected = math.comb(top, k)
                assert c == (-expected if k % 2 else expected)
            total = QValue.zero()
            for c in coeffs:
                total = total + c
            assert total.is_zero

    def test_rejects_positive_entry(self):
        with pytest.raises(ValueError):
            serre_coefficients(1, QValue.q(), QValue.q())


class TestQLucasRule:
    """The presentation's Serre slots against the QValue cofactor zero test.

    The reference coefficient is built from the subset statistic of
    [n choose k] (not from the Pascal rows the slots read), shifted by
    q_i^(k(k-1)/2) b_ij^k and normalized by QValue at root order d.
    """

    @staticmethod
    def cases():
        # every e_ii up to d = 40, three seeded ones for each d up to 120,
        # one each at d = 255, 513 and 1023; e_ij is seeded throughout
        rng = random.Random(18)
        for d in range(1, 121):
            for e_ii in range(d) if d <= 40 else rng.sample(range(d), 3):
                yield d, e_ii, rng.randrange(d)
        for d in (255, 513, 1023):
            yield d, rng.randrange(d), rng.randrange(d)

    def test_slots_match_cofactor_zero_test(self):
        checked = zeros = 0
        for d, e_ii, e_ij in self.cases():
            for a_ij in (0, -1, -2, -3, -4):
                n = 1 - a_ij
                slots = linkdyn.presentation._serre_slots(n, e_ii, e_ij, d)
                assert len(slots) == n + 1
                for k, slot in enumerate(slots):
                    shift = e_ii * (k * (k - 1) // 2) + k * e_ij
                    sign = -1 if k % 2 else 1
                    data = {}
                    for t, c in gaussian_binomial(n, k).items():
                        key = (e_ii * t + shift, ())
                        data[key] = data.get(key, 0) + sign * c
                    coeff = QValue._make(d, data)
                    if coeff.is_zero:
                        assert slot is None, (d, e_ii, n, k)
                        zeros += 1
                    else:
                        assert slot == coeff.terms, (d, e_ii, e_ij, n, k)
                    checked += 1
        # about 21,000 coefficients, some of them zero
        assert checked > 21000 and zeros > 0

    def test_rule_on_each_order(self):
        vanishes = linkdyn.presentation._bracket_vanishes
        # at a primitive N-th root [n choose k] vanishes iff k % N > n % N
        assert not vanishes(5, 2, 1)
        assert not vanishes(5, 2, 2)
        assert vanishes(4, 1, 2) and vanishes(4, 3, 2)
        assert not vanishes(4, 2, 2)
        assert [k for k in range(6) if vanishes(5, k, 5)] == [1, 2, 3, 4]
        assert [k for k in range(6) if vanishes(5, k, 7)] == []


def reference_signed_sum(coeffs, words):
    """A Serre left side built per pair from QValue coefficients.

    Zero-tests and splits every coefficient of its own pair; the
    reference for the slots emit_presentation shares between pairs.
    """
    parts = []
    for c, w in zip(coeffs, words):
        if c.is_zero:
            continue
        # pull the leading sign out, parenthesize genuine sums
        text = c.render()
        if len(c.terms) == 1:
            sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
        elif c.terms[0][1] < 0:
            sign, body = -1, f"({(-c).render()})"
        else:
            sign, body = 1, f"({text})"
        piece = w if body == "1" else f"{body} {w}"
        if not parts:
            parts.append(piece if sign > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if sign > 0 else f" - {piece}")
    return "".join(parts) if parts else "0"


class TestEmitPresentation:
    def test_rank_one_double(self):
        pres = emit_presentation(double_datum(CartanMatrix(((2,),))))
        text = pres.to_text()
        assert "generators: h_1 a_1 a_2" in text
        assert "h_1 a_1 = q^2 a_1 h_1" in text
        assert "h_1 a_2 = q^3 a_2 h_1" in text
        assert "a_1 a_2 - q^3 a_2 a_1 = 1 - h_1^2" in text
        assert "delta(h_1) = h_1 (x) h_1" in text
        assert "delta(a_1) = a_1 (x) 1 + h_1 (x) a_1" in text
        # the free factor contributes no power relation
        assert "group relations:" not in text

    def test_finite_group_relations(self):
        dd = component_diag(["A1", "A1"], [(0, 1)])
        datum = realize_mod_p(construct(dd), dd, 5)
        text = emit_presentation(datum).to_text()
        assert "h_1^5 = 1" in text
        assert "h_2^5 = 1" in text
        assert "h_1 h_2 = h_2 h_1" in text
        assert "a_1 a_2 - q^4 a_2 a_1 = 1 - h_1*h_2" in text
        assert "delta(a_2) = a_2 (x) 1 + h_2 (x) a_2" in text

    def test_serre_block_shape(self):
        datum = double_datum(CartanMatrix(((2, -1), (-1, 2))))
        pres = emit_presentation(datum)
        serre = [r for r in relations_of(pres) if r.kind == "serre"]
        # one relation per vertex pair i < j of the doubled diagram
        assert len(serre) == 6
        diagram = datum.diagram
        by_pair = {}
        pairs = [
            (i, j)
            for i in range(diagram.size)
            for j in range(i + 1, diagram.size)
        ]
        for rel, (i, j) in zip(serre, pairs):
            coeffs = rel.machine.split("coeffs: ")[1].split(" | ")[0]
            slots = [c.strip() for c in coeffs.split(";")]
            assert len(slots) == 2 - diagram.a(i, j)
            by_pair[(i, j)] = rel
        # in-component pairs are unlinked, so their right side is zero
        assert by_pair[(0, 1)].text.endswith("= 0")
        assert by_pair[(2, 3)].text.endswith("= 0")
        assert by_pair[(0, 2)].text.endswith("= 1 - h_1^2")

    def test_zero_coefficients_dropped_from_text_only(self):
        # at a fifth root every middle bracket of the crossed fifth
        # power vanishes
        datum = double_datum(CartanMatrix(((2, -4), (-1, 2))), q_order=5)
        pres = emit_presentation(datum)
        rel = next(r for r in relations_of(pres) if r.kind == "serre")
        assert rel.text == "a_1^5 a_2 - a_2 a_1^5 = 0"
        assert "coeffs: 1 ; 0 ; 0 ; 0 ; 0 ; -1" in rel.machine

    def test_all_lambda_zero_clears_right_sides(self):
        base = double_datum(CartanMatrix(((2, -1), (-1, 2))))
        datum = replace(base, linked=frozenset())
        pres = emit_presentation(datum)
        for rel in relations_of(pres):
            if rel.kind == "serre":
                assert rel.text.endswith("= 0")

    def test_value_equality(self):
        dd = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        datum = realize_free(construct(dd), dd)
        pres = emit_presentation(datum)
        again = emit_presentation(realize_free(construct(dd), dd))
        assert pres == again and hash(pres) == hash(again)
        assert relations_of(pres) == relations_of(again)
        other = double_datum(CartanMatrix(((2, -1), (-1, 2))))
        assert pres != emit_presentation(other)

    def test_machine_header_counts_generators(self):
        dd = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        datum = realize_free(construct(dd), dd)
        machine = emit_presentation(datum).to_machine()
        assert machine.splitlines()[0] == "generators 4 4"

    @staticmethod
    def ring_keys(dd, datum):
        # the slot keys (a_ij, e_ii, e_ij) of the 1,128 pairs of an A3 ring of 16
        pairs = [(i, j) for i in range(dd.size) for j in range(i + 1, dd.size)]
        keys = {
            (dd.a(i, j), datum.entry_exp(i, i), datum.entry_exp(i, j))
            for i, j in pairs
        }
        assert (len(pairs), len(keys)) == (1128, 8)
        return keys

    # each count is taken over one render of one format
    RENDERS = ("to_text", "to_machine")

    def test_brackets_built_once_per_key(self, count_calls):
        dd = circle("A3", 16)
        datum = realize_free(construct(dd), dd)
        keys = self.ring_keys(dd, datum)
        calls = count_calls(linkdyn.presentation, "_gaussian_row")
        for render in self.RENDERS:
            calls.clear()
            getattr(emit_presentation(datum), render)()
            # one integer row [1 - a_ij choose k], k = 0 .. 1 - a_ij, read
            # per distinct (a_ij, b_ii, b_ij)
            assert sorted(calls) == sorted((1 - a,) for a, _, _ in keys), render

    def test_serre_slots_built_once_per_key(self, count_calls):
        dd = circle("A3", 16)
        datum = realize_free(construct(dd), dd)
        keys = self.ring_keys(dd, datum)
        calls = count_calls(linkdyn.presentation, "_serre_slots")
        expected = sorted((1 - a, e_ii, e_ij, datum.order) for a, e_ii, e_ij in keys)
        for render in self.RENDERS:
            calls.clear()
            getattr(emit_presentation(datum), render)()
            # the coefficients are built once per distinct (a_ij, b_ii, b_ij),
            # not once per vertex pair
            assert sorted(calls) == expected, render

    def test_serre_coefficients_zero_tested_once(self, count_calls):
        dd = circle("A3", 16)
        datum = realize_free(construct(dd), dd)
        built = count_calls(linkdyn.presentation, "_serre_slots")
        tested = count_calls(linkdyn.presentation, "_bracket_vanishes")
        for render in self.RENDERS:
            built.clear()
            tested.clear()
            getattr(emit_presentation(datum), render)()
            # one q-Lucas decision per coefficient of each slot build
            expected = [
                (n, k, datum.order // math.gcd(datum.order, e_ii))
                for n, e_ii, _, _ in built
                for k in range(n + 1)
            ]
            assert len(expected) == 20, render
            assert tested == expected, render

    @staticmethod
    def differential_data():
        for labels, pairs in small_family():
            dd = component_diag(list(labels), list(pairs))
            if dd.is_link_connected() and check(dd).decision == "yes":
                orders = admissible_orders(dd)
                for n in sorted({orders[0], orders[-1]}):
                    yield realize_free(construct(dd, n), dd)
        for label, n in (("A3", 2), ("A3", 4), ("A3", 16), ("B3", 3), ("B3", 8)):
            dd = circle(label, n)
            yield realize_free(construct(dd), dd)

    def test_serre_relations_match_public_coefficients(self):
        # every Serre relation against serre_coefficients evaluated for
        # its own pair, rendered and summed the way it was per pair
        rendered = set()
        for datum in self.differential_data():
            dd = datum.diagram
            pairs = [(i, j) for i in range(dd.size) for j in range(i + 1, dd.size)]
            relations = relations_of(emit_presentation(datum))
            serre = [r for r in relations if r.kind == "serre"]
            assert len(serre) == len(pairs)
            for rel, (i, j) in zip(serre, pairs):
                a = dd.a(i, j)
                coeffs = serre_coefficients(
                    a,
                    QValue.q(datum.order) ** datum.entry_exp(i, i),
                    QValue.q(datum.order) ** datum.entry_exp(i, j),
                )
                field = rel.machine.split(" | coeffs: ")[1].split(" | ")[0]
                assert field == " ; ".join(c.render() for c in coeffs)
                # a_i^(top - k) a_j a_i^k for k = 0 .. top
                top = 1 - a
                powers = ["", f"a_{i + 1}"]
                powers += [f"a_{i + 1}^{p}" for p in range(2, top + 1)]
                words = [
                    " ".join(w for w in (powers[top - k], f"a_{j + 1}", powers[k]) if w)
                    for k in range(top + 1)
                ]
                left = rel.text.split(" = ")[0]
                assert left == reference_signed_sum(coeffs, words)
                rendered.add(field)
        # zero slots and slots holding a sum both occur
        assert any(" ; 0 ; " in f for f in rendered)
        assert any(" + " in f for f in rendered)

    def test_requires_diagram(self):
        base = double_datum(CartanMatrix(((2,),)))
        datum = replace(base, diagram=None)
        with pytest.raises(ValueError):
            emit_presentation(datum)
