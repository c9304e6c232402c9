"""Entry values, construction, verification, oracle, direct sums."""

import random
from dataclasses import replace
from itertools import chain, combinations, islice, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkdyn.braiding as braiding
import linkdyn.cycles
import linkdyn.diagram
import linkdyn.fields as fields
from linkdyn import (
    BraidingMatrix,
    FieldSpec,
    InadmissibleD,
    IndexOutOfRange,
    InputError,
    MalformedMatrix,
    NoAdmissibleOrder,
    NotLinkConnected,
    OrderMismatch,
    ScaleExceeded,
    UnsupportedComponentType,
    UnsupportedMode,
    admissible_orders,
    brute_force_exists,
    check,
    construct,
    direct_sum,
    excluded_case_matrix,
    ord_diagonal,
    realize_free,
    verify,
)

from conftest import (
    ENTRY_ZPART,
    Root,
    block_rows,
    circle,
    component_diag,
    dense_rows,
    diag,
    entries_of,
    entry_of,
    matrix_of,
    perturbed,
    prism,
    random_entry,
    small_family,
    zrows_of,
)
from linkdyn.braiding import RootExpr
from linkdyn.cli import DiagramFile, main, parse
from linkdyn.diagram import (
    LinkableDynkinDiagram,
    classify_components,
    dotted_edges_that_meet,
)
from linkdyn.fields import CYCLOTOMIC, is_prime
from test_cycles import random_diagram

# a G2-like rank-two component with a_12 = -5, which no catalog knows,
# linked to an A2
UNRECOGNIZED_ROWS = ((2, -5, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2))


class TestRootExpr:
    """The record's normal form, and the tests' copy of entry arithmetic."""

    def test_constructors_and_identity(self):
        q = Root.root(5, 1)
        assert not q.is_one
        assert (q**5).is_one
        assert Root.one(5).is_one
        z = Root.z(5, 1)
        assert z.is_symbolic
        assert not z.is_one
        assert (z * z.inv()).is_one

    def test_multiplication_and_powers(self):
        q = Root.root(7, 2)
        assert (q * q).exp == 4
        assert (q**4).exp == 1
        assert (q ** (-1) * q).is_one
        assert (q / q).is_one

    def test_mixed_root_orders_are_refused(self):
        with pytest.raises(ValueError, match="mixed root orders"):
            Root.root(5) * Root.root(7)
        with pytest.raises(ValueError, match="mixed root orders"):
            Root.z(5, 1) / Root.one(10)

    def test_multiplicative_order(self):
        assert Root.root(5, 1).multiplicative_order() == 5
        assert Root.root(10, 2).multiplicative_order() == 5
        assert Root.root(12, 8).multiplicative_order() == 3
        assert Root.one(9).multiplicative_order() == 1
        with pytest.raises(ValueError):
            Root.z(5, 1).multiplicative_order()

    def test_substitute_defaults_to_one(self):
        q = Root.root(5, 2)
        v = q * Root.z(5, 3, 2)
        assert v.substitute() == q
        assert v.substitute({3: Root.root(5, 1)}).exp == 4

    def test_parse_round_trip(self):
        for text in ("q^2", "q^2*z1^-1", "q^0*z3^2", "q^0", "q^-1"):
            v = Root.parse(text, 7)
            again = Root.parse(str(v), 7)
            assert v == again
            # the library reads the token as the one cell of a 1x1 matrix
            m = BraidingMatrix.from_text(f"root_order 7\n{text}\n")
            assert entry_of(m, 0, 0) == v

    def test_parse_rejects_garbage(self):
        for text in ("z3^2", "", "q", "q^2 * z1^1", "q^2*w1^1"):
            with pytest.raises(ValueError):
                Root.parse(text, 7)
            # from_text splits rows on whitespace: "" is a blank line, no
            # cell, and "q^2 * z1^1" is refused at its token "*"
            if text:
                with pytest.raises(MalformedMatrix, match="bad root expression"):
                    BraidingMatrix.from_text(f"root_order 7\n{text}\n")

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_exponents_add(self, a, b):
        q = Root.root(11, 1)
        assert (q**a * q**b) == q ** (a + b)

    def test_repeated_indices_merge(self):
        twice = Root.parse("q^1*z1^1*z1^1", 5)
        squared = Root.parse("q^1*z1^2", 5)
        assert twice * Root.one(5) == squared
        assert twice == squared
        assert str(twice) == "q^1*z1^2"
        assert entry_of(matrix_of(5, ((twice,),)), 0, 0) == twice

    def test_cancelling_powers_are_not_symbolic(self):
        v = Root.parse("q^0*z1^1*z1^-1", 5)
        assert not v.is_symbolic
        assert v.is_one

    def test_zpow_is_the_grid_normal_form(self):
        rng = random.Random(20020711)
        for _ in range(500):
            zpow = [
                (rng.randrange(1, 5), rng.randrange(-3, 4))
                for _ in range(rng.randrange(6))
            ]
            v = Root(7, rng.randrange(-20, 20), zpow)
            assert v.zpow == RootExpr(7, 0, zpow).zpow == braiding._terms((zpow, 1))
            w = random_entry(7, rng, symbolic=0.7)
            k = rng.randrange(-3, 4)
            assert (v * w).zpow == braiding._terms((zpow, 1), (w.zpow, 1))
            assert (v / w).zpow == braiding._terms((zpow, 1), (w.zpow, -1))
            assert (v**k).zpow == braiding._terms((zpow, k))
            assert v.inv().zpow == braiding._terms((zpow, -1))


class TestConstruct:
    def test_frozen_linked_pair_of_points(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        m = construct(d, d=5)
        q = Root.root(5, 1)
        assert entry_of(m, 0, 0) == q
        assert entry_of(m, 0, 1) == q.inv()
        assert entry_of(m, 1, 0) == q
        assert entry_of(m, 1, 1) == q.inv()

    def test_construct_verifies(self):
        cases = [
            component_diag(["A2", "A2"], [(0, 2), (1, 3)]),
            component_diag(["A3", "B2"], [(0, 3)]),
            component_diag(["G2", "A1"], [(1, 2)]),
            circle("A3", 2),
            circle("B3", 2),
        ]
        for d in cases:
            rep = verify(d, construct(d))
            assert rep.ok, rep.failures

    def test_refuses_when_check_says_no(self):
        with pytest.raises(Exception):
            construct(circle("A3", 3))

    def test_inadmissible_d_rejected(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        with pytest.raises(InadmissibleD):
            construct(d, d=4)
        with pytest.raises(InadmissibleD):
            construct(component_diag(["G2", "A1"], [(1, 2)]), d=9)
        with pytest.raises(InadmissibleD):
            construct(d, d=7, field=FieldSpec("roots", orders=(5,)))

    def test_default_order_from_the_whole_field(self):
        # no cycles; GF(227) and GF(2027) hold no prime root order below 100
        d = component_diag(["A2", "A2"], [(0, 2)])
        for q, p in ((227, 113), (2027, 1013)):
            m = construct(d, field=FieldSpec("gf", q=q))
            assert m.order == p
            assert verify(d, m).ok

    def test_no_default_order_in_the_field(self):
        # GF(7) holds roots of orders 1, 2, 3 and 6 only: no prime from 5 up
        with pytest.raises(InadmissibleD) as err:
            construct(component_diag(["A1"], []), field=FieldSpec("gf", q=7))
        assert str(err.value) == "the field provides no admissible root order"

    def test_enumerates_no_cycles(self, count_calls):
        calls = count_calls(linkdyn.cycles, "enumerate_cycles")
        m = construct(circle("A3", 2))
        assert m.order == 5
        assert len(calls) == 0

    def test_walks_the_link_graph_once(self, count_calls):
        # construct's own connectivity test, check's and the diagonal
        # propagation share one breadth-first search
        walks = count_calls(linkdyn.diagram, "_breadth_first")
        m = construct(circle("A3", 4))
        assert m.order == 5
        assert len(walks) == 1

    def test_genus_divisor_required(self):
        d = circle("B3", 2)  # single cycle of genus 3
        m = construct(d, d=3)
        assert verify(d, m).ok
        with pytest.raises(InadmissibleD):
            construct(d, d=5)

    def test_dotted_edge_inverts_diagonal(self):
        d = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        m = construct(d, d=7)
        assert (entry_of(m, 0, 0) * entry_of(m, 2, 2)).is_one
        assert (entry_of(m, 1, 1) * entry_of(m, 3, 3)).is_one

    def test_cartan_edge_scales_diagonal(self):
        d = component_diag(["B2", "A1"], [(1, 2)])
        m = construct(d, d=5)
        b00, b11 = entry_of(m, 0, 0), entry_of(m, 1, 1)
        # normalization across the double edge: b_00^a01 = b_11^a10
        assert (b00**-2 * b11).is_one


class TestVerify:
    def test_identity_matrix_fails_diagonal(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        one = Root.one(5)
        m = matrix_of(5, ((one, one), (one, one)))
        rep = verify(d, m)
        assert not rep.ok
        assert any("b_11" in f or "(1,1)" in f for f in rep.failures)

    def test_broken_product_identity(self):
        d = component_diag(["A2"], [])
        q = Root.root(5, 1)
        m = matrix_of(5, ((q, q), (q, q)))
        rep = verify(d, m)
        assert not rep.ok

    def test_broken_linking_identity(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        q = Root.root(5, 1)
        # linked diagonals must be mutually inverse
        m = matrix_of(5, ((q, q.inv()), (q, q)))
        assert not verify(d, m).ok

    def test_low_order_diagonal_rejected_in_finite_mode(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        half = Root.root(4, 2)  # order 2
        m = matrix_of(4, ((half, half), (half, half)))
        assert not verify(d, m).ok

    def test_affine_mode_needs_homogeneous_prime_order(self):
        da = component_diag(["A1(1)", "A1(1)"], [(0, 2)], mode="affine")
        m = construct(da, d=5)
        assert verify(da, m).ok
        m5, m7 = construct(da, d=5), construct(da, d=7)
        total = direct_sum([(da, m5), (da, m7)])
        union = diag(
            block_rows(["A1(1)"] * 4),
            [(0, 2), (4, 6)],
            mode="affine",
        )
        rep = verify(union, total)
        assert not rep.ok
        same = direct_sum([(da, m5), (da, construct(da, d=5))])
        assert verify(union, same).ok

    def test_affine_diagram_reads_the_affine_order_rule(self):
        # no identity ties the two diagonals, only the diagram's mode
        d = component_diag(["A1", "A1"], [], mode="affine")
        z = Root.z(35, 1)
        q5, q7 = Root.root(35, 5), Root.root(35, 7)  # orders 7 and 5
        m = matrix_of(35, ((q5, z), (z.inv(), q7)))
        assert verify(d, m).failures == ("diagonal orders differ: [5, 7]",)
        assert verify(replace(d, mode="finite"), m).ok

    def test_size_mismatch_reported(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        q = Root.root(5, 1)
        m = matrix_of(5, ((q,),))
        rep = verify(d, m)
        assert not rep.ok and "size" in rep.failures[0]

    def test_g2_three_divisibility(self):
        d = component_diag(["G2", "A1"], [(1, 2)])
        assert verify(d, construct(d, d=5)).ok
        # order 3 on the diagonal with a G2 component present must fail
        q9 = Root.root(9, 3)
        one = Root.one(9)
        rows = (
            (q9, one, one),
            (one, q9, one),
            (one, one, q9),
        )
        assert not verify(d, matrix_of(9, rows)).ok


class TestSerialization:
    def test_round_trip_with_parameters(self):
        d = circle("A3", 2)
        m = construct(d)
        text = m.to_text()
        again = BraidingMatrix.from_text(text)
        assert again.order == m.order
        assert all(
            entry_of(again, i, j) == entry_of(m, i, j)
            for i in range(m.size)
            for j in range(m.size)
        )
        assert again.to_text() == text

    def test_equal_matrices_hash_alike(self):
        # the generated __hash__ reads the order and both grids
        m = construct(circle("A3", 2))
        again = BraidingMatrix.from_text(m.to_text())
        assert again == m and hash(again) == hash(m)
        other = BraidingMatrix.from_text(m.to_text().replace("z1^1", "z1^2", 1))
        assert other != m
        assert len({m, again, other}) == 2


class TestStoredForm:
    """zcodes is a grid of the shape of exps, zoverflow holds only what no
    code carries, and the derived zrows is in the normal form of _terms."""

    # repeated indices merge, and cancelling ones leave a pure () cell
    CELLS = (
        ((3, ((2, 1), (1, -1), (2, 1))), (-1, ())),
        ((9, [(1, 1), (1, -1)]), (0, ((3, 2),))),
    )

    # a z_0, a power 2 and two factors have no code; z1^1*z1^1*z1^-1
    # and z0^1*z0^-1 normalize to cells that need no overflow
    OVERFLOW_TEXT = (
        "root_order 5\n"
        "q^1*z0^1 q^4*z1^2 q^2\n"
        "q^1*z1^1*z2^1 q^4*z1^1*z1^1*z1^-1 q^3*z0^1*z0^-1\n"
        "q^0*z2^-3 q^1*z3^-1 q^9*z0^-1*z4^1\n"
    )

    @classmethod
    def matrices(cls):
        ring = circle("A3", 2)
        built = construct(ring)
        yield built
        yield BraidingMatrix.from_text(built.to_text())
        yield BraidingMatrix.from_cells(7, cls.CELLS)
        yield built.instantiate()
        yield built.instantiate({t: t for t in built.z_indices()[::2]})
        pair = component_diag(["A1", "A1"], [(0, 1)])
        yield direct_sum([(ring, built), (pair, construct(pair, d=7))])
        yield excluded_case_matrix(3, 3)[1]
        yield realize_free(built, ring).braiding_matrix()
        odd = BraidingMatrix.from_text(cls.OVERFLOW_TEXT)
        yield odd
        free, a3 = component_diag(["A1"], []), component_diag(["A3"], [])
        yield direct_sum([(free, construct(free, d=5)), (a3, odd)])

    def test_zrows_is_a_normal_grid_of_the_shape_of_exps(self):
        pure = symbolic = 0
        for m in self.matrices():
            assert len(zrows_of(m)) == len(m.exps) == m.size
            for row, zrow in zip(m.exps, zrows_of(m)):
                assert type(zrow) is tuple and len(zrow) == len(row)
                for e, terms in zip(row, zrow):
                    assert 0 <= e < m.order
                    # a pure entry is (), a symbolic one its terms sorted
                    # by index, each index once and every power nonzero
                    assert type(terms) is tuple
                    indices = [t for t, _ in terms]
                    assert indices == sorted(set(indices))
                    assert all(type(k) is int and k for _, k in terms)
                    pure += not terms
                    symbolic += bool(terms)
        assert pure and symbolic

    def test_from_cells_normalizes(self):
        zrows = ((((1, -1), (2, 2)), ()), ((), ((3, 2),)))
        got = BraidingMatrix.from_cells(7, self.CELLS)
        assert (got.exps, zrows_of(got)) == (((3, 6), (2, 0)), zrows)
        # neither z-part has a code: both cells are in the overflow
        overflow = (((0, 0), zrows[0][0]), ((1, 1), zrows[1][1]))
        assert got == BraidingMatrix(7, ((3, 6), (2, 0)), ((0, 0), (0, 0)), overflow)

    def test_pure_matrices_share_one_row(self):
        ring = circle("A3", 2)
        built = construct(ring)
        datum = realize_free(built, ring)
        pure = (built.instantiate(), built.instantiate({1: 2}), datum.braiding_matrix())
        for m in pure:
            assert len({id(zrow) for zrow in m.zcodes}) == 1
            assert m.zcodes[0] == (0,) * m.size and m.zoverflow == ()
            assert zrows_of(m)[0] == ((),) * m.size

    @staticmethod
    def written():
        """Matrices the library writes itself, each cell z_t^+-1 or pure."""
        ring = circle("A3", 2)
        built = construct(ring)
        yield built
        yield built.instantiate()
        yield built.instantiate({t: 2 * t for t in built.z_indices()})
        pair = component_diag(["A1", "A1"], [(0, 1)])
        yield direct_sum([(ring, built), (pair, construct(pair, d=7))])
        yield excluded_case_matrix(3, 3)[1]
        yield brute_force_exists(ring, n_max=12).matrix
        for labels, pairs in islice(small_family(), 60):
            d = component_diag(list(labels), list(pairs))
            if d.is_link_connected() and check(d).decision == "yes":
                yield construct(d)
                yield brute_force_exists(d, n_max=12).matrix

    def test_written_matrices_keep_an_empty_overflow(self):
        count = 0
        for m in self.written():
            assert m.zoverflow == ()
            assert all(type(c) is int for row in m.zcodes for c in row)
            count += 1
        assert count > 50

    def test_a_cell_with_a_code_is_never_in_the_overflow(self):
        seen = 0
        for m in self.matrices():
            cells = [cell for cell, _ in m.zoverflow]
            assert cells == sorted(set(cells))
            for i, zrow in enumerate(zrows_of(m)):
                for j, terms in enumerate(zrow):
                    if len(terms) == 1 and terms[0][0] > 0 and abs(terms[0][1]) == 1:
                        assert m.zcodes[i][j] == terms[0][0] * terms[0][1]
                        assert (i, j) not in cells
                    elif terms:
                        assert m.zcodes[i][j] == 0 and (i, j) in cells
                        seen += 1
                    else:
                        assert m.zcodes[i][j] == 0 and (i, j) not in cells
        assert seen > 8
        *_, odd, summed = self.matrices()
        assert odd.zcodes == ((0, 0, 0), (0, 1, 0), (0, -3, 0))
        cells = [cell for cell, _ in odd.zoverflow]
        assert cells == [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2)]
        # direct_sum renumbers z_0 to z_1, and z_0^1 gets a code
        assert summed.z_indices() == (1, 2, 3, 4, 5, 6, 7, 8)
        for i, j in product(range(3), repeat=2):
            renumbered = tuple((t + 1, k) for t, k in zrows_of(odd)[i][j])
            assert zrows_of(summed)[i + 1][j + 1] == renumbered
        assert summed.zcodes[1][1] == 1 and (1, 1) not in dict(summed.zoverflow)
        assert zrows_of(summed)[3][3] == ((1, -1), (5, 1))

    def test_rebuilt_matrices_compare_and_hash_equal(self):
        for m in self.matrices():
            rebuilt = (
                BraidingMatrix.from_text(m.to_text()),
                BraidingMatrix.from_cells(
                    m.order, [list(zip(r, z)) for r, z in zip(m.exps, zrows_of(m))]
                ),
                matrix_of(m.order, entries_of(m)),
            )
            for again in rebuilt:
                assert again == m and hash(again) == hash(m)

    @pytest.mark.parametrize(
        "order, cells, message",
        [
            (0, [[(1, ())]], "order must be positive"),
            (-5, [[(1, ())]], "order must be positive"),
            (5, [[(1, ()), (4, ())], [(1, ())]], "matrix is not square"),
        ],
    )
    def test_from_cells_refuses(self, order, cells, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BraidingMatrix.from_cells(order, cells)

    def test_no_cells_at_any_order(self):
        # no entry to reduce: a bare "root_order 0" header parses as before
        assert BraidingMatrix.from_cells(0, []).size == 0


def reference_from_text(text):
    """BraidingMatrix.from_text as it was: one RootExpr per token.

    Its ValueError texts are raised as MalformedMatrix, the class the
    CLI reports as bad input.
    """

    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) < 2 or header[0] != "root_order":
        raise MalformedMatrix("missing root_order header")
    try:
        order = int(header[1])
        rows = tuple(
            tuple(Root.parse(tok, order) for tok in ln.split()) for ln in lines[1:]
        )
        return matrix_of(order, rows)
    except ValueError as exc:
        raise MalformedMatrix(str(exc)) from None


def parse_outcome(parse, text):
    """The stored form of the parsed matrix, or the error type and text."""
    try:
        m = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return m.order, m.exps, zrows_of(m)


def random_token(order, rng):
    """An entry token with repeated indices, zero and negative powers."""
    e = rng.randrange(-3 * order, 3 * order)
    count = rng.choice((0, 0, 1, 2, 4))
    zs = [(rng.randrange(1, 5), rng.randrange(-3, 4)) for _ in range(count)]
    return f"q^{e}" + "".join(f"*z{t}^{k}" for t, k in zs)


class TestMatrixTextAgainstReference:
    """from_text parses tokens to integers; the test-side parse is the reference."""

    @staticmethod
    def golden_texts():
        for label, n in (("A3", 2), ("A3", 16), ("B3", 3), ("B3", 8)):
            yield construct(circle(label, n)).to_text()
        for _, _, text in TestOracle.GOLDEN_WITNESSES:
            yield text

    def test_golden_matrices(self):
        for text in self.golden_texts():
            got = BraidingMatrix.from_text(text)
            assert parse_outcome(BraidingMatrix.from_text, text) == parse_outcome(
                reference_from_text, text
            )
            assert got.to_text() == text

    def test_random_token_grids(self):
        rng = random.Random(20020712)
        merged = 0
        for _ in range(300):
            order = rng.choice((1, 3, 5, 7, 12))
            s = rng.randrange(1, 5)
            rows = [[random_token(order, rng) for _ in range(s)] for _ in range(s)]
            text = f"root_order {order}\n" + "".join(" ".join(r) + "\n" for r in rows)
            got = parse_outcome(BraidingMatrix.from_text, text)
            assert got == parse_outcome(reference_from_text, text), text
            m = BraidingMatrix.from_text(text)
            for i, row in enumerate(rows):
                for j, tok in enumerate(row):
                    # an independent normal form: sum per index, drop zeros
                    powers = {}
                    for t, k in ENTRY_ZPART.findall(tok):
                        powers[int(t)] = powers.get(int(t), 0) + int(k)
                    terms = tuple(sorted((t, k) for t, k in powers.items() if k))
                    assert zrows_of(m)[i][j] == terms
                    assert m.exps[i][j] == int(tok[2:].split("*")[0]) % order
                    merged += tok.count("*z") > len(terms)
        assert merged > 100

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "hello\n",
            "root_order\nq^1 q^4\nq^1 q^4\n",
            "root_order \nq^1 q^4\nq^1 q^4\n",
            "root_order five\n",
            "root_order 5\nq^1 q^x\nq^1 q^4\n",
            "root_order 5\nq^1 q^4\nq^1\n",
            "root_order 5\nq^1 q^4\nq^x\n",
            "root_order 0\n",
            "root_order 0\nq^1 q^4\nq^1 q^4\n",
            "root_order 0\nq^1 q^x\nq^1 q^4\n",
            "root_order 0\nq^x q^4\nq^1 q^4\n",
            "root_order 0\nq^1\nq^1 q^4\n",
            "root_order -5\nq^1*z1^2 q^4\nq^1 q^4\n",
            "root_order -5\nz1^2 q^4\nq^1 q^4\n",
            "root_order -5\nq^1 q^4 q^2\n",
        ],
    )
    def test_malformed_text_same_message(self, text):
        got = parse_outcome(BraidingMatrix.from_text, text)
        assert got == parse_outcome(reference_from_text, text)

    @pytest.mark.parametrize("token", ["q^+4", "q^1_0", "q^1*z+1^1", "q^1*z1^"])
    def test_int_syntax_the_grammar_refuses(self, token):
        # int() reads "+4" and "1_0"; the token grammar does not
        text = f"root_order 5\nq^1 q^4\nq^1 {token}\n"
        with pytest.raises(MalformedMatrix) as info:
            BraidingMatrix.from_text(text)
        assert str(info.value) == f"bad root expression {token!r}"
        assert parse_outcome(BraidingMatrix.from_text, text) == parse_outcome(
            reference_from_text, text
        )

    @pytest.mark.parametrize(
        "token",
        [
            "q^-0",
            "q^007*z001^-1",
            "q^3*z0^1",
            "q^3*z00^-1",
            "q^2*z1^-01",
            "q^2*z1^2",
            "q^2*z1^1*z1^-1",
            "q^2*z2^1*z1^1",
            "q^٣*z١^1",
            # leading zeros in t and k, z0 and z00, a power -0, and a
            # first factor of power +-1 followed by more factors
            "q^1*z007^01",
            "q^4*z00^-1",
            "q^2*z0^0",
            "q^-6*z3^-0*z3^1",
            "q^1*z2^-0",
            "q^1*z01^-1*z1^1",
            "q^1*z1^1*z2^1",
            "q^1*z2^-1*z1^-1*z2^1",
            "q^1*z1^-1*z1^-1",
            "q^1*z1^1*z0^1",
        ],
    )
    def test_edge_tokens_match_reference(self, token):
        text = f"root_order 5\n{token} q^4\nq^1 q^4*z1^1\n"
        got = BraidingMatrix.from_text(text)
        assert parse_outcome(BraidingMatrix.from_text, text) == parse_outcome(
            reference_from_text, text
        )
        assert got == reference_from_text(text)

    @pytest.mark.parametrize(
        "text", ["hello\n", "root_order five\n", "root_order 5\nq^1 q^4\nq^1\n"]
    )
    def test_malformed_text_is_input_error(self, text):
        # the CLI reports an InputError as bad input; callers that catch
        # ValueError still see one
        with pytest.raises(MalformedMatrix) as info:
            BraidingMatrix.from_text(text)
        assert isinstance(info.value, InputError)
        assert isinstance(info.value, ValueError)

    def test_builds_no_root_expr(self, monkeypatch):
        text = construct(prism(4)).to_text()
        created = []
        post_init = RootExpr.__post_init__

        def counted(obj):
            created.append(obj)
            post_init(obj)

        monkeypatch.setattr(RootExpr, "__post_init__", counted)
        matrix = BraidingMatrix.from_text(text)
        assert created == []
        assert matrix.to_text() == text


class TestInstantiate:
    @staticmethod
    def matrices():
        for labels, pairs in small_family():
            d = component_diag(list(labels), list(pairs))
            if d.is_link_connected() and check(d).decision == "yes":
                yield construct(d)
        for label, n in (("A3", 2), ("A3", 8), ("B3", 3), ("B3", 8)):
            yield construct(circle(label, n))

    def test_default_equals_the_general_path(self):
        count = 0
        for m in self.matrices():
            fast = m.instantiate()
            # no z_0 exists, so this takes the general path with every z_t = 1
            general = m.instantiate({0: 0})
            assert (fast.order, fast.exps, zrows_of(fast)) == (
                general.order,
                general.exps,
                zrows_of(general),
            )
            assert not any(chain.from_iterable(zrows_of(fast)))
            assert all(
                entry_of(fast, i, j) == entry_of(m, i, j).substitute()
                for i in range(m.size)
                for j in range(m.size)
            )
            count += 1
        assert count > 100

    def test_values_substitute_per_entry(self):
        # z_t = q^values[t], and 1 for the parameters left out
        m = construct(circle("A3", 2))
        rng = random.Random(11)
        values = {
            t: rng.randrange(-3 * m.order, 3 * m.order) for t in m.z_indices()[::2]
        }
        roots = {t: Root.root(m.order, e) for t, e in values.items()}
        inst = m.instantiate(values)
        assert not any(chain.from_iterable(zrows_of(inst)))
        for i in range(m.size):
            for j in range(m.size):
                assert entry_of(inst, i, j) == entry_of(m, i, j).substitute(roots)


class TestAdmissibleOrders:
    def test_divisors_of_genus_gcd(self):
        assert admissible_orders(circle("B3", 2)) == (3,)
        assert admissible_orders(circle("B3", 4)) == (3, 5, 15)

    def test_construct_lists_the_divisors_once(self):
        # check lists the divisors of G = 2^8 - 1, and construct's own
        # choice of order reads the same list
        fields._divisors.cache_clear()
        assert construct(circle("B3", 8)).order == 255
        info = fields._divisors.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_large_genus_gcd_lists_its_divisors(self):
        # a ring of n B3 components has genus gcd 2^n - (-1)^n, and
        # 2^28 - 1 = (3 * 43 * 127)(5 * 29 * 113): every product of a
        # nonempty subset of those primes is admissible in finite mode
        d = circle("B3", 28)
        primes = (3, 5, 29, 43, 113, 127)
        want = sorted(
            prod(s) for k in range(1, 7) for s in combinations(primes, k)
        )
        report = check(d)
        assert report.genus_gcd == 2**28 - 1
        assert report.admissible == tuple(want)
        m = construct(d)
        assert m.order == 2**28 - 1
        assert verify(d, m).ok

    def test_genus_gcd_above_the_divisor_limit_is_refused(self):
        # 2^48 - 1 is above 10^14, the largest number divisors lists
        d = circle("B3", 48)
        assert linkdyn.cycles.genus_gcd(d) == 2**48 - 1
        for op in (check, construct, admissible_orders):
            with pytest.raises(ScaleExceeded, match="divisor limit"):
                op(d)

    def test_affine_diagram_lists_what_construct_accepts(self):
        d = component_diag(["A1", "A1"], [(0, 1)], mode="affine")
        out = admissible_orders(d, bound=20)
        assert out == (5, 7, 11, 13, 17, 19)
        assert construct(d).order == out[0]
        with pytest.raises(InadmissibleD, match="prime above 3"):
            construct(d, d=3)

    def test_affine_ring_with_triple_edges(self):
        # two G2(1) components joined in a ring: the triple edges lie on
        # the cycle, which only the affine vocabulary prices
        d = parse(
            "vertices 6\nedge 1 2 -1 -1\nedge 2 3 -1 -3\nedge 4 5 -1 -1\n"
            "edge 5 6 -1 -3\nlink 1 4\nlink 3 6\nmode affine\n"
        ).diagram
        assert linkdyn.cycles.genus_gcd(d) == 0
        out = admissible_orders(d)
        assert out[0] == 5
        report = check(d)
        assert (report.decision, report.genus_gcd) == ("yes", 0)
        assert report.admissible == out[:8]

    def test_no_cycles_gives_primes(self):
        d = component_diag(["A2", "A2"], [(0, 2)])
        out = admissible_orders(d, bound=20)
        assert out == (3, 5, 7, 11, 13, 17, 19)

    def test_g2_strips_multiples_of_three(self):
        d = component_diag(["G2", "A1"], [(1, 2)])
        out = admissible_orders(d, bound=20)
        assert 3 not in out and out[0] == 5

    def test_field_restriction(self):
        d = component_diag(["A2", "A2"], [(0, 2)])
        out = admissible_orders(d, field=FieldSpec("gf", q=11), bound=20)
        assert out == (5,)
        # the bound only limits the listing of a cyclotomic field
        out = admissible_orders(d, field=FieldSpec("gf", q=227), bound=20)
        assert out == (113,)

    def test_ord_diagonal(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        m = construct(d, d=5)
        assert ord_diagonal(m, 0) == 5
        q2 = Root.root(10, 2)
        m10 = matrix_of(10, ((q2, q2.inv()), (q2, q2.inv())))
        assert ord_diagonal(m10, 0) == 5
        with pytest.raises(IndexOutOfRange):
            ord_diagonal(m, 2)
        symbolic = matrix_of(5, ((Root.z(5, 1) * Root.root(5, 2),),))
        with pytest.raises(ValueError, match=r"q\^2\*z1\^1 contains free parameters"):
            ord_diagonal(symbolic, 0)


def reference_has_g2(diagram):
    """Whether the finite catalog finds a G2 component, asked of the classifier."""
    return any(c.label == "G2" for c in classify_components(diagram, "finite"))


def reference_admissible_orders(diagram, field, big_g, bound=100):
    """The admissible orders by the filter that _order_fault replaced.

    Kept as the reference, with its own copy of the mode rule.
    """
    mode = diagram.mode
    g2 = mode == "finite" and reference_has_g2(diagram)
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


def reference_validate_order(diagram, d, field, big_g):
    """The checked or chosen root order, by the checks _order_fault replaced."""
    mode = diagram.mode
    if d is None:
        choices = reference_admissible_orders(diagram, field, big_g)
        if mode == "finite" and big_g > 0:
            if not choices:
                raise NoAdmissibleOrder(
                    f"no admissible root order divides the genus gcd {big_g}"
                )
            return choices[-1]
        choices = tuple(c for c in choices if c >= 5)
        if not choices:
            raise NoAdmissibleOrder("the field provides no admissible root order")
        return choices[0]
    if mode == "finite":
        if d <= 2:
            raise InadmissibleD(f"root order {d} must exceed 2")
        if d % 2 == 0:
            raise InadmissibleD(f"root order {d} must be odd")
        if reference_has_g2(diagram) and d % 3 == 0:
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


def order_outcome(validate, diagram, d, field, big_g):
    """The chosen root order, or the exception type and text."""
    try:
        return validate(diagram, d, field, big_g)
    except Exception as exc:
        return type(exc), str(exc)


class TestOrderRuleAgainstReference:
    """_order_fault's one rule against the two copies it replaced.

    The reference scans every integer up to the genus gcd; the rings of
    up to 16 B3 components reach G = 65535, where that scan still runs
    quickly, and check the divisor list against it.
    """

    FIELDS = (
        CYCLOTOMIC,
        FieldSpec("gf", q=31),
        FieldSpec("gf", q=11),
        FieldSpec("roots", orders=(12, 7)),
    )

    def diagrams(self):
        for labels, pairs in small_family():
            yield component_diag(list(labels), list(pairs))
        for label in ("A3", "B3"):
            for n in range(2, 17):
                yield circle(label, n)

    def test_orders_and_messages_match_reference(self):
        messages, gs = set(), set()
        for d in self.diagrams():
            for mode in ("finite", "affine"):
                dm = replace(d, mode=mode)
                try:
                    big_g = linkdyn.cycles.genus_gcd(dm)
                except Exception:
                    continue
                gs.add(big_g)
                for field in self.FIELDS:
                    got = braiding._admissible_orders(dm, field, big_g)
                    want = reference_admissible_orders(dm, field, big_g)
                    assert got == want, (dm, field, big_g)
                    for order in chain(range(-2, 61), [None]):
                        got = order_outcome(
                            braiding._validate_order, dm, order, field, big_g
                        )
                        want = order_outcome(
                            reference_validate_order, dm, order, field, big_g
                        )
                        assert got == want, (dm, order, field, big_g)
                        if not isinstance(got, int):
                            messages.add(got[1])
        # cycle-free diagrams and several nonzero genus gcds were met, and
        # every message of the rule was given
        assert 0 in gs and len(gs) > 2 and 2**16 - 1 in gs
        for phrase in (
            "must exceed 2",
            "must be odd",
            "with a G2 component present",
            "must be a prime above 3",
            "does not divide the genus gcd",
            "has no primitive root",
            "no admissible root order divides",
            "the field provides no",
        ):
            assert any(phrase in m for m in messages), phrase


class TestOracle:
    def test_single_vertex_witness_at_five(self):
        d = component_diag(["A1"], [])
        res = brute_force_exists(d, n_max=30)
        assert res.found and res.root_order == 5

    def test_finds_crosswise_pair(self):
        d = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        res = brute_force_exists(d, n_max=10)
        assert res.found
        assert verify(d, res.matrix).ok

    def test_none_for_odd_circle(self):
        res = brute_force_exists(circle("A3", 3), n_max=12)
        assert not res.found
        assert res.matrix is None and res.n_max == 12
        # a diagram with a genus 1 cycle
        bad = component_diag(["A3", "B3"], [(0, 3), (2, 5)])
        res = brute_force_exists(bad, n_max=12)
        assert not res.found and res.matrix is None

    def test_embedded_low_orders_are_reached(self):
        # sole admissible order is 3; n = 5 has no witness, n = 6 embeds it
        d = circle("B3", 2)
        res = brute_force_exists(d, n_max=30)
        assert res.found and res.root_order == 6
        assert all(ord_diagonal(res.matrix, v) == 3 for v in range(d.size))
        assert verify(d, res.matrix).ok

    def test_classifies_once(self, count_calls):
        # a "no" whose diagonals pass, so every candidate reaches verify:
        # the dotted edges disagree on the entries between their ends
        counts = []
        for n_max in (12, 30):
            d = component_diag(["A2", "A3"], [(0, 2), (1, 4)])
            calls = count_calls(linkdyn.diagram, "_shape")
            assert not brute_force_exists(d, n_max=n_max).found
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_order_checks_follow_the_diagonals(self, count_calls):
        # a "no" with one diagonal per order: its entries, not every
        # exponent below each order, are checked
        d = component_diag(["A2", "A3"], [(0, 2), (1, 4)])
        calls = count_calls(braiding, "_order_ok")
        assert not brute_force_exists(d, n_max=2000).found
        assert len(calls) <= 4000

    def test_walks_the_link_graph_once(self, count_calls):
        walks = count_calls(linkdyn.diagram, "_breadth_first")
        assert brute_force_exists(circle("A3", 2), n_max=12).found
        assert len(walks) == 1

    def test_requires_link_connected(self):
        with pytest.raises(NotLinkConnected):
            brute_force_exists(component_diag(["A1", "A1"], []))

    def test_selflink_mode_rejected(self):
        # UnsupportedMode stays a ValueError for library callers
        d = diag(block_rows(["A2"]), [(0, 1)], mode="selflink")
        for call in (construct, brute_force_exists, admissible_orders):
            with pytest.raises(UnsupportedMode) as info:
                call(d)
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("mode", ["finite", "affine"])
    def test_unrecognized_component_rejected_like_check(self, mode, count_calls):
        d = diag(UNRECOGNIZED_ROWS, [(0, 2)], mode=mode)
        with pytest.raises(UnsupportedComponentType) as expected:
            check(d)
        tried = count_calls(braiding, "_order_ok")
        with pytest.raises(UnsupportedComponentType) as info:
            brute_force_exists(d)
        assert str(info.value) == str(expected.value)
        kind = "finite" if mode == "finite" else "finite or affine"
        assert str(info.value) == (
            f"component with vertices 1, 2 is not of a recognized {kind} type"
        )
        assert tried == []

    @pytest.mark.parametrize("n_max", [-3, 0, 4])
    def test_order_bound_below_five_rejected(self, n_max):
        d = component_diag(["A1"], [])
        with pytest.raises(ValueError, match="below 5"):
            brute_force_exists(d, n_max=n_max)
        assert brute_force_exists(d, n_max=5).root_order == 5

    def test_builds_only_the_witness(self, count_calls):
        built = count_calls(braiding, "_completed")
        verified = count_calls(braiding, "verify")
        assert brute_force_exists(circle("B3", 2), n_max=30).found
        assert (len(built), len(verified)) == (1, 1)
        # a "no" whose diagonals pass the edge constraints: the forms are
        # read off the diagram once and no matrix is built
        compiled = count_calls(braiding, "_diagonal_forms")
        del built[:], verified[:]
        d = component_diag(["A2", "A3"], [(0, 2), (1, 4)])
        assert not brute_force_exists(d, n_max=12).found
        assert (len(compiled), built, verified) == (1, [], [])

    @pytest.mark.parametrize(
        "d",
        [
            circle("A3", 3),
            component_diag(["A2", "A3"], [(0, 2), (1, 4)]),
            component_diag(["A3", "B3"], [(0, 3), (2, 5)]),
        ],
        ids=["odd-A3-ring", "A2-A3-no", "A3-B3-genus-1"],
    )
    def test_orders_no_vertex_can_meet_are_skipped(self, d, count_calls):
        # every diagonal of these has an entry of order 1 or 2, which the
        # generators show before any diagonal is listed
        tried = count_calls(braiding, "_order_ok")
        assert not brute_force_exists(d, n_max=2000).found
        assert tried == []

    def test_scale_exceeded(self, monkeypatch, count_calls):
        # the linked pair leaves one exponent free: n diagonals at order n;
        # order 5 answers, so a limit below 5 refuses there, before any
        # diagonal is listed, whatever the bound
        d = component_diag(["A1", "A1"], [(0, 1)])
        assert brute_force_exists(d, n_max=2_000_010).root_order == 5
        monkeypatch.setattr(braiding, "_Z_LIMIT", 4)
        tested = count_calls(braiding, "_order_ok")
        with pytest.raises(ScaleExceeded) as info:
            brute_force_exists(d, n_max=2_000_010)
        assert str(info.value) == (
            "5 diagonal assignments at 2 vertices; "
            "shrink the diagram or the order bound"
        )
        assert tested == []

    def test_bounded_invariant_factors_skip_the_refusal_pass(self, monkeypatch):
        asked = []
        has_root = FieldSpec.has_primitive_root

        def counted(field, n):
            asked.append(n)
            return has_root(field, n)

        monkeypatch.setattr(FieldSpec, "has_primitive_root", counted)
        # the odd A3 ring of 3 has invariant factors +-1 and 2 and no free
        # column, so each entry's order divides 2 at every n: the answer
        # comes before the scan, and no order is asked for
        assert not brute_force_exists(circle("A3", 3), n_max=200_000).found
        assert asked == []
        # invariant factors 1, 1, 1, 1, 4: an entry of order 4 is not ruled
        # out, so the orders are scanned, each asked for once, ascending,
        # where a refusal pass would first ask for every one from n_max
        # down; with no free column the outcome at n follows gcd(n, 4), so
        # the scan ends at 4 + 4
        d = component_diag(["A1", "B2", "B2"], [(0, 2), (1, 4)])
        assert not brute_force_exists(d, n_max=200_000).found
        assert asked == [5, 6, 7, 8]

    def test_scale_refusal_names_the_first_order_over_the_limit(self, monkeypatch):
        # invariant factors 0 and 2: n * gcd(2, n) diagonals at order n.
        # Only the order that answers is counted: 5 here, whatever the
        # bound, and 6 over GF(13), which has no fifth root of unity
        d = component_diag(["B2", "B2"], [(1, 3)])
        for n_max in (30, 2_000_000, 2_000_001):
            assert brute_force_exists(d, n_max=n_max).root_order == 5
        gf13 = FieldSpec("gf", q=13)
        assert brute_force_exists(d, n_max=2_000_001, field=gf13).root_order == 6
        for limit, field, count in ((4, CYCLOTOMIC, 5), (11, gf13, 12)):
            monkeypatch.setattr(braiding, "_Z_LIMIT", limit)
            with pytest.raises(ScaleExceeded) as info:
                brute_force_exists(d, n_max=2_000_001, field=field)
            assert str(info.value) == (
                f"{count} diagonal assignments at 4 vertices; "
                "shrink the diagram or the order bound"
            )
            monkeypatch.setattr(braiding, "_Z_LIMIT", count)
            assert brute_force_exists(d, n_max=2_000_001, field=field).found

    def test_every_order_past_the_caps_has_a_fitting_diagonal(self):
        # the oracle takes the least fitting diagonal of each order its
        # caps let through, so none of those orders may be empty
        def fits_everywhere(d, n_max):
            if not d.is_link_connected():
                return 0
            try:
                braiding._recognized_components(d)
            except UnsupportedComponentType:
                return 0
            s, mode, has_g2 = d.size, d.mode, d.has_g2
            diag_, cols = braiding._diagonalize(braiding._diagonal_forms(d), s)
            tried = 0
            for n in range(5, n_max + 1):
                if mode == "affine" and not is_prime(n):
                    continue
                gens = [
                    (m, [c * (n // m) for c in col])
                    for x, col in zip(diag_, cols)
                    if (m := gcd(x, n)) > 1
                ]
                caps = [n // gcd(n, *(g[p] for _, g in gens)) for p in range(s)]
                if any(braiding._no_admissible_order(c, mode, has_g2) for c in caps):
                    continue
                tried += 1
                assert any(
                    all(
                        braiding._order_ok(
                            sum(k * g[p] for k, (_, g) in zip(ks, gens)) % n,
                            n,
                            mode,
                            has_g2,
                        )
                        for p in range(s)
                    )
                    for ks in product(*(range(m) for m, _ in gens))
                ), (d, n)
            return tried

        tried = sum(
            fits_everywhere(component_diag(labels, pairs, mode=mode), 36)
            for labels, pairs in small_family()
            for mode in ("finite", "affine")
        )
        rng = random.Random(23)
        tried += sum(fits_everywhere(random_diagram(rng)[1], 24) for _ in range(300))
        assert tried > 5000

    # the first witness in scan order, byte for byte
    GOLDEN_WITNESSES = [
        (component_diag(["A1"], []), 30, "root_order 5\nq^1\n"),
        (
            component_diag(["A2", "A2"], [(0, 2), (1, 3)]),
            10,
            "root_order 5\n"
            "q^1 q^4*z1^-1 q^4 q^1*z1^1\n"
            "q^0*z1^1 q^1 q^0*z1^-1 q^4\n"
            "q^1 q^0*z1^1 q^4 q^0*z1^-1\n"
            "q^4*z1^-1 q^1 q^1*z1^1 q^4\n",
        ),
        (
            circle("B3", 2),
            30,
            "root_order 6\n"
            "q^2 q^4*z2^-1 q^0*z6^-1 q^0*z6^1 q^0*z3^-1 q^4\n"
            "q^0*z2^1 q^2 q^0*z4^1 q^0*z4^-1 q^0*z1^-1 q^0*z2^-1\n"
            "q^0*z6^1 q^2*z4^-1 q^4 q^2 q^0*z5^-1 q^0*z6^-1\n"
            "q^0*z6^-1 q^0*z4^1 q^4 q^2 q^4*z5^1 q^0*z6^1\n"
            "q^0*z3^1 q^0*z1^1 q^0*z5^1 q^0*z5^-1 q^2 q^0*z3^-1\n"
            "q^2 q^0*z2^1 q^0*z6^1 q^0*z6^-1 q^2*z3^1 q^4\n",
        ),
        (
            component_diag(["G2", "A1"], [(1, 2)]),
            30,
            "root_order 5\n"
            "q^1 q^0*z1^1 q^0*z1^-1\n"
            "q^2*z1^-1 q^3 q^2\n"
            "q^0*z1^1 q^3 q^2\n",
        ),
        (
            component_diag(["A1(1)", "A1(1)"], [(0, 2)], mode="affine"),
            30,
            "root_order 5\n"
            "q^1 q^3*z2^-1 q^4 q^0*z3^-1\n"
            "q^0*z2^1 q^1 q^0*z2^-1 q^0*z1^-1\n"
            "q^1 q^0*z2^1 q^4 q^2*z3^1\n"
            "q^0*z3^1 q^0*z1^1 q^0*z3^-1 q^4\n",
        ),
    ]

    @pytest.mark.parametrize(
        "d, n_max, text",
        GOLDEN_WITNESSES,
        ids=["A1", "A2-A2-crosswise", "B3-ring", "G2-A1", "affine-A1(1)-A1(1)"],
    )
    def test_golden_witness(self, d, n_max, text):
        res = brute_force_exists(d, n_max=n_max)
        assert res.found and res.root_order == res.matrix.order
        assert res.matrix.to_text() == text
        assert verify(d, res.matrix).ok


def forms_hold(forms, n, exps):
    """Whether diagonal q^exps at order n satisfies every identity form."""
    return all(sum(c * exps[v] for v, c in form) % n == 0 for form in forms)


def differing_order(forms, other, s, orders):
    """The first order at which two form lists accept different diagonals.

    At order n each list accepts a subgroup of (Z/n)^s, whose size and
    generators _diagonalize gives; equal sizes and each side's
    generators satisfying the other side's forms mean equal sets.  None
    when they agree at every order.
    """
    sides = [
        (braiding._diagonalize(f, s), g) for f, g in ((forms, other), (other, forms))
    ]
    for n in orders:
        sizes = set()
        for (diag, cols), others in sides:
            sizes.add(prod(gcd(x, n) for x in diag))
            gens = (
                [c * (n // m) for c in col]
                for x, col in zip(diag, cols)
                if (m := gcd(x, n)) > 1  # with m = 1 the generator is 0
            )
            if not all(forms_hold(others, n, g) for g in gens):
                return n
        if len(sizes) > 1:
            return n
    return None


def reference_offdiagonal_entries(diagram):
    """Fill all off-diagonal entries from the diagonal, as slots.

    The slot dict the completion was filled from until it wrote its
    grid rows directly, kept as the reference.  Each off-diagonal entry
    is (v, c, t, k): b_vv^c * z_t^k for every diagonal and root order,
    t = 0 meaning no z_t.  Ordered vertex pairs split into four classes
    by which ends lie on dotted edges; each class instance uses one
    fresh parameter z_t and every ordered pair is set exactly once.
    """
    a = dense_rows(diagram.cartan)
    out = {}
    z = 0

    # linkable pairs themselves
    for i, j in diagram.linkable:
        out[(i, j)] = (i, -1, 0, 0)
        out[(j, i)] = (j, -1, 0, 0)

    free = [v for v in range(diagram.size) if diagram.partner(v) is None]

    # neither end on a dotted edge
    for i, j in combinations(free, 2):
        z += 1
        out[(j, i)] = (i, 0, z, 1)
        out[(i, j)] = (i, a[i][j], z, -1)

    # one end on a dotted edge {i,k}, the other end j free
    for (i, k), j in product(diagram.linkable, free):
        z += 1
        out[(j, i)] = (i, 0, z, 1)
        out[(i, j)] = (i, a[i][j], z, -1)
        out[(j, k)] = (k, 0, z, -1)
        out[(k, j)] = (k, a[k][j], z, 1)

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
        c = a[i][j]  # the entries carry b_ii^c, its inverse or neither
        out[(j, i)] = (i, 0, z, 1)
        out[(k, j)] = (i, 0, z, 1)
        out[(i, j)] = (i, c, z, -1)
        out[(l, i)] = (i, c, z, -1)
        out[(j, k)] = (i, 0, z, -1)
        out[(k, l)] = (i, 0, z, -1)
        out[(i, l)] = (i, -c, z, 1)
        out[(l, k)] = (i, -c, z, 1)
    return out


def reference_completed(diagram, d, exps):
    """The completion at diagonal q^exps, filled from the reference slots."""
    s = diagram.size
    grid = [[0] * s for _ in range(s)]
    zrows = [[()] * s for _ in range(s)]
    for i in range(s):
        grid[i][i] = exps[i] % d
    for (i, j), (v, c, t, k) in reference_offdiagonal_entries(diagram).items():
        grid[i][j] = c * exps[v] % d
        if t:
            zrows[i][j] = ((t, k),)
    return BraidingMatrix.from_cells(d, [list(zip(*r)) for r in zip(grid, zrows)])


class TestCompletionAgainstReference:
    """_completed's grid rows against the slot dict they replaced."""

    # (root order, diagonal exponents as a function of the vertex)
    DIAGONALS = (
        (5, lambda v: 1),
        (7, lambda v: v + 3),
        (12, lambda v: -v - 1),
        (2**20 - 1, lambda v: 1000 * v + 2**19),
    )

    def agree(self, diagram):
        for n, diagonal in self.DIAGONALS:
            exps = [diagonal(v) for v in range(diagram.size)]
            got = braiding._completed(diagram, n, exps)
            want = reference_completed(diagram, n, exps)
            assert (got.order, got.exps, zrows_of(got)) == (
                want.order,
                want.exps,
                zrows_of(want),
            ), (diagram, n)
            assert got.to_text() == want.to_text()

    def test_small_family(self):
        for labels, pairs in small_family():
            self.agree(component_diag(list(labels), list(pairs)))

    def test_rings_and_prisms(self):
        for label in ("A3", "B3"):
            for n in range(2, 17):
                self.agree(circle(label, n))
        for k in (4, 16):
            self.agree(prism(k))

    def test_random_diagrams(self):
        rng = random.Random(20200209)
        for _ in range(2000):
            _, d = random_diagram(rng)
            self.agree(d)


def reference_identity_forms(diagram):
    """The product and linking identities as forms under the completion.

    The forms the oracle read until it derived them from the diagram,
    kept as the reference.  Every entry of construct's four-class
    completion is b_vv^c z_t^k, so every identity _failures checks is a
    product of diagonal entries and fresh z_t.  With diagonal q^e at
    order n the identity holds iff no z_t remains and the diagonal
    powers c_v give sum c_v e_v == 0 (mod n); each form lists its
    (v, c_v).  None when some identity keeps a z_t, which no diagonal
    can cancel.
    """
    s = diagram.size
    a = dense_rows(diagram.cartan)
    off = reference_offdiagonal_entries(diagram)

    def b(i, j):
        return (i, 1, 0, 0) if i == j else off[(i, j)]

    # each identity as the factors (slot, power) of a product that must be 1
    products = chain(
        (
            ((b(i, j), 1), (b(j, i), 1), (b(i, i), -a[i][j]))
            for i in range(s)
            for j in range(s)
            if i != j
        ),
        (
            ((b(k, x), 1 - a[x][y]), (b(k, y), 1))
            for i, j in diagram.linkable
            for x, y in ((i, j), (j, i))
            for k in range(s)
        ),
    )
    forms = set()
    for factors in products:
        if braiding._terms(*((((t, k),), p) for (_, _, t, k), p in factors if t)):
            return None
        form = braiding._terms(*((((v, c),), p) for (v, c, _, _), p in factors))
        if form:
            forms.add(form)
    return tuple(sorted(forms))


def eliminated_forms(diagram):
    """verify's identities with unknown off-diagonal exponents, solved over Z.

    Every product and linking identity becomes a row of integer
    coefficients on the unknown exponents x_ij of the off-diagonal
    entries and on the diagonal exponents e.  Integer row operations,
    and column operations on the unknowns, bring the x-part to diagonal
    form.  Returns the e-parts of the rows whose x-part vanishes, the
    left kernel's forms, and the nonzero diagonal entries.  Nothing
    here uses the blocks the oracle's derivation splits the system into.
    """
    s = diagram.size
    a = dense_rows(diagram.cartan)

    def row(*factors):
        # the exponents of a product of entries b_ij^power that must be 1
        x, e = {}, {}
        for i, j, power in factors:
            acc, key = (e, i) if i == j else (x, (i, j))
            acc[key] = acc.get(key, 0) + power
        return {k: c for k, c in x.items() if c}, {k: c for k, c in e.items() if c}

    def subtract(target, source, q):
        # target -= q * source, on sparse rows
        for key, c in source.items():
            if v := target.get(key, 0) - q * c:
                target[key] = v
            else:
                target.pop(key, None)

    rows = [
        row((i, j, 1), (j, i, 1), (i, i, -a[i][j]))
        for i in range(s)
        for j in range(s)
        if i != j
    ]
    rows += [
        row((k, x, 1 - a[x][y]), (k, y, 1))
        for i, j in diagram.linkable
        for x, y in ((i, j), (j, i))
        for k in range(s)
    ]
    forms, invariants = [], []
    while True:
        forms += [e for x, e in rows if not x and e]
        if not (rows := [r for r in rows if r[0]]):
            break
        # a unit pivot where one exists, else the least entry
        entries = [(r, c, v) for r, (x, _) in enumerate(rows) for c, v in x.items()]
        r, c, p = min(entries, key=lambda t: abs(t[2]))
        px, pe = rows[r]
        for k, (x, e) in enumerate(rows):
            if k != r and c in x:
                q = x[c] // p
                subtract(x, px, q)
                subtract(e, pe, q)
        # column operations clear the pivot row; they touch every row at c
        for col, v in list(px.items()):
            if col != c and (q := v // p):
                for x, _ in rows:
                    if c in x:
                        subtract(x, {col: x[c]}, q)
        if len(px) == 1 and not any(c in x for x, _ in rows if x is not px):
            invariants.append(p)
            del rows[r]
    forms = [tuple(sorted(e.items())) for e in forms]
    return forms, invariants


class TestIdentityForms:
    """The oracle's integer forms against verify's identities."""

    @staticmethod
    def identities_hold(d, n, exps):
        matrix = braiding._completed(d, n, exps)
        return not any(
            f.startswith(("product identity", "linking identity"))
            for f in braiding._failures(d, matrix)
        )

    @staticmethod
    def solutions(forms, s, n):
        """The diagonals e = V y, d_i y_i == 0 (mod n), of the diagonal form."""
        diag, cols = braiding._diagonalize(forms, s)
        ys = product(*(range(0, n, n // gcd(x, n)) for x in diag))
        return {
            tuple(sum(y * col[v] for y, col in zip(y, cols)) % n for v in range(s))
            for y in ys
        }

    def test_screen_agrees_with_verify(self):
        rng = random.Random(20200206)
        verdicts = set()
        for labels, pairs in small_family():
            d = component_diag(list(labels), list(pairs))
            if not d.is_link_connected():
                continue
            forms = braiding._diagonal_forms(d)
            # seeded random diagonals, and some that satisfy every form
            for _ in range(4):
                n = rng.randrange(5, 31)
                exps = [rng.randrange(n) for _ in range(d.size)]
                solved = sorted(self.solutions(forms, d.size, n))
                for e in (exps, rng.choice(solved)):
                    verdict = forms_hold(forms, n, e)
                    assert verdict == self.identities_hold(d, n, e), (d, n, e)
                    verdicts.add(verdict)
            # the diagonal form gives exactly the solutions mod n
            if d.size > 4:
                continue
            for n in (5, 6, 8, 9, 12) if d.size <= 3 else (6, 8):
                want = {
                    e
                    for e in product(range(n), repeat=d.size)
                    if forms_hold(forms, n, e)
                }
                assert self.solutions(forms, d.size, n) == want, (d, n)
        assert verdicts == {True, False}

    @staticmethod
    def derivation_diagrams():
        for labels, pairs in small_family():
            for mode in ("finite", "affine"):
                yield component_diag(list(labels), list(pairs), mode=mode)
        for label in ("A3", "B3"):
            for n in range(2, 9):
                yield circle(label, n)

    def test_forms_from_dotted_edges_that_meet_are_the_all_pairs_forms(self):
        # the definition that visits every pair of dotted edges; a pair
        # with no plain edge between them gives no form
        def all_pairs_forms(d):
            a = dense_rows(d.cartan)
            forms = [((u, a[u][v]), (v, -a[v][u])) for u, v in d.cartan.plain_edges()]
            forms += [((x, 1), (y, 1)) for x, y in d.linkable]
            for (i, k), (j, l) in combinations(d.linkable, 2):
                terms = ((i, a[i][j] + a[i][l]), (k, a[k][j] + a[k][l]))
                if form := tuple((v, c) for v, c in terms if c):
                    forms.append(form)
            return forms

        diagrams = [
            component_diag(list(labels), list(pairs), mode=mode)
            for labels, pairs in small_family()
            for mode in ("finite", "affine")
        ]
        diagrams += [circle(label, n) for label in ("A3", "B3") for n in range(2, 12)]
        diagrams += [prism(k) for k in (4, 8, 16)]
        met = pairs = 0
        for d in diagrams:
            assert braiding._diagonal_forms(d) == all_pairs_forms(d), d
            meeting = [
                (p, q)
                for p, q in combinations(d.linkable, 2)
                if any(d.a(x, y) for x in p for y in q)
            ]
            assert list(dotted_edges_that_meet(d)) == meeting, d
            met += len(meeting)
            pairs += len(d.linkable) * (len(d.linkable) - 1) // 2
        assert 0 < met < pairs

    def test_forms_are_the_eliminated_identities(self):
        # the closed-form blocks against Smith elimination of the whole
        # system; every nonzero invariant factor is a unit
        wild = 0
        for d in self.derivation_diagrams():
            forms, invariants = eliminated_forms(d)
            wild += sum(abs(x) != 1 for x in invariants)
            got = differing_order(
                braiding._diagonal_forms(d), forms, d.size, range(5, 31)
            )
            assert got is None, (d, got)
        assert wild == 0

    def test_leftover_parameter_rejects_every_diagonal(
        self, monkeypatch, tmp_path, capsys
    ):
        # the four-class completion cancels every z_t; one left behind is
        # a gap in the completion, which the oracle reports as a bug
        # (verify rejects its witness) instead of answering "none"
        complete = braiding._completed

        def leaky(diagram, n, exps):
            matrix = complete(diagram, n, exps)
            zrows = [list(zrow) for zrow in zrows_of(matrix)]
            assert zrows[1][0] == ()  # b_21 of a dotted pair carries no parameter
            zrows[1][0] = ((99, 1),)
            cells = [list(zip(*r)) for r in zip(matrix.exps, zrows)]
            return BraidingMatrix.from_cells(n, cells)

        monkeypatch.setattr(braiding, "_completed", leaky)
        d = component_diag(["A1", "A1"], [(0, 1)])
        with pytest.raises(RuntimeError, match="verify rejects"):
            brute_force_exists(d, n_max=12)
        path = tmp_path / "a1a1.dg"
        path.write_text("vertices 2\nlink 1 2\n", encoding="utf-8")
        assert main(["oracle", str(path), "--nmax", "12"]) == 4
        out = capsys.readouterr().out
        assert out.startswith("internal error in oracle: RuntimeError: ")
        assert "verify rejects" in out
        for n in (5, 7, 12):
            for e in range(1, n):
                assert not self.identities_hold(d, n, [e, -e % n])


def reference_failures(diagram, matrix):
    """verify's failure messages by entry arithmetic on every entry.

    The verifier that the exponent-grid congruences replaced, kept as
    the reference; it reads the matrix only through entry() and
    computes with the test-side Root.
    """
    mode = diagram.mode
    s = diagram.size
    if matrix.size != s:
        yield f"matrix size {matrix.size} != diagram size {s}"
        return

    def b(i, j):
        return entry_of(matrix, i, j)

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
        has_g2 = any(
            c.label == "G2" for c in classify_components(diagram, "finite")
        )
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


def reference_brute_force_exists(diagram, n_max=30, field=CYCLOTOMIC):
    """The oracle's result by backtracking over the diagonal.

    The search that the diagonalized forms replaced, kept as the
    reference: it walks the diagonal in link traversal order, each
    vertex taking the values its edges to earlier vertices allow in
    ascending order, estimates that search space up front, and screens
    every full diagonal against the identity forms.
    """

    def solve_linear(a, b, n):
        # all x with a*x == b (mod n), ascending
        a %= n
        b %= n
        g = gcd(a, n)
        if b % g:
            return []
        step = n // g
        x0 = (b // g) * pow((a // g) % step, -1, step) % step if step > 1 else 0
        return [x0 + t * step for t in range(g)]

    def search_space(order, n):
        # candidates per vertex are bounded by its tightest earlier constraint
        est = n - 1
        for idx, v in enumerate(order[1:], start=1):
            tightest = n
            for u in order[:idx]:
                if diagram.a(v, u) != 0:
                    tightest = min(tightest, gcd(abs(diagram.a(v, u)), n))
                elif diagram.partner(v) == u:
                    tightest = 1
            est *= tightest
        return est

    if n_max < 5:
        raise ValueError(f"order bound {n_max} is below 5, the least order scanned")
    mode = diagram.mode
    if mode == "selflink":
        raise UnsupportedMode("the brute-force search requires standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the brute-force search needs a link-connected diagram")
    braiding._recognized_components(diagram)
    has_g2 = mode == "finite" and reference_has_g2(diagram)
    s = diagram.size
    order, _ = diagram.link_walks[0]

    candidates_n = [
        n
        for n in range(5, n_max + 1)
        if field.has_primitive_root(n) and (mode == "finite" or is_prime(n))
    ]
    worst = max((search_space(order, n) for n in candidates_n), default=0)
    if worst > braiding._Z_LIMIT:
        raise ScaleExceeded(
            f"about {worst} diagonal assignments at {s} vertices; "
            f"shrink the diagram or the order bound"
        )

    def assignments(n):
        exps = [None] * s

        def extend(idx):
            if idx == len(order):
                yield list(exps)
                return
            v = order[idx]
            # level 0 is the root exponent; later vertices follow earlier ones
            constraints = [range(n)] if idx == 0 else []
            for u in order[:idx]:
                eu = exps[u]
                if diagram.a(v, u) != 0:
                    constraints.append(
                        solve_linear(diagram.a(v, u), eu * diagram.a(u, v), n)
                    )
                elif diagram.partner(v) == u:
                    constraints.append([-eu % n])
            if not constraints:
                raise NotLinkConnected("vertex order is not link-contiguous")
            options = set(constraints[0])
            for c in constraints[1:]:
                options &= set(c)
            for e in sorted(options):
                if not braiding._order_ok(e, n, mode, has_g2):
                    continue
                exps[v] = e
                yield from extend(idx + 1)
                exps[v] = None

        yield from extend(0)

    none = braiding.OracleResult(False, None, None, n_max)
    candidates = ((n, exps) for n in candidates_n for exps in assignments(n))
    first = next(candidates, None)
    if first is None:
        return none
    forms = reference_identity_forms(diagram)
    if forms is None:
        return none
    for n, exps in chain((first,), candidates):
        if forms_hold(forms, n, exps):
            matrix = braiding._completed(diagram, n, exps)
            report = verify(diagram, matrix)
            if not report.ok:
                raise RuntimeError(
                    f"identity forms accepted a diagonal that verify rejects "
                    f"at root order {n}: " + "; ".join(report.failures)
                )
            return braiding.OracleResult(True, n, matrix, n_max)
    return none


def oracle_outcome(search, d, n_max, field=CYCLOTOMIC):
    """found, root_order and witness text, or the exception type and text."""
    try:
        res = search(d, n_max=n_max, field=field)
    except Exception as exc:
        return type(exc), str(exc)
    return res.found, res.root_order, res.matrix and res.matrix.to_text()


def scanned_brute_force_exists(diagram, n_max=30, field=CYCLOTOMIC):
    """The oracle's result from the ascending scan alone.

    The diagonalized search as it was before the answer "none" could
    come ahead of the scan: every order from 5 to n_max is asked for,
    and skipped by its caps or answered.
    """
    if n_max < 5:
        raise ValueError(f"order bound {n_max} is below 5, the least order scanned")
    mode = diagram.mode
    if mode == "selflink":
        raise UnsupportedMode("the brute-force search requires standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the brute-force search needs a link-connected diagram")
    braiding._recognized_components(diagram)
    has_g2, s = diagram.has_g2, diagram.size
    order = diagram.link_walks[0][0]
    diag, cols = braiding._diagonalize(braiding._diagonal_forms(diagram), s)
    for n in range(5, n_max + 1):
        if not field.has_primitive_root(n) or mode == "affine" and not is_prime(n):
            continue
        gens = [
            (m, [c * (n // m) for c in col])
            for x, col in zip(diag, cols)
            if (m := gcd(x, n)) > 1
        ]
        caps = (n // gcd(n, *(g[p] for _, g in gens)) for p in range(s))
        if any(braiding._no_admissible_order(cap, mode, has_g2) for cap in caps):
            continue
        if (count := prod(m for m, _ in gens)) > braiding._Z_LIMIT:
            raise ScaleExceeded(
                f"{count} diagonal assignments at {s} vertices; "
                f"shrink the diagram or the order bound"
            )
        diagonals = (
            tuple(sum(k * g[p] for k, (_, g) in zip(ks, gens)) % n for p in range(s))
            for ks in product(*(range(m) for m, _ in gens))
        )
        fits = [
            e for e in diagonals
            if all(braiding._order_ok(x, n, mode, has_g2) for x in e)
        ]
        least = min(fits, key=lambda e: [e[v] for v in order])
        return braiding.OracleResult(True, n, braiding._completed(diagram, n, least), n_max)
    return braiding.OracleResult(False, None, None, n_max)


class TestNoneBeforeTheScan:
    """A vertex whose entry has no admissible order at any n answers at once."""

    def agree(self, d, asked):
        for n_max in (30, 60):
            want = oracle_outcome(scanned_brute_force_exists, d, n_max)
            del asked[:]
            got = oracle_outcome(brute_force_exists, d, n_max)
            assert got == want, (d, n_max)
        return got[0], asked == []

    def test_small_family_and_rings_match_the_scan(self, monkeypatch):
        asked = []
        has_root = FieldSpec.has_primitive_root

        def counted(field, n):
            asked.append(n)
            return has_root(field, n)

        monkeypatch.setattr(FieldSpec, "has_primitive_root", counted)
        seen = set()
        for labels, pairs in small_family():
            for mode in ("finite", "affine"):
                d = component_diag(list(labels), list(pairs), mode=mode)
                seen.add(self.agree(d, asked))
        for label in ("A3", "B3"):
            for n in range(2, 17):
                seen.add(self.agree(circle(label, n), asked))
        # found, none with no order asked, and none after a scan all occur
        assert {(True, False), (False, True), (False, False)} <= seen


class TestScanEnds:
    """The oracle answers at any bound where its outcome is settled."""

    @pytest.fixture
    def asked(self, monkeypatch):
        # an order scan that does not stop fails here instead of running on
        asked = []
        has_root = FieldSpec.has_primitive_root

        def counted(field, n):
            asked.append(n)
            assert len(asked) <= 10_000, "the scan did not stop"
            return has_root(field, n)

        monkeypatch.setattr(FieldSpec, "has_primitive_root", counted)
        return asked

    def test_small_family_answers_at_any_bound(self, asked):
        nones = 0
        for labels, pairs in small_family():
            for mode in ("finite", "affine"):
                d = component_diag(list(labels), list(pairs), mode=mode)
                want = oracle_outcome(brute_force_exists, d, 60)
                del asked[:]
                assert oracle_outcome(brute_force_exists, d, 10**30) == want, d
                nones += want[0] is False
        assert nones == 364

    def test_finite_field_stops_at_its_largest_root(self, asked):
        d = component_diag(["A1", "B2", "B2"], [(0, 2), (1, 4)])
        res = brute_force_exists(d, n_max=10**12, field=FieldSpec("gf", q=11))
        assert not res.found and res.n_max == 10**12
        assert asked == [5, 6, 7, 8, 9, 10]

    @pytest.mark.parametrize("top", [9, 21])
    def test_listed_roots_are_reached_past_four_plus_the_factors(self, top, asked):
        # the B3 ring of 2 has no free column and invariant factors with
        # lcm 3; a cyclotomic field would stop at 7, but the orders a
        # field lists need not meet every residue class mod 3
        res = brute_force_exists(
            circle("B3", 2), n_max=10**30, field=FieldSpec("roots", orders=(top,))
        )
        assert res.found and res.root_order == top
        assert asked[-1] == top


class TestOracleAgainstReference:
    """The diagonalized oracle against the backtracking one, answer for answer."""

    def agree(self, d, n_max, field=CYCLOTOMIC):
        got = oracle_outcome(brute_force_exists, d, n_max, field)
        want = oracle_outcome(reference_brute_force_exists, d, n_max, field)
        assert got == want, (d, n_max, field)
        # the forms read off the diagram and the completion's forms
        # accept the same diagonals at every order up to the bound
        old = reference_identity_forms(d)
        assert old is not None, d
        new = braiding._diagonal_forms(d)
        assert differing_order(new, old, d.size, range(5, n_max + 1)) is None, d
        return got

    def test_small_family_both_modes(self):
        found = set()
        for labels, pairs in small_family():
            for mode in ("finite", "affine"):
                d = component_diag(list(labels), list(pairs), mode=mode)
                for n_max in (12, 30):
                    found.add(self.agree(d, n_max)[0])
        assert found == {True, False, NotLinkConnected}

    def test_rings(self):
        for label in ("A3", "B3"):
            for n in range(2, 9):
                self.agree(circle(label, n), 30)

    def test_random_diagrams(self):
        fields = (
            CYCLOTOMIC,
            FieldSpec("gf", q=31),
            FieldSpec("gf", q=11),
            FieldSpec("roots", orders=(12, 7)),
        )
        rng = random.Random(20200208)
        found = set()
        for _ in range(2000):
            _, d = random_diagram(rng)
            found.add(self.agree(d, 24, rng.choice(fields))[0])
        assert {True, False} <= found


class TestOneAnalysisPerCommand:
    """Each command walks, classifies and takes potentials once per diagram."""

    @pytest.mark.parametrize(
        "d",
        [
            circle("B3", 3),
            component_diag(["A1(1)", "A1(1)"], [(0, 2)], mode="affine"),
        ],
        ids=["B3-ring-3", "affine-pair"],
    )
    @pytest.mark.parametrize(
        "command", ["check", "construct", "oracle", "realize", "present"]
    )
    def test_counts_through_the_cli(
        self, d, command, count_calls, monkeypatch, tmp_path, capsys
    ):
        path = tmp_path / "d.dg"
        path.write_text(DiagramFile(d, FieldSpec()).serialize())
        walked = count_calls(linkdyn.diagram, "_breadth_first")
        classified = count_calls(linkdyn.diagram, "classify_components")
        potentials = vars(LinkableDynkinDiagram)["potentials"]
        walk_potentials, took = potentials.func, []

        def counted(diagram):
            took.append((diagram,))
            return walk_potentials(diagram)

        monkeypatch.setattr(potentials, "func", counted)
        assert main([command, str(path)]) == 0
        capsys.readouterr()
        analysed = {id(args[0]) for args in walked + classified + took}
        assert len(analysed) == 1
        # one link component, so one walk; the oracle needs no potentials
        assert (len(walked), len(classified)) == (1, 1)
        assert len(took) == (command != "oracle")


class TestGridAgainstReference:
    """The congruence verifier against entry arithmetic, message for message."""

    ORDERS = (3, 5, 6, 7, 9, 10, 12, 13, 15, 25)
    # a phrase of each failure message verify can give
    KINDS = (
        "contains a free parameter",
        "equals 1",
        "product identity",
        "linking identity",
        "must exceed 2",
        "with a G2 component present",
        "diagonal orders differ",
        "is not a prime above 3",
    )

    def matrices(self, d, rng):
        s = d.size
        n = rng.choice(self.ORDERS)
        # the completion at a random diagonal: symbolic, mostly failing
        out = [braiding._completed(d, n, [rng.randrange(n) for _ in range(s)])]
        if d.is_link_connected() and check(d).decision == "yes":
            built = construct(d)
            out += [built, perturbed(built, rng), perturbed(built, rng)]
        # pure and symbolic entries at random
        rows = [[random_entry(n, rng) for _ in range(s)] for _ in range(s)]
        out.append(matrix_of(n, rows))
        # a diagonal of distinct orders: the affine and G2 conditions
        pure = [[random_entry(n, rng, symbolic=0) for _ in range(s)] for _ in range(s)]
        for i in range(s):
            pure[i][i] = RootExpr(n, rng.randrange(1, n))
        out.append(matrix_of(n, pure))
        return out

    def test_failures_match_reference(self):
        rng = random.Random(20200207)
        verdicts, kinds = set(), set()
        for labels, pairs in small_family():
            d = component_diag(list(labels), list(pairs))
            for matrix in self.matrices(d, rng):
                dm = replace(d, mode=rng.choice(("finite", "affine", "selflink")))
                got = tuple(braiding._failures(dm, matrix))
                want = tuple(reference_failures(dm, matrix))
                assert got == want, (labels, pairs, dm.mode, matrix.to_text())
                verdicts.add(not got)
                kinds.update(k for k in self.KINDS for f in got if k in f)
        assert verdicts == {True, False}
        assert kinds == set(self.KINDS)

    # (diagram, matrix text, a failure a sum-of-codes test would miss)
    TRAPS = (
        # z3 on b_11 with a_12 = -1 and q's exponents in agreement: the
        # codes of b_12 and b_21 sum to 3 * -1, yet z1^-1*z2^-1 is not z3^-1
        (
            component_diag(["A2"], []),
            "root_order 7\nq^1*z3^1 q^3*z1^-1\nq^3*z2^-1 q^1\n",
            "product identity fails at (1,2): b_ij*b_ji = q^6*z1^-1*z2^-1, "
            "b_ii^a_ij = q^6*z3^-1",
        ),
        # a linkable pair with a_12 = -1, exponent 2: the codes of b_k1
        # and b_k2 cancel, yet z1^2*z1^-1 is not 1
        (
            component_diag(["A2"], [(0, 1)], mode="selflink"),
            "root_order 7\nq^1*z1^1 q^5*z1^-1\nq^5*z2^-1 q^3*z2^1\n",
            "linking identity fails for pair (1,2) at k=1: got q^0*z1^1",
        ),
        (
            component_diag(["A2"], [(0, 1)], mode="selflink"),
            "root_order 7\nq^3 q^1\nq^1 q^5\n",
            "linking identity fails for pair (2,1) at k=1: got q^5",
        ),
        # z_0 cells: overflow on both sides of every identity
        (
            component_diag(["A1", "A1"], [(0, 1)]),
            "root_order 5\nq^1 q^4*z0^1\nq^1*z0^-1 q^4\n",
            "linking identity fails for pair (1,2) at k=1: got q^0*z0^1",
        ),
        (
            component_diag(["A1", "A1", "A1"], [(0, 1)]),
            "root_order 5\nq^1 q^4 q^0*z0^1\nq^1 q^4 q^0*z0^-1\n"
            "q^0*z0^-1 q^0*z0^1 q^2\n",
            None,
        ),
        # the same index with opposite signs cancels, with equal signs not
        (
            component_diag(["A1", "A1", "A1"], [(0, 1)]),
            "root_order 5\nq^1 q^4 q^0*z1^1\nq^1 q^4 q^0*z1^-1\n"
            "q^0*z1^-1 q^0*z1^1 q^2\n",
            None,
        ),
        (
            component_diag(["A1", "A1", "A1"], [(0, 1)]),
            "root_order 5\nq^1 q^4 q^0*z1^1\nq^1 q^4 q^0*z1^1\n"
            "q^0*z1^1 q^0*z1^-1 q^2\n",
            "product identity fails at (1,3): b_ij*b_ji = q^0*z1^2, b_ii^a_ij = q^0",
        ),
    )

    def test_traps_match_reference(self):
        for d, text, missed in self.TRAPS:
            m = BraidingMatrix.from_text(text)
            # a dotted edge inside a component exists in selflink mode only
            modes = ("finite", "affine", "selflink")
            if d.mode == "selflink":
                modes = ("selflink",)
            for mode in modes:
                dm = replace(d, mode=mode)
                got = tuple(braiding._failures(dm, m))
                assert got == tuple(reference_failures(dm, m)), (mode, text)
                if missed and dm == d:
                    assert missed in got
                elif missed is None:
                    assert not [f for f in got if "identity" in f], (mode, text)

    def test_size_mismatch_matches_reference(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        m = matrix_of(5, ((RootExpr(5, 1),),))
        assert tuple(braiding._failures(d, m)) == tuple(reference_failures(d, m))


class TestDirectSum:
    def build_union(self, labels_a, pairs_a, labels_b, pairs_b):
        rows = block_rows(labels_a + labels_b)
        off = len(block_rows(labels_a))
        pairs = list(pairs_a) + [(i + off, j + off) for i, j in pairs_b]
        return diag(rows, pairs)

    def test_sum_verifies_for_disjoint_union(self):
        a = component_diag(["A1", "A1"], [(0, 1)])
        b = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        ma = construct(a, d=5)
        mb = construct(b, d=5)
        total = direct_sum([(a, ma), (b, mb)])
        union = self.build_union(
            ["A1", "A1"], [(0, 1)], ["A2", "A2"], [(0, 2), (1, 3)]
        )
        assert verify(union, total).ok

    def test_single_part_unchanged(self):
        a = component_diag(["A1", "A1"], [(0, 1)])
        m = construct(a, d=5)
        assert direct_sum([(a, m)]) is m

    def test_mixed_orders_rescale(self):
        a = component_diag(["A1", "A1"], [(0, 1)])
        ma = construct(a, d=5)
        mb = construct(a, d=7)
        total = direct_sum([(a, ma), (a, mb)])
        assert total.order == 35
        union = self.build_union(
            ["A1", "A1"], [(0, 1)], ["A1", "A1"], [(0, 1)]
        )
        assert verify(union, total).ok

    def test_homogeneous_requires_equal_orders(self):
        a = component_diag(["A1", "A1"], [(0, 1)])
        with pytest.raises(OrderMismatch):
            direct_sum(
                [(a, construct(a, d=5)), (a, construct(a, d=7))], homogeneous=True
            )

    def test_no_parts_or_a_part_of_two_sizes_refused(self):
        a = component_diag(["A1", "A1"], [(0, 1)])
        b = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        with pytest.raises(ValueError, match="need at least one part"):
            direct_sum([])
        with pytest.raises(ValueError, match="diagram of size 2 and a matrix of size 4"):
            direct_sum([(a, construct(a, d=5)), (a, construct(b, d=5))])

    def test_homogeneous_refuses_a_symbolic_diagonal(self):
        a = component_diag(["A1", "A1"], [(0, 1)])
        z = Root.z(5, 1)
        m = matrix_of(5, ((z, Root.root(5, 4)), (Root.root(5, 1), Root.root(5, 4))))
        with pytest.raises(ValueError, match=r"q\^0\*z1\^1 contains free parameters"):
            direct_sum([(a, m), (a, construct(a, d=5))], homogeneous=True)

    def test_excluded_shape_sum_text(self):
        # the free vertex 1 meets each dotted edge of the G2 x G2 shape
        # through one parameter (z3, z4), the dotted edge 2-3 through
        # one more each (z5, z6)
        free = component_diag(["A2", "A1"], [(1, 2)])
        total = direct_sum([(free, construct(free, d=5)), excluded_case_matrix(3, 3)])
        assert total.to_text() == (
            "root_order 5\n"
            "q^1 q^0*z1^1 q^0*z1^-1 q^0*z3^-1 q^0*z4^-1 q^0*z3^1 q^0*z4^1\n"
            "q^4*z1^-1 q^1 q^4 q^0*z5^-1 q^0*z6^-1 q^0*z5^1 q^0*z6^1\n"
            "q^0*z1^1 q^1 q^4 q^0*z5^1 q^0*z6^1 q^0*z5^-1 q^0*z6^-1\n"
            "q^0*z3^1 q^0*z5^1 q^0*z5^-1 q^1 q^2*z2^-1 q^4 q^3*z2^1\n"
            "q^0*z4^1 q^0*z6^1 q^0*z6^-1 q^0*z2^1 q^3 q^0*z2^-1 q^2\n"
            "q^0*z3^-1 q^0*z5^-1 q^0*z5^1 q^1 q^0*z2^1 q^4 q^0*z2^-1\n"
            "q^0*z4^-1 q^0*z6^-1 q^0*z6^1 q^2*z2^-1 q^3 q^3*z2^1 q^2\n"
        )
