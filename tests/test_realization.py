"""Group realizations: linking data, doubled diagrams, rank-four counts."""

import pytest
from hypothesis import given, strategies as st

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

from conftest import (
    COMPONENT_ROWS,
    Root,
    characters_of,
    circle,
    component_diag,
    datum_entry,
    diag,
    entry_of,
    matrix_of,
    perturbed,
    random_entry,
    small_family,
)
from linkdyn import (
    BraidingMatrix,
    CartanMatrix,
    check,
    LinkingDatum,
    a4_realizable_zp2,
    a4_solve_zp2,
    construct,
    count_magic_solutions,
    double_datum,
    enumerate_cycles,
    find_symmetrizer,
    genus,
    genus_gcd,
    is_prime,
    magic_pairs,
    max_diagram_note_zp2,
    realize_free,
    realize_mod_p,
    verify,
)
from linkdyn.errors import (
    InadmissibleD,
    LinkConstraintUnsatisfiable,
    NotPrime,
    NotSymmetrizable,
    OrderNotDividing,
    ScaleExceeded,
)
from linkdyn.realization import (
    A4Solution,
    _a4_closed_form,
    _inverses,
    _quad,
    _sqrt_table,
)

PRIMES_TO_101 = tuple(p for p in range(5, 102) if is_prime(p))


def cartan(label):
    return CartanMatrix(COMPONENT_ROWS[label])


class TestFindSymmetrizer:
    @pytest.mark.parametrize(
        "label, expected",
        [
            ("A2", (1, 1)),
            ("A3", (1, 1, 1)),
            ("B2", (1, 2)),
            ("G2", (1, 3)),
            ("B3", (1, 1, 2)),
        ],
    )
    def test_known_values(self, label, expected):
        assert find_symmetrizer(cartan(label)) == expected

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "B3"])
    def test_symmetrizes(self, label):
        rows = COMPONENT_ROWS[label]
        d = find_symmetrizer(CartanMatrix(rows))
        n = len(rows)
        for i in range(n):
            for j in range(n):
                assert d[i] * rows[i][j] == d[j] * rows[j][i]

    def test_blocks_get_independent_weights(self):
        d = find_symmetrizer(CartanMatrix(((2, 0, 0), (0, 2, -2), (0, -1, 2))))
        assert d == (1, 1, 2)

    def test_unsymmetrizable_triangle(self):
        # single, single, and double edges around a 3-cycle force d_0 = d_1
        # = d_2 and d_0 = 2 d_2 at once
        rows = ((2, -1, -1), (-1, 2, -1), (-2, -1, 2))
        with pytest.raises(NotSymmetrizable):
            find_symmetrizer(CartanMatrix(rows))

    @pytest.mark.parametrize(
        "rows", [((2, -1), (0, 2)), ((2, 0), (-1, 2))], ids=["upper", "lower"]
    )
    def test_one_sided_zero(self, rows):
        with pytest.raises(
            NotSymmetrizable, match=r"^no positive d with d_1 a\(1,2\) = d_2 a\(2,1\)$"
        ):
            find_symmetrizer(CartanMatrix(rows))

    def test_one_sided_zero_named_in_a_larger_matrix(self):
        # an A2 on 1, 2 and a one-sided zero between 3 and 4
        rows = ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, 0), (0, 0, -2, 2))
        with pytest.raises(NotSymmetrizable, match=r"d_3 a\(3,4\) = d_4 a\(4,3\)"):
            find_symmetrizer(CartanMatrix(rows))

    @pytest.mark.parametrize(
        "rows", [((2, 1), (-1, 2)), ((2, -1), (1, 2))], ids=["upper", "lower"]
    )
    def test_opposite_signs(self, rows):
        # d_1 / d_2 = a_21 / a_12 = -1 has no positive solution
        with pytest.raises(
            NotSymmetrizable, match=r"^no positive d with d_1 a\(1,2\) = d_2 a\(2,1\)$"
        ):
            find_symmetrizer(CartanMatrix(rows))

    def test_opposite_signs_named_in_row_major_order(self):
        # an A2 on 1, 2, opposite signs between 2 and 4, then 3 and 4
        rows = ((2, -1, 0, 0), (-1, 2, 0, 1), (0, 0, 2, -1), (0, -1, 1, 2))
        with pytest.raises(NotSymmetrizable, match=r"d_2 a\(2,4\) = d_4 a\(4,2\)"):
            find_symmetrizer(CartanMatrix(rows))

    def test_positive_pair_keeps_its_ratio(self):
        assert find_symmetrizer(CartanMatrix(((2, 1), (1, 2)))) == (1, 1)

    def test_matches_reference_walk(self):
        rng = random.Random(1969)
        outcomes = set()
        for _ in range(2000):
            n = rng.randrange(1, 7)
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        rows[i][j] = -rng.choice((1, 1, 2, 3))
                        rows[j][i] = -rng.choice((1, 1, 2, 3))
            cartan_matrix = CartanMatrix(tuple(map(tuple, rows)))
            got = symmetrizer_outcome(find_symmetrizer, cartan_matrix)
            assert got == symmetrizer_outcome(reference_symmetrizer, cartan_matrix)
            outcomes.add(got[0] is NotSymmetrizable)
        assert outcomes == {True, False}


def reference_symmetrizer(cartan):
    """find_symmetrizer as it was: its own breadth-first walk over Fractions."""
    n = cartan.size
    vals = [None] * n
    for root in range(n):
        if vals[root] is not None:
            continue
        vals[root] = Fraction(1)
        comp = [root]
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in range(n):
                if v != u and cartan.a(u, v) != 0 and vals[v] is None:
                    vals[v] = vals[u] * cartan.a(u, v) / cartan.a(v, u)
                    comp.append(v)
                    queue.append(v)
        scale = lcm(*(vals[v].denominator for v in comp))
        shrink = gcd(*(int(vals[v] * scale) for v in comp))
        for v in comp:
            vals[v] = Fraction(int(vals[v] * scale) // shrink)
    out = tuple(int(v) for v in vals)
    for i in range(n):
        for j in range(n):
            if i != j and out[i] * cartan.a(i, j) != out[j] * cartan.a(j, i):
                raise NotSymmetrizable(
                    f"no positive d with d_{i + 1} a({i + 1},{j + 1}) = "
                    f"d_{j + 1} a({j + 1},{i + 1})"
                )
    return out


def symmetrizer_outcome(find, cartan):
    try:
        return find(cartan), None
    except NotSymmetrizable as exc:
        return NotSymmetrizable, str(exc)


class TestDoubleDatum:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
    @pytest.mark.parametrize("q_order", [5, 7])
    def test_datum_verifies(self, label, q_order):
        datum = double_datum(cartan(label), q_order=q_order)
        assert datum.verify_datum() == ()
        assert datum.order == q_order

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
    def test_induced_matrix_verifies(self, label):
        datum = double_datum(cartan(label))
        matrix = datum.braiding_matrix()
        report = verify(datum.diagram, matrix)
        assert report.ok, report.failures

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
    def test_all_cycle_genera_vanish(self, label):
        # the mirror cycle carries every arrow twice in opposite
        # directions, so both weights cancel; affine mode prices the
        # triple edges that finite mode bans from cycles
        datum = double_datum(cartan(label))
        dg = replace(datum.diagram, mode="affine")
        cycles = enumerate_cycles(dg)
        assert cycles
        assert all(genus(dg, c) == 0 for c in cycles)
        assert genus_gcd(dg) == 0

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
    @pytest.mark.parametrize("q_order", [5, 7])
    def test_character_identity_on_linked_pairs(self, label, q_order):
        datum = double_datum(cartan(label), q_order=q_order)
        dg = datum.diagram
        generators = len(datum.factors)
        for x, y in datum.linked:
            for first, second in ((x, y), (y, x)):
                a = dg.a(first, second)
                for t in range(generators):
                    combined = (
                        characters_of(datum)[first][t] ** (1 - a)
                        * characters_of(datum)[second][t]
                    )
                    assert combined.is_one

    def test_rank_one_values(self):
        datum = double_datum(CartanMatrix(((2,),)))
        assert datum.order == 5
        assert datum.factors == (0,)
        # the mirror generator reuses the same group element
        assert datum.elements == ((1,), (1,))
        assert datum_entry(datum, 0, 0) == Root(5, 2)
        # the mirror character is the inverse of the original
        assert characters_of(datum)[1][0] == Root(5, -2)
        assert datum.linked == frozenset({(0, 1)})

    def test_entries_follow_symmetrizer(self):
        rows = COMPONENT_ROWS["B2"]
        datum = double_datum(CartanMatrix(rows), q_order=7)
        d = find_symmetrizer(CartanMatrix(rows))
        n = len(rows)
        for i in range(n):
            for j in range(n):
                assert datum_entry(datum, i, j) == Root(7, d[i] * rows[i][j])
                assert datum_entry(datum, i, n + j) == Root(
                    7, -d[i] * rows[i][j]
                )

    def test_scaled_symmetrizer_is_accepted(self):
        datum = double_datum(cartan("A2"), symmetrizer=(2, 2))
        assert datum_entry(datum, 0, 0) == Root(5, 4)
        assert datum.verify_datum() == ()

    def test_wrong_symmetrizer_rejected(self):
        with pytest.raises(NotSymmetrizable):
            double_datum(cartan("A2"), symmetrizer=(1, 2))
        with pytest.raises(NotSymmetrizable):
            double_datum(cartan("A2"), symmetrizer=(0, 0))
        with pytest.raises(NotSymmetrizable):
            double_datum(cartan("A2"), symmetrizer=(1,))

    def test_opposite_signs_rejected(self):
        with pytest.raises(NotSymmetrizable):
            double_datum(CartanMatrix(((2, 1), (-1, 2))))

    def test_collapsing_q_order_rejected(self):
        with pytest.raises(InadmissibleD):
            double_datum(CartanMatrix(((2,),)), q_order=2)
        # d = (1, 2) makes q^4 trivial at order four
        with pytest.raises(InadmissibleD):
            double_datum(cartan("B2"), q_order=4)


class TestRealizeFree:
    @pytest.mark.parametrize(
        "dd",
        [
            component_diag(["A2", "A2"], [(0, 2), (1, 3)]),
            component_diag(["A3", "A3"], [(0, 3), (1, 4), (2, 5)]),
            component_diag(["G2", "A1"], [(1, 2)]),
        ],
        ids=["A2xA2", "A3doubled", "G2+A1"],
    )
    def test_round_trip(self, dd):
        matrix = construct(dd)
        datum = realize_free(matrix, dd)
        assert datum.verify_datum() == ()
        assert datum.factors == (0,) * matrix.size
        inst = matrix.instantiate()
        for i in range(matrix.size):
            for j in range(matrix.size):
                assert datum_entry(datum, i, j) == entry_of(inst, i, j)

    def test_generators_are_a_basis(self):
        dd = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        datum = realize_free(construct(dd), dd)
        for i, vector in enumerate(datum.elements):
            assert vector == tuple(
                1 if t == i else 0 for t in range(len(datum.elements))
            )

    def test_z_values_flow_through(self):
        # instantiate maps a parameter to an exponent: z_t = q^2 here
        dd = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        matrix = construct(dd)
        tags = matrix.z_indices()
        assert tags
        values = {t: 2 for t in tags}
        inst = matrix.instantiate(values)
        datum = realize_free(inst, dd)
        assert datum.verify_datum() == ()
        roots = {t: Root.root(5, 2) for t in tags}
        for i in range(matrix.size):
            for j in range(matrix.size):
                assert datum_entry(datum, i, j) == entry_of(inst, i, j)
                want = entry_of(matrix, i, j).substitute(roots)
                assert datum_entry(datum, i, j) == want

    def test_single_vertex(self):
        solo = diag([[2]], [])
        datum = realize_free(construct(solo), solo)
        assert datum.factors == (0,)
        assert datum_entry(datum, 0, 0) == Root(5, 1)

    def test_canonical_datum_is_not_compared_with_its_matrix(self, monkeypatch):
        # chi_j(e_i) = b_ij by construction; only linking is checked
        read = []
        entry_exp = LinkingDatum.entry_exp

        def counted(datum, i, j):
            read.append((i, j))
            return entry_exp(datum, i, j)

        monkeypatch.setattr(LinkingDatum, "entry_exp", counted)
        dd = component_diag(["A3", "A3"], [(0, 3), (1, 4), (2, 5)])
        matrix = construct(dd)
        datum = realize_free(matrix, dd)
        assert read == []
        assert datum.verify_datum(matrix.instantiate()) == ()
        assert len(read) == 36

    def test_rejects_matrix_violating_character_identity(self):
        dd = component_diag(["A1", "A1"], [(0, 1)])
        bad = BraidingMatrix.from_text("root_order 5\nq^1 q^1\nq^1 q^1")
        with pytest.raises(LinkConstraintUnsatisfiable):
            realize_free(bad, dd)


def reference_verify_datum(datum, source=None):
    """verify_datum by entry arithmetic on the characters.

    The check that exponent lookups replaced, kept as the reference:
    chi_j(g_i) is the product of chi_j(h_t)^(g_i)_t over the generators.
    Entries are compared only when the source has the datum's size and
    root order; otherwise each mismatch is the one failure of its kind.
    """
    chars = characters_of(datum)
    failures = []
    if source is not None:
        s = len(datum.elements)
        mismatches = [
            f"matrix {what} {got} != datum {what} {want}"
            for what, got, want in (
                ("size", source.size, s),
                ("root order", source.order, datum.order),
            )
            if got != want
        ]
        if mismatches:
            return tuple(mismatches)
        for i in range(source.size):
            for j in range(source.size):
                induced = Root.one(datum.order)
                for t, e in enumerate(datum.elements[i]):
                    induced = induced * chars[j][t] ** e
                if induced != entry_of(source, i, j):
                    failures.append(
                        f"chi_{j + 1}(g_{i + 1}) = {induced} "
                        f"but the matrix holds {entry_of(source, i, j)}"
                    )
    if datum.diagram is not None:
        for i, j in datum.linkable:
            for x, y in ((i, j), (j, i)):
                exponent = 1 - datum.diagram.a(x, y)
                for t in range(len(datum.factors)):
                    val = chars[x][t] ** exponent * chars[y][t]
                    if not val.is_one:
                        failures.append(
                            f"character identity fails for pair "
                            f"({x + 1},{y + 1}) at generator {t + 1}: "
                            f"got {val}"
                        )
    return tuple(failures)


class TestVerifyDatumAgainstReference:
    def data(self, d, rng):
        s, n = d.size, rng.choice((5, 7, 9, 12, 25))
        rows = [[random_entry(n, rng, symbolic=0) for _ in range(s)] for _ in range(s)]
        random_matrix = matrix_of(n, rows)
        # random generators and characters, any support
        yield LinkingDatum(
            order=n,
            factors=(0,) * s,
            elements=tuple(
                tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(s)) for _ in range(s)
            ),
            character_exps=tuple(
                tuple(rng.randrange(n) for _ in range(s)) for _ in range(s)
            ),
            linkable=d.linkable,
            linked=d.linked,
            diagram=d,
        ), (None, random_matrix)
        if d.is_link_connected() and check(d).decision == "yes":
            matrix = construct(d).instantiate()
            datum = realize_free(matrix, d)
            yield datum, (None, matrix, perturbed(matrix, rng), random_matrix)
            # a canonical datum whose characters break the identities
            yield LinkingDatum(
                n, (0,) * s, datum.elements, random_matrix.exps, d.linkable,
                d.linked, d,
            ), (random_matrix, perturbed(random_matrix, rng))

    def test_failures_match_reference(self):
        rng = random.Random(20200208)
        verdicts, kinds = set(), set()
        for labels, pairs in small_family():
            d = component_diag(list(labels), list(pairs))
            for datum, sources in self.data(d, rng):
                for source in sources:
                    got = datum.verify_datum(source)
                    assert got == reference_verify_datum(datum, source), (
                        labels, pairs, datum.to_text()
                    )
                    verdicts.add(not got)
                    kinds.update(f.split("_")[0].split(" ")[0] for f in got)
        assert verdicts == {True, False}
        # entry comparisons (chi_j(g_i) ...), character identities and a
        # source at another root order (matrix root order ...)
        assert kinds == {"chi", "character", "matrix"}

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
    def test_doubles_match_reference(self, label):
        datum = double_datum(cartan(label), q_order=7)
        for source in (None, datum.braiding_matrix()):
            assert datum.verify_datum(source) == reference_verify_datum(datum, source)


class TestVerifyDatumMismatch:
    """A source of another size or root order is reported as such, once."""

    def setup_method(self):
        self.pair = component_diag(["A1", "A1"], [(0, 1)])
        self.datum = realize_free(construct(self.pair), self.pair)
        assert (self.datum.order, len(self.datum.elements)) == (5, 2)

    def test_larger_source_is_one_size_failure(self):
        ring = construct(circle("A3", 2))
        assert ring.size == 6
        assert self.datum.verify_datum(ring) == ("matrix size 6 != datum size 2",)

    def test_smaller_source_is_one_size_failure(self):
        solo = construct(diag([[2]], []))
        assert self.datum.verify_datum(solo) == ("matrix size 1 != datum size 2",)

    def test_other_root_order_is_one_order_failure(self):
        other = construct(self.pair, d=7)
        assert self.datum.verify_datum(other) == (
            "matrix root order 7 != datum root order 5",
        )
        solo = construct(diag([[2]], []), d=7)
        assert self.datum.verify_datum(solo) == (
            "matrix size 1 != datum size 2",
            "matrix root order 7 != datum root order 5",
        )

    def test_mismatch_stops_before_the_character_identities(self):
        # characters that break the linking identity, against a source
        # of another root order: only the mismatch is reported
        broken = replace(self.datum, character_exps=((1, 1), (1, 1)))
        assert broken.verify_datum() != ()
        other = construct(self.pair, d=7)
        assert broken.verify_datum(other) == (
            "matrix root order 7 != datum root order 5",
        )


class TestRealizeModP:
    def setup_method(self):
        self.dd = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        self.matrix = construct(self.dd)

    def test_matching_modulus(self):
        datum = realize_mod_p(self.matrix, self.dd, 5)
        assert datum.factors == (5, 5, 5, 5)
        assert datum.verify_datum() == ()
        inst = self.matrix.instantiate()
        for i in range(4):
            for j in range(4):
                assert datum_entry(datum, i, j) == entry_of(inst, i, j)

    def test_coprime_modulus_rejected(self):
        with pytest.raises(OrderNotDividing, match="does not divide"):
            realize_mod_p(self.matrix, self.dd, 7)

    def test_modulus_below_one_rejected(self):
        # 0 would be an infinite cyclic factor, not a finite group
        for modulus in (0, -5):
            with pytest.raises(ValueError, match="must be positive"):
                realize_mod_p(self.matrix, self.dd, modulus)

    def test_multiple_of_order_accepted(self):
        datum = realize_mod_p(self.matrix, self.dd, 10)
        assert datum.factors == (10, 10, 10, 10)
        assert datum.verify_datum() == ()


def table_roots(a, p):
    """The square roots of a mod p as the closed form reads them, ascending.

    One root r of a is read off _sqrt_table(p), the other is -r mod p.
    """
    r = _sqrt_table(p)[a % p]
    return tuple(sorted({r, -r % p})) if r >= 0 else ()


class TestSqrtMod:
    @given(
        st.sampled_from((5, 7, 11, 13, 17, 19, 29, 97, 101)),
        st.integers(min_value=0, max_value=200),
    )
    def test_matches_exhaustive_search(self, p, a):
        expected = tuple(sorted(x for x in range(p) if x * x % p == a % p))
        assert table_roots(a, p) == expected

    def test_zero(self):
        assert table_roots(0, 7) == (0,)
        assert table_roots(14, 7) == (0,)
        # sqrt(5) at p = 5 is the one root 0
        assert table_roots(5, 5) == (0,)

    def test_known_roots(self):
        assert table_roots(5, 19) == (9, 10)
        assert table_roots(5, 13) == ()
        assert table_roots(2, 17) == (6, 11)
        assert table_roots(-2, 11) == (3, 8)

    @pytest.mark.parametrize("a, p", [(4, 21), (1, 9), (1, 2), (0, 1), (3, -7)])
    def test_modulus_that_is_not_an_odd_prime(self, a, p):
        # the table is refused before it is built, so no root is read
        with pytest.raises(NotPrime, match=f"^{p} is not a prime of at least 5$"):
            table_roots(a, p)


class TestMagicCount:
    @pytest.mark.parametrize(
        "p, expected", [(5, 6), (7, 6), (11, 12), (13, 12)]
    )
    def test_small_counts(self, p, expected):
        assert count_magic_solutions(p) == expected

    def test_pairs_satisfy_congruence(self):
        p = 13
        pairs = magic_pairs(p)
        assert len(pairs) == count_magic_solutions(p)
        for n, m in pairs:
            assert (n * n - n * m + m * m + m + 1) % p == 0

    def test_count_is_six_z_for_all_small_primes(self):
        for p in PRIMES_TO_101:
            count = count_magic_solutions(p)
            assert count % 6 == 0
            z = count // 6
            assert p in (6 * z - 1, 6 * z + 1)

    @pytest.mark.parametrize("p", [2, 3, 4, 9, 100])
    def test_rejects_non_primes(self, p):
        with pytest.raises(NotPrime):
            count_magic_solutions(p)

    # 100_002 is even: the bound is checked before primality; 10^30
    # would not fit a square-root table in memory
    @pytest.mark.parametrize("p", [100_003, 100_002, 10**30])
    def test_rejects_primes_past_the_bound(self, p):
        for solve in (magic_pairs, count_magic_solutions, a4_solve_zp2):
            with pytest.raises(ScaleExceeded, match=f"p = {p} exceeds .* 100000"):
                solve(p)

    def test_largest_prime_within_the_bound(self):
        # 99991 = 6 * 16665 + 1 is the largest prime at most 100000
        assert count_magic_solutions(99_991) == 6 * 16665


# --------------------------------------------- the p^2 search, as reference


def reference_magic_pairs(p):
    return tuple(
        (n, m)
        for n in range(p)
        for m in range(p)
        if (n * n - n * m + m * m + m + 1) % p == 0
    )


def reference_pure_pairs(p):
    return tuple(
        (k, l)
        for k in range(p)
        for l in range(p)
        if (k * k - k * l + l * l + 1) % p == 0
    )


def reference_a4_scan(p, magic):
    """Every magic pair against every pure pair: |magic| |pure| ~ p^2."""
    pure = reference_pure_pairs(p)
    out = []
    for n, m in magic:
        cm, cl = (m - 2 * n) % p, (n - 2 * m - 1) % p
        for k, l in pure:
            if (k * cm + l * cl + 1) % p == 0:
                out.append((n, m, k, l))
    return tuple(sorted(out))


def reference_a4_solve(p):
    magic = reference_magic_pairs(p)
    scan = reference_a4_scan(p, magic)
    closed = _a4_closed_form(p, magic, _sqrt_table(p), _inverses(p))
    return A4Solution(p, scan, closed, scan == closed)


PRIMES_TO_300 = tuple(p for p in range(5, 300) if is_prime(p))


class TestA4AgainstReference:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_quad_matches_exhaustive_search(self, p):
        # every (a, b, c), so a = 0, b = 0 and the zero polynomial occur
        table, inv = _sqrt_table(p), _inverses(p)
        for a in range(p):
            for b in range(p):
                for c in range(-p, p):
                    expected = tuple(
                        x for x in range(p) if (a * x * x + b * x + c) % p == 0
                    )
                    assert _quad(a, b, c, p, table, inv) == expected, (a, b, c)

    def test_inverse_table_below_2000(self):
        for p in (p for p in range(5, 2000) if is_prime(p)):
            inv = _inverses(p)
            assert len(inv) == p and inv[0] == 0, p
            assert all(inv[x] * x % p == 1 for x in range(1, p)), p

    def test_sqrt_table_holds_one_root_per_square(self):
        for p in (5, 7, 13, 101):
            table = _sqrt_table(p)
            assert len(table) == p
            for a in range(p):
                roots = [x for x in range(p) if x * x % p == a]
                assert table[a] in roots if roots else table[a] == -1

    def test_solutions_match_reference_below_300(self):
        for p in PRIMES_TO_300:
            sol, ref = a4_solve_zp2(p), reference_a4_solve(p)
            assert magic_pairs(p) == reference_magic_pairs(p), p
            assert sol.p == ref.p
            assert sol.tuples == ref.tuples, p
            assert sol.closed_form == ref.closed_form, p
            assert sol.routes_agree == ref.routes_agree, p

    @pytest.mark.parametrize("p, count", [(10_007, 0), (10_009, 20_016)])
    def test_large_primes(self, p, count):
        sol = a4_solve_zp2(p)
        assert len(sol.tuples) == count
        assert sol.routes_agree
        assert list(sol.tuples) == sorted(set(sol.tuples))
        for n, m, k, l in sol.tuples:
            assert (n * n - n * m + m * m + m + 1) % p == 0
            assert (k * k - k * l + l * l + 1) % p == 0
            assert (k * (m - 2 * n) + l * (n - 2 * m - 1) + 1) % p == 0


class TestRankFourSystem:
    def test_routes_agree_everywhere(self):
        for p in PRIMES_TO_101:
            sol = a4_solve_zp2(p)
            assert sol.routes_agree, (p, sol.tuples, sol.closed_form)

    @pytest.mark.parametrize("p", [11, 19, 29])
    def test_tuples_satisfy_all_three_congruences(self, p):
        sol = a4_solve_zp2(p)
        assert sol.tuples
        for n, m, k, l in sol.tuples:
            assert (n * n - n * m + m * m + m + 1) % p == 0
            assert (k * k - k * l + l * l + 1) % p == 0
            assert (k * (m - 2 * n) + l * (n - 2 * m - 1) + 1) % p == 0

    def test_solvable_iff_five_is_a_square(self):
        for p in PRIMES_TO_101:
            has_solutions = bool(a4_solve_zp2(p).tuples)
            five_square = p == 5 or pow(5, (p - 1) // 2, p) == 1
            assert has_solutions == five_square, p

    def test_small_prime_outcomes(self):
        assert len(a4_solve_zp2(5).tuples) == 6
        assert a4_solve_zp2(7).tuples == ()
        assert len(a4_solve_zp2(11).tuples) == 24

    def test_report_for_agreeing_prime(self):
        realizable, lines = a4_realizable_zp2(11)
        assert realizable
        assert not any("disagree" in line for line in lines)

    # the residue shortcut and the scan part ways at 13 and 19; the report
    # has to say so either way, and these tests only pin the scan's verdict
    def test_divergence_reported_at_13(self):
        realizable, lines = a4_realizable_zp2(13)
        assert not realizable
        assert any("predicts realizable" in line for line in lines)
        assert any("disagree" in line for line in lines)

    def test_divergence_reported_at_19(self):
        realizable, lines = a4_realizable_zp2(19)
        assert realizable
        assert any("predicts not realizable" in line for line in lines)
        assert any("disagree" in line for line in lines)

    def test_size_note_is_flagged_as_quoted(self):
        note5 = max_diagram_note_zp2(5)
        assert "A_4 x A_1" in note5
        assert "not recomputed" in note5
        note7 = max_diagram_note_zp2(7)
        assert "four vertices" in note7
        assert "not recomputed" in note7
        with pytest.raises(NotPrime):
            max_diagram_note_zp2(6)
