"""Existence decisions, the excluded family, and self-linking rules."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

import linkdyn.cycles
import linkdyn.existence
from conftest import (
    Root,
    block_rows,
    circle,
    component_diag,
    diag,
    entries_of,
    entry_of,
)
from linkdyn import (
    ExistenceReport,
    FieldSpec,
    check,
    construct,
    excluded_case_matrix,
    selflink_genus,
    selflink_order_constraint,
    verify,
)
from linkdyn.errors import (
    InadmissibleD,
    LinkConstraintUnsatisfiable,
    Neighbouring,
    NotLinkConnected,
    NotNeighbouring,
    ShapeParameterMismatch,
    UnclassifiedPath,
    UnsupportedComponentType,
)

# two path components and one closing pair per entry: a ring of three
# components keeps every cross matching of the dotted pairs at zero
RING3 = [(2, 3), (5, 6), (8, 0)]


def doubled(label):
    """Two copies of a component, corresponding vertices linked."""
    size = len(block_rows([label]))
    pairs = [(v, size + v) for v in range(size)]
    return component_diag([label, label], pairs)


class TestCheckFinite:
    def test_two_linked_copies_always_yes(self):
        for label in ("A1", "A2", "A3", "B2", "B3"):
            rep = check(doubled(label))
            assert rep.decision == "yes", (label, rep.reasons)
            assert rep.genus_gcd == 0
            assert rep.admissible

    def test_doubled_g2_is_the_excluded_shape(self):
        rep = check(doubled("G2"))
        assert rep.decision == "excluded"
        assert rep.genus_gcd is None
        assert any("G2" in r for r in rep.reasons)

    def test_misoriented_g2_pair_still_excluded(self):
        d = component_diag(["G2", "G2r"], [(0, 2), (1, 3)])
        assert check(d).decision == "excluded"

    def test_single_dotted_edge_between_g2_copies_is_ordinary(self):
        d = component_diag(["G2", "G2"], [(0, 2)])
        rep = check(d)
        assert rep.decision == "yes"
        assert 3 not in rep.admissible
        assert rep.admissible[0] == 5

    def test_fully_linked_g2_vertex_condition(self):
        d = component_diag(["G2", "A1", "A1"], [(0, 2), (1, 3)])
        rep = check(d)
        assert rep.decision == "no"
        assert any("G2 component" in r for r in rep.reasons)

    def test_consistency_violation_reported(self):
        d = component_diag(["A2", "B2"], [(0, 2), (1, 3)])
        rep = check(d)
        assert rep.decision == "no"
        assert any(r.startswith("dotted") for r in rep.reasons)

    def test_a3_circle_parity(self):
        for n, expected in ((2, "yes"), (3, "no"), (4, "yes"), (5, "no")):
            rep = check(circle("A3", n))
            assert rep.decision == expected, n
            if expected == "no":
                assert rep.genus_gcd == 2

    def test_b3_circle_genus_gcd(self):
        rep = check(circle("B3", 2))
        assert rep.decision == "yes"
        assert rep.genus_gcd == 3
        assert rep.admissible == (3,)
        rep = check(circle("B3", 3))
        assert rep.genus_gcd == 9
        assert rep.admissible == (3, 9)

    def test_genus_one_cycle_is_fatal(self):
        d = component_diag(["A3", "B3"], [(0, 3), (2, 5)])
        rep = check(d)
        assert rep.decision == "no"
        assert rep.genus_gcd == 1

    def test_field_without_usable_roots(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        rep = check(d, FieldSpec("roots", orders=(4,)))
        assert rep.decision == "no"
        rep = check(d, FieldSpec("gf", q=11))
        assert rep.decision == "yes"
        assert 5 in rep.admissible

    def test_primes_beyond_the_listing_bound_count(self):
        # no cycles; GF(227) and GF(2027) hold no prime root order below 100
        for mode in ("finite", "affine"):
            d = component_diag(["A2", "A2"], [(0, 2)], mode=mode)
            for q, p in ((227, 113), (2027, 1013)):
                rep = check(d, FieldSpec("gf", q=q))
                assert rep.decision == "yes"
                assert rep.admissible == (p,)

    def test_enumerates_no_cycles(self, count_calls):
        calls = count_calls(linkdyn.cycles, "enumerate_cycles")
        assert check(circle("A3", 2)).decision == "yes"
        assert len(calls) == 0

    def test_field_blocks_required_genus_divisor(self):
        # genus gcd 3 but GF(11) has no cube roots of unity
        rep = check(circle("B3", 2), FieldSpec("gf", q=11))
        assert rep.decision == "no"
        assert rep.genus_gcd == 3

    def test_precheck_errors(self):
        with pytest.raises(NotLinkConnected):
            check(component_diag(["A2", "A2"], []))
        with pytest.raises(UnsupportedComponentType):
            check(component_diag(["A1(1)", "A1(1)"], [(0, 2)]))
        with pytest.raises(ValueError):
            check(diag(block_rows(["A2"]), [(0, 1)], mode="selflink"))

    def test_report_shape(self):
        yes = check(doubled("A2"))
        assert yes.reasons == ()
        no = check(circle("A3", 3))
        assert no.reasons and no.admissible == ()


class TestCheckAffine:
    def test_acyclic_affine_diagram_yes(self):
        d = component_diag(["A1(1)", "A1(1)"], [(0, 2)], mode="affine")
        rep = check(d)
        assert rep.decision == "yes"
        assert rep.admissible[0] == 5
        assert all(p > 3 for p in rep.admissible)

    def test_sole_cycle_of_genus_four(self):
        rows = [list(r) for r in block_rows(["A3", "A3"])]
        triple = ((2, -1, 0), (-3, 2, -1), (0, -1, 2))
        full = [list(r) + [0] * 6 for r in triple]
        for r in rows:
            full.append([0, 0, 0] + r)
        d = diag(full, RING3, mode="affine")
        rep = check(d)
        assert rep.decision == "no"
        assert rep.genus_gcd == 4
        assert "prime" in rep.reasons[0]

    def test_genus_five_ring(self):
        d = diag(block_rows(["B3", "B3", "A3"]), RING3, mode="affine")
        rep = check(d)
        assert rep.decision == "yes"
        assert rep.genus_gcd == 5
        assert rep.admissible == (5,)

    def test_affine_rejects_what_finite_allows(self):
        # genus 3 admits d = 3 in the finite theorem but no prime above 3
        d = circle("B3", 2, mode="affine")
        assert check(d).decision == "no"
        assert check(circle("B3", 2)).decision == "yes"

    def test_excluded_shapes(self):
        for label in ("A1(1)", "A2(2)"):
            d = component_diag(
                [label, label], [(0, 2), (1, 3)], mode="affine"
            )
            rep = check(d)
            assert rep.decision == "excluded"
            assert label in rep.reasons[0]

    def test_mixed_rank_two_affines_fall_through(self):
        d = component_diag(
            ["A1(1)", "A2(2)"], [(0, 2), (1, 3)], mode="affine"
        )
        rep = check(d)
        assert rep.decision == "no"
        assert any("lie on dotted edges" in r for r in rep.reasons)

    def test_single_pair_of_rank_two_affines_is_ordinary(self):
        d = component_diag(["A2(2)", "A2(2)"], [(0, 2)], mode="affine")
        assert check(d).decision == "yes"

    def test_finite_components_in_affine_mode(self):
        d = component_diag(
            ["A3", "A3"], [(0, 3), (1, 4), (2, 5)], mode="affine"
        )
        rep = check(d)
        assert rep.decision == "yes"
        assert rep.genus_gcd == 0


AFFINE_ORDER_REASON = (
    "no prime above 3 divides all cycle genera and has a primitive root "
    "in the field (genus gcd {})"
)
CONSISTENCY_REASON = "dotted (1,3) vs (2,4): a(1,2)=-1 != a(3,4)=-2"

# every branch of the decision in both modes, pinned report for report
GOLDEN_REPORTS = [
    # yes with G = 0: a cyclotomic field lists its first 8 orders
    pytest.param(
        doubled("A2"),
        None,
        ExistenceReport("yes", "finite", (), 0, (3, 5, 7, 11, 13, 17, 19, 23)),
        id="finite-yes-unconstrained",
    ),
    # yes with G > 0: finite mode lists every divisor of G = 4095
    pytest.param(
        circle("B3", 12),
        None,
        ExistenceReport(
            "yes",
            "finite",
            (),
            4095,
            (3, 5, 7, 9, 13, 15, 21, 35, 39, 45, 63, 65, 91, 105, 117, 195,
             273, 315, 455, 585, 819, 1365, 4095),
        ),
        id="finite-yes-genus",
    ),
    pytest.param(
        component_diag(["A1", "A1"], [(0, 1)]),
        FieldSpec("roots", orders=(4,)),
        ExistenceReport(
            "no",
            "finite",
            ("the field provides no admissible root order",),
            0,
            (),
        ),
        id="finite-no-field",
    ),
    pytest.param(
        circle("A3", 3),
        None,
        ExistenceReport(
            "no",
            "finite",
            (
                "no common divisor of the cycle genera above 2 is odd, prime "
                "to 3 when required, and available in the field (genus gcd 2)",
            ),
            2,
            (),
        ),
        id="finite-no-genus",
    ),
    pytest.param(
        component_diag(["G2", "A1", "A1"], [(0, 2), (1, 3)]),
        None,
        ExistenceReport(
            "no",
            "finite",
            (
                "both vertices 1, 2 of a G2 component lie on dotted edges",
                "dotted (1,3) vs (2,4): a(1,2)=-3 != a(3,4)=0, "
                "a(2,1)=-1 != a(4,3)=0",
            ),
            None,
            (),
        ),
        id="finite-no-g2-linked",
    ),
    pytest.param(
        component_diag(["A2", "B2"], [(0, 2), (1, 3)]),
        None,
        ExistenceReport("no", "finite", (CONSISTENCY_REASON,), None, ()),
        id="finite-no-inconsistent",
    ),
    pytest.param(
        doubled("G2"),
        None,
        ExistenceReport(
            "excluded",
            "finite",
            ("the crosswise G2 x G2 shape is decided by the special matrix "
             "family",),
            None,
            (),
        ),
        id="finite-excluded",
    ),
    pytest.param(
        component_diag(["A1(1)", "A1(1)"], [(0, 2)], mode="affine"),
        None,
        ExistenceReport(
            "yes", "affine", (), 0, (5, 7, 11, 13, 17, 19, 23, 29)
        ),
        id="affine-yes-unconstrained",
    ),
    pytest.param(
        diag(block_rows(["B3", "B3", "A3"]), RING3, mode="affine"),
        None,
        ExistenceReport("yes", "affine", (), 5, (5,)),
        id="affine-yes-genus-5",
    ),
    pytest.param(
        circle("B3", 12, mode="affine"),
        None,
        ExistenceReport("yes", "affine", (), 4095, (5, 7, 13)),
        id="affine-yes-genus-4095",
    ),
    pytest.param(
        circle("B3", 2, mode="affine"),
        None,
        ExistenceReport(
            "no", "affine", (AFFINE_ORDER_REASON.format(3),), 3, ()
        ),
        id="affine-no-genus",
    ),
    pytest.param(
        component_diag(["A1", "A1"], [(0, 1)], mode="affine"),
        FieldSpec("roots", orders=(4,)),
        ExistenceReport(
            "no", "affine", (AFFINE_ORDER_REASON.format(0),), 0, ()
        ),
        id="affine-no-field",
    ),
    pytest.param(
        component_diag(["A1(1)", "A2(2)"], [(0, 2), (1, 3)], mode="affine"),
        None,
        ExistenceReport(
            "no",
            "affine",
            (
                "both vertices 1, 2 of a A1(1) component lie on dotted edges",
                "both vertices 3, 4 of a A2(2) component lie on dotted edges",
                "dotted (1,3) vs (2,4): a(1,2)=-2 != a(3,4)=-4, "
                "a(2,1)=-2 != a(4,3)=-1",
            ),
            None,
            (),
        ),
        id="affine-no-rank-two-linked",
    ),
    pytest.param(
        component_diag(["A2", "B2"], [(0, 2), (1, 3)], mode="affine"),
        None,
        ExistenceReport("no", "affine", (CONSISTENCY_REASON,), None, ()),
        id="affine-no-inconsistent",
    ),
] + [
    pytest.param(
        component_diag([label, label], [(0, 2), (1, 3)], mode="affine"),
        None,
        ExistenceReport(
            "excluded",
            "affine",
            (f"the crosswise {label} x {label} shape is decided by the "
             f"special matrix family",),
            None,
            (),
        ),
        id=f"affine-excluded-{label}",
    )
    for label in ("A1(1)", "A2(2)")
]


class TestGoldenReports:
    @pytest.mark.parametrize("diagram, field, expected", GOLDEN_REPORTS)
    def test_full_report(self, diagram, field, expected):
        rep = check(diagram) if field is None else check(diagram, field)
        assert rep == expected
        assert check(diagram, field or FieldSpec("cyclotomic")) == expected


class TestDispatch:
    def test_check_follows_diagram_mode(self):
        assert check(doubled("A2")).mode == "finite"
        aff = component_diag(["A1(1)", "A1(1)"], [(0, 2)], mode="affine")
        assert check(aff).mode == "affine"

    def test_diagram_mode_is_the_only_mode(self):
        # classify_components' argument picks a catalog, not the linking mode
        takes_mode = [
            name
            for name in linkdyn.__all__
            if callable(obj := getattr(linkdyn, name))
            and not isinstance(obj, type)
            and "mode" in inspect.signature(obj).parameters
        ]
        assert takes_mode == ["classify_components"]
        for gone in ("check_finite", "check_affine"):
            assert not hasattr(linkdyn, gone)
            assert not hasattr(linkdyn.existence, gone)

    def test_yes_means_constructible(self):
        for d in (doubled("A3"), circle("B3", 2), circle("A3", 2)):
            assert check(d).decision == "yes"
            assert verify(d, construct(d)).ok

    def test_no_means_construct_refuses(self):
        with pytest.raises((LinkConstraintUnsatisfiable, InadmissibleD)):
            construct(circle("A3", 3))
        with pytest.raises((LinkConstraintUnsatisfiable, InadmissibleD)):
            construct(component_diag(["A2", "B2"], [(0, 2), (1, 3)]))

    def test_agreement_when_finite_d_is_large_prime(self):
        """A finite-type diagram usable at a prime above 3 verifies affinely."""
        fin = diag(block_rows(["B3", "B3", "A3"]), RING3)
        aff = diag(block_rows(["B3", "B3", "A3"]), RING3, mode="affine")
        rf, ra = check(fin), check(aff)
        assert rf.decision == ra.decision == "yes"
        assert 5 in rf.admissible and 5 in ra.admissible


class TestExcludedCaseMatrix:
    def test_all_three_shapes_verify_symbolically(self):
        for n, m in ((3, 3), (1, 2), (4, 4)):
            diagram, matrix = excluded_case_matrix(n, m)
            rep = verify(diagram, matrix)
            assert rep.ok, (n, m, rep.failures)
            assert any(
                entry_of(matrix, i, j).is_symbolic
                for i in range(4)
                for j in range(4)
            )

    def test_cells_are_the_products_of_q_and_z(self):
        # the exponent cells against the entries written as products
        for n, m in ((3, 3), (1, 2), (4, 4)):
            for d in (5, 7):
                _, matrix = excluded_case_matrix(n, m, d)

                def q(e):
                    return Root.root(d, e)

                z = Root.z(d, 1)
                zi = z.inv()
                assert entries_of(matrix) == (
                    (q(1), q(-m) * zi, q(-1), q(m) * z),
                    (z, q(n), zi, q(-n)),
                    (q(1), z, q(-1), zi),
                    (q(-m) * zi, q(n), q(m) * z, q(-n)),
                ), (n, m, d)

    def test_shape_metadata(self):
        diagram, matrix = excluded_case_matrix(3, 3)
        assert diagram.mode == "finite"
        assert diagram.linkable == ((0, 2), (1, 3))
        assert matrix.order == 5
        diagram, _ = excluded_case_matrix(1, 2)
        assert diagram.mode == "affine"
        assert diagram.a(0, 1) == -2 and diagram.a(1, 0) == -2
        diagram, _ = excluded_case_matrix(4, 4)
        assert diagram.a(0, 1) == -4 and diagram.a(1, 0) == -1

    def test_other_orders(self):
        for d in (7, 11):
            diagram, matrix = excluded_case_matrix(3, 3, d=d)
            assert matrix.order == d
            assert verify(diagram, matrix).ok

    def test_parameter_errors(self):
        with pytest.raises(ShapeParameterMismatch):
            excluded_case_matrix(2, 2)
        with pytest.raises(ShapeParameterMismatch):
            excluded_case_matrix(3, 4)
        with pytest.raises(InadmissibleD):
            excluded_case_matrix(3, 3, d=9)
        with pytest.raises(InadmissibleD):
            excluded_case_matrix(3, 3, d=4)
        with pytest.raises(InadmissibleD):
            excluded_case_matrix(1, 2, d=9)

    @pytest.mark.parametrize(
        "n, m, d, message",
        [
            (3, 3, 1, "root order 1 must exceed 2"),
            (3, 3, 4, "root order 4 must be odd"),
            (3, 3, 9, "root order 9 is divisible by 3 with a G2 component present"),
            (1, 2, 9, "root order 9 must be a prime above 3"),
        ],
    )
    def test_order_messages(self, n, m, d, message):
        with pytest.raises(InadmissibleD) as err:
            excluded_case_matrix(n, m, d=d)
        assert str(err.value) == message


# paths are classified by their multiple edges; rows below follow the
# template orientations so the families carry their usual names
CHAIN_A4 = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)
CHAIN_TRIPLE = ((2, -1, 0), (-3, 2, -1), (0, -1, 2))
CHAIN_ALIGNED = ((2, -2, 0), (-1, 2, -2), (0, -1, 2))
CHAIN_OPPOSED = ((2, -2, 0), (-1, 2, -1), (0, -2, 2))


class TestSelflinkGenus:
    def test_plain_chain_gives_two(self):
        d = diag(CHAIN_A4, [])
        assert selflink_genus(d, 0, 3) == 2
        assert selflink_genus(d, 0, 2) == 2

    def test_one_double_gives_three(self):
        d = diag(block_rows(["B3"]), [])
        assert selflink_genus(d, 0, 2) == 3

    def test_one_triple_gives_four(self):
        d = diag(CHAIN_TRIPLE, [])
        assert selflink_genus(d, 0, 2) == 4

    def test_aligned_end_doubles_give_five(self):
        d = diag(CHAIN_ALIGNED, [])
        assert selflink_genus(d, 0, 2) == 5

    def test_opposed_end_doubles_give_two(self):
        d = diag(CHAIN_OPPOSED, [])
        assert selflink_genus(d, 0, 2) == 2
        flipped = ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
        assert selflink_genus(diag(flipped, []), 0, 2) == 2

    def test_branching_still_unique_path(self):
        star = (
            (2, -1, 0, 0),
            (-1, 2, -1, -1),
            (0, -1, 2, 0),
            (0, -1, 0, 2),
        )
        d = diag(star, [])
        assert selflink_genus(d, 0, 2) == 2

    def test_neighbours_rejected(self):
        d = diag(block_rows(["B3"]), [])
        with pytest.raises(Neighbouring):
            selflink_genus(d, 1, 2)

    def test_separate_components_rejected(self):
        d = component_diag(["A2", "A2"], [])
        with pytest.raises(ValueError):
            selflink_genus(d, 0, 2)

    def test_unclassified_paths(self):
        # two doubles, the second of which is not at the far end
        mid = (
            (2, -2, 0, 0),
            (-1, 2, -2, 0),
            (0, -1, 2, -1),
            (0, 0, -1, 2),
        )
        with pytest.raises(UnclassifiedPath):
            selflink_genus(diag(mid, []), 0, 3)
        # a double and a triple together
        mix = ((2, -3, 0), (-1, 2, -2), (0, -1, 2))
        with pytest.raises(UnclassifiedPath):
            selflink_genus(diag(mix, []), 0, 2)
        # two plain paths join the vertices
        square = (
            (2, -1, 0, -1),
            (-1, 2, -1, 0),
            (0, -1, 2, -1),
            (-1, 0, -1, 2),
        )
        with pytest.raises(UnclassifiedPath):
            selflink_genus(diag(square, []), 0, 2)
        # an A1(1) edge on the path
        loop = ((2, -2, 0), (-2, 2, -1), (0, -1, 2))
        with pytest.raises(
            UnclassifiedPath, match=r"^a1affine edge \(1,2\) on the path$"
        ):
            selflink_genus(diag(loop, [], mode="selflink"), 0, 2)
        # three doubles in a chain of four
        doubles = ((2, -2, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -2), (0, 0, -1, 2))
        with pytest.raises(
            UnclassifiedPath, match="^more than two double edges on the path$"
        ):
            selflink_genus(diag(doubles, [], mode="selflink"), 0, 3)


class TestSelflinkOrderConstraint:
    def test_catalog(self):
        assert selflink_order_constraint(-1, -1) == 3
        assert selflink_order_constraint(-1, -2) == 5
        assert selflink_order_constraint(-2, -2) == 8
        assert selflink_order_constraint(-1, -3) == 7
        assert selflink_order_constraint(-1, -4) == 9

    @given(st.integers(-9, -1), st.integers(-9, -1))
    def test_symmetric_and_positive(self, a, b):
        assert selflink_order_constraint(a, b) == selflink_order_constraint(b, a)
        assert selflink_order_constraint(a, b) > 0

    def test_requires_an_edge(self):
        with pytest.raises(NotNeighbouring):
            selflink_order_constraint(0, -1)
