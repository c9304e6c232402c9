"""Cartan validation, component classification, and linking consistency."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkdyn import (
    DiagonalNotTwo,
    LinkableDynkinDiagram,
    PositiveOffDiagonal,
    ZeroAsymmetry,
    classify_components,
    edge_kind,
    link_connected_components,
    pairwise_linking_consistency,
    validate_cartan,
)
from linkdyn.diagram import _find_isomorphism, _affine_templates, _finite_templates

from conftest import block_rows, component_diag, diag, prism, small_family


def cartan_ok(rows):
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 2:
            return False
        for j in range(n):
            if i != j and rows[i][j] > 0:
                return False
    return all(
        (rows[i][j] == 0) == (rows[j][i] == 0)
        for i in range(n)
        for j in range(i + 1, n)
    )


class TestValidateCartan:
    def test_two_by_two_exhaustive(self):
        span = range(-4, 3)
        for d1, d2, a12, a21 in itertools.product(span, span, span, span):
            rows = ((d1, a12), (a21, d2))
            if cartan_ok(rows):
                m = validate_cartan(rows)
                assert m.entries == rows
            else:
                with pytest.raises(
                    (DiagonalNotTwo, PositiveOffDiagonal, ZeroAsymmetry)
                ):
                    validate_cartan(rows)

    def test_error_messages_name_the_entry(self):
        with pytest.raises(DiagonalNotTwo, match=r"\(2,2\)"):
            validate_cartan(((2, -1), (-1, 3)))
        with pytest.raises(PositiveOffDiagonal, match=r"\(1,2\)"):
            validate_cartan(((2, 1), (-1, 2)))
        with pytest.raises(ZeroAsymmetry, match=r"\(1,2\)"):
            validate_cartan(((2, 0), (-1, 2)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            validate_cartan(((2, -1), (-1,)))

    @given(
        st.lists(
            st.lists(st.integers(-5, 3), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=300)
    def test_three_by_three_matches_predicate(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if cartan_ok(rows):
            assert validate_cartan(rows).entries == rows
        else:
            with pytest.raises(
                (DiagonalNotTwo, PositiveOffDiagonal, ZeroAsymmetry)
            ):
                validate_cartan(rows)


class TestEdgeKind:
    def test_catalog(self):
        assert edge_kind(0, 0).kind == "none"
        assert edge_kind(-1, -1).kind == "single"
        assert edge_kind(-2, -2).kind == "a1affine"
        assert edge_kind(-2, -1) == ("double", 0)
        assert edge_kind(-1, -2) == ("double", 1)
        assert edge_kind(-3, -1) == ("triple", 0)
        assert edge_kind(-1, -3) == ("triple", 1)
        assert edge_kind(-4, -1) == ("quadruple", 0)
        assert edge_kind(-1, -4) == ("quadruple", 1)
        assert edge_kind(-2, -3).kind == "other"


class TestDiagramInvariants:
    def test_overlapping_dotted_edges_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            diag(block_rows(["A1", "A1", "A1"]), [(0, 1), (1, 2)])

    def test_linked_must_be_linkable(self):
        cartan = validate_cartan(block_rows(["A1", "A1"]))
        with pytest.raises(ValueError, match="declared linkable"):
            LinkableDynkinDiagram(cartan, (), frozenset({(0, 1)}))

    def test_intra_component_dotted_needs_selflink_mode(self):
        with pytest.raises(ValueError, match="selflink"):
            component_diag(["A3"], [(0, 2)])
        d = component_diag(["A3"], [(0, 2)], mode="selflink")
        assert d.partner(0) == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            component_diag(["A1", "A1"], [(0, 1)], mode="weird")

    def test_partner_and_flags(self):
        d = component_diag(
            ["A2", "A2"], [(0, 2), (1, 3)], linked=[(0, 2)]
        )
        assert d.partner(0) == 2
        assert d.partner(2) == 0
        assert d.partner(1) == 3
        assert d.lambda_of(0, 2) == 1
        assert d.lambda_of(1, 3) == 0

    def test_component_index_and_link_connectivity(self):
        d = component_diag(["A2", "A1"], [(1, 2)])
        comp = d.component_index()
        assert comp[0] == comp[1] != comp[2]
        assert d.is_link_connected()
        bare = component_diag(["A2", "A1"], [])
        assert not bare.is_link_connected()

    def test_link_traversal_returns_fresh_copies(self):
        d = component_diag(["A2", "A1"], [(1, 2)])
        order, parent = d.link_traversal()
        assert order == [0, 1, 2]
        assert parent == {0: None, 1: 0, 2: 1}
        order.append(7)
        parent[7] = 2
        assert d.link_traversal() == ([0, 1, 2], {0: None, 1: 0, 2: 1})

    def test_plain_neighbors_match_row_scan(self):
        # the neighbour tuples kept on the diagram against the scan of
        # its matrix row that each call used to make
        diagrams = [component_diag(list(l), list(p)) for l, p in small_family()]
        for d in diagrams + [prism(16)]:
            for v in range(d.size):
                scan = [u for u in range(d.size) if u != v and d.a(v, u) != 0]
                got = d.plain_neighbors(v)
                assert got == scan
                got.append(v)
                assert d.plain_neighbors(v) == scan
        # equality and hashing still see only the fields
        assert prism(16) == prism(16)
        assert hash(prism(16)) == hash(prism(16))


class TestClassification:
    FINITE = {
        "A1": 1, "A2": 2, "A3": 3, "A4": 4, "A5": 5,
        "B2": 2, "B3": 3, "B4": 4, "C3": 3, "C4": 4,
        "D4": 4, "D5": 5, "F4": 4, "G2": 2,
        "E6": 6, "E7": 7, "E8": 8,
    }

    def test_finite_templates_recognized(self):
        for label, size in self.FINITE.items():
            rows = dict(_finite_templates(size))[label]
            d = LinkableDynkinDiagram(
                validate_cartan(rows), (), frozenset(), "finite"
            )
            got = classify_components(d, "finite")
            assert [c.label for c in got] == [label]

    def test_affine_templates_recognized(self):
        for size in (2, 3, 4, 5):
            for label, rows in _affine_templates(size):
                d = LinkableDynkinDiagram(
                    validate_cartan(rows), (), frozenset(), "affine"
                )
                got = classify_components(d, "affine")
                assert [c.label for c in got] == [label], label

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_permuted_template_keeps_label(self, data):
        size = data.draw(st.integers(1, 5), label="size")
        catalog = _finite_templates(size) + _affine_templates(size)
        label, rows = data.draw(st.sampled_from(catalog), label="template")
        perm = data.draw(st.permutations(range(size)), label="perm")
        shuffled = [
            [rows[perm[i]][perm[j]] for j in range(size)] for i in range(size)
        ]
        d = LinkableDynkinDiagram(
            validate_cartan(shuffled), (), frozenset(), "finite"
        )
        got = classify_components(d, "any")
        assert [c.label for c in got] == [label]

    def test_unrecognized_component_is_other(self):
        d = component_diag(["A1(1)"], [], mode="finite")
        assert classify_components(d, "finite")[0].label == "other"
        d = component_diag(["B2"], [])
        assert classify_components(d, "affine")[0].label == "other"

    def test_mixed_diagram_orders_by_smallest_vertex(self):
        d = component_diag(["G2", "A3", "B2r"], [(0, 2), (1, 5)])
        got = classify_components(d, "finite")
        assert [c.label for c in got] == ["G2", "A3", "B2"]
        assert got[0].vertices == (0, 1)
        assert got[1].vertices == (2, 3, 4)

    def test_isomorphism_rejects_different_shapes(self):
        b3 = dict(_finite_templates(3))["B3"]
        c3 = dict(_finite_templates(3))["C3"]
        sub = validate_cartan(b3)
        # B3 and C3 differ by arrow direction only, still not isomorphic
        assert _find_isomorphism(sub, c3) is None


class TestLinkConnectedComponents:
    def test_dotted_edge_connects(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        parts = link_connected_components(d)
        assert len(parts) == 1
        assert parts[0].vertices == (0, 1)

    def test_without_dotted_edge_two_parts(self):
        d = component_diag(["A1", "A1"], [])
        assert len(link_connected_components(d)) == 2

    def test_double_pattern_is_one_component(self):
        # two copies of A3 linked vertexwise, the doubling pattern
        d = component_diag(
            ["A3", "A3"], [(0, 3), (1, 4), (2, 5)]
        )
        parts = link_connected_components(d)
        assert len(parts) == 1
        assert parts[0].vertices == (0, 1, 2, 3, 4, 5)

    def test_induced_subdiagram_keeps_structure(self):
        d = component_diag(["A2", "A1", "B2"], [(0, 2)])
        parts = link_connected_components(d)
        assert [p.vertices for p in parts] == [(0, 1, 2), (3, 4)]
        linked_part = parts[0].diagram
        assert linked_part.linkable == ((0, 2),)
        assert linked_part.a(0, 1) == -1
        lone = parts[1].diagram
        assert classify_components(lone, "finite")[0].label == "B2"


class TestPairwiseConsistency:
    def test_crosswise_a2_pair_consistent(self):
        d = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        assert pairwise_linking_consistency(d) == []

    def test_single_pair_trivially_consistent(self):
        d = component_diag(["G2", "A1"], [(0, 2)])
        assert pairwise_linking_consistency(d) == []

    def test_mismatched_neighbour_rows_reported(self):
        # A2 x (A1 x A1), vertex 1 dotted to 3 and 2 to 4
        d = component_diag(["A2", "A1", "A1"], [(0, 2), (1, 3)])
        v = pairwise_linking_consistency(d)
        assert len(v) == 1
        assert "a(1,2)=-1" in v[0] and "a(3,4)=0" in v[0]

    def test_both_matchings_required(self):
        # middle component attaches adjacently, crossed matching fails
        d = component_diag(["A1", "A2", "A1"], [(0, 1), (2, 3)])
        v = pairwise_linking_consistency(d)
        assert len(v) == 1
        assert "a(1,4)=0" in v[0]

    def test_mismatched_arrow_detected_in_straight_matching(self):
        d = component_diag(["A2", "B2"], [(0, 2), (1, 3)])
        v = pairwise_linking_consistency(d)
        assert len(v) == 1
        assert "a(1,2)=-1" in v[0] and "a(3,4)=-2" in v[0]

    def test_spread_attachments_consistent(self):
        d = component_diag(["A1", "A3", "A1"], [(0, 1), (3, 4)])
        assert pairwise_linking_consistency(d) == []

    def test_misoriented_g2_pair(self):
        d = component_diag(["G2", "G2r"], [(0, 2), (1, 3)])
        v = pairwise_linking_consistency(d)
        assert len(v) == 1

    def test_aligned_g2_pair_consistent(self):
        d = component_diag(["G2", "G2"], [(0, 2), (1, 3)])
        assert pairwise_linking_consistency(d) == []
