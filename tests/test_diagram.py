"""Cartan validation, component classification, and linking consistency."""

import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkdyn import (
    CartanMatrix,
    DiagonalNotTwo,
    FieldSpec,
    LinkableDynkinDiagram,
    PositiveOffDiagonal,
    ZeroAsymmetry,
    classify_components,
    edge_kind,
    pairwise_linking_consistency,
    validate_cartan,
)
import linkdyn.diagram
from linkdyn.cli import DiagramFile, parse
from linkdyn.diagram import _templates

from conftest import (
    block_rows, circle, component_diag, dense_rows, diag, prism, small_family,
)
from test_cycles import random_diagram, reference_potentials


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
                assert dense_rows(m) == rows
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
            assert dense_rows(validate_cartan(rows)) == rows
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

    def test_one_sided_zero_refused(self):
        with pytest.raises(ZeroAsymmetry):
            edge_kind(-1, 0)


class TestDiagramInvariants:
    def test_overlapping_dotted_edges_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            diag(block_rows(["A1", "A1", "A1"]), [(0, 1), (1, 2)])

    def test_dotted_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"bad dotted edge \(1,3\)"):
            diag(block_rows(["A1", "A1"]), [(0, 2)])

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
        assert (0, 2) in d.linked
        assert (1, 3) in d.linkable and (1, 3) not in d.linked

    def test_component_index_and_link_connectivity(self):
        d = component_diag(["A2", "A1"], [(1, 2)])
        comp = d.cartan.component_roots
        assert comp[0] == comp[1] != comp[2]
        assert d.is_link_connected()
        bare = component_diag(["A2", "A1"], [])
        assert not bare.is_link_connected()

    def test_plain_neighbors_match_row_scan(self):
        # the neighbour tuples kept on the diagram against the scan of
        # its matrix row that each call used to make
        diagrams = [component_diag(list(l), list(p)) for l, p in small_family()]
        for d in diagrams + [prism(16)]:
            for v in range(d.size):
                scan = [u for u in range(d.size) if u != v and d.a(v, u) != 0]
                got = d.cartan.neighbors[v]
                assert list(got) == scan
                # a tuple, so no reader can change what the next one reads
                assert isinstance(got, tuple)
                assert list(d.cartan.neighbors[v]) == scan
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

    @pytest.mark.parametrize("label, size", [("E6(1)", 7), ("E7(1)", 8), ("E8(1)", 9)])
    def test_relabelled_affine_e_recognized(self, label, size):
        rows = dict(_affine_templates(size))[label]
        perm = list(range(size))
        random.Random(size).shuffle(perm)
        assert perm != sorted(perm)
        shuffled = [
            [rows[perm[i]][perm[j]] for j in range(size)] for i in range(size)
        ]
        d = LinkableDynkinDiagram(
            validate_cartan(shuffled), (), frozenset(), "affine"
        )
        for mode in ("affine", "any"):
            got = classify_components(d, mode)
            assert [(c.label, c.vertices) for c in got] == [
                (label, tuple(range(size)))
            ], mode
        assert [c.label for c in classify_components(d, "finite")] == ["other"]

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
        # B3 and C3 differ by arrow direction only, still not isomorphic
        for label in ("B3", "C3"):
            rows = dict(_finite_templates(3))[label]
            d = LinkableDynkinDiagram(validate_cartan(rows), (), frozenset())
            assert [c.label for c in classify_components(d, "finite")] == [label]


class TestLinkConnectedComponents:
    """The link components are the vertex sets of the diagram's link walks."""

    @staticmethod
    def components(d):
        return [tuple(sorted(order)) for order, _ in d.link_walks]

    def test_dotted_edge_connects(self):
        d = component_diag(["A1", "A1"], [(0, 1)])
        parts = self.components(d)
        assert len(parts) == 1
        assert parts[0] == (0, 1)

    def test_without_dotted_edge_two_parts(self):
        d = component_diag(["A1", "A1"], [])
        assert len(self.components(d)) == 2

    def test_double_pattern_is_one_component(self):
        # two copies of A3 linked vertexwise, the doubling pattern
        d = component_diag(
            ["A3", "A3"], [(0, 3), (1, 4), (2, 5)]
        )
        parts = self.components(d)
        assert len(parts) == 1
        assert parts[0] == (0, 1, 2, 3, 4, 5)


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


def reference_pairwise(diagram):
    """pairwise_linking_consistency as the loop over all pairs of dotted
    edges that it replaced."""
    a = diagram.a
    violations = []
    pairs = diagram.linkable
    for p in range(len(pairs)):
        for q in range(p + 1, len(pairs)):
            i, k = pairs[p]
            j, l = pairs[q]
            for (x, y), (u, w) in (((i, j), (k, l)), ((i, l), (k, j))):
                bad = [
                    f"a({s1 + 1},{t1 + 1})={a(s1, t1)} != "
                    f"a({s2 + 1},{t2 + 1})={a(s2, t2)}"
                    for (s1, t1), (s2, t2) in (((x, y), (u, w)), ((y, x), (w, u)))
                    if a(s1, t1) != a(s2, t2)
                ]
                if bad:
                    violations.append(
                        f"dotted ({i + 1},{k + 1}) vs ({j + 1},{l + 1}): "
                        + ", ".join(bad)
                    )
    return violations


def reference_components(rows):
    """Plain edges, component index and plain components by a union-find
    over the nonzero entries above the diagonal."""
    n = len(rows)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    index = {v: find(v) for v in range(n)}
    groups = {}
    for v in range(n):
        groups.setdefault(index[v], []).append(v)
    return edges, index, [tuple(g) for _, g in sorted(groups.items())]


EDGE_ENTRIES = (
    (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-2, -3),
)


def random_selflink_diagram(rng):
    """Up to 8 vertices, random plain edges, random disjoint dotted
    edges that may join plain neighbours or one component."""
    s = rng.randrange(2, 9)
    rows = [[2 if i == j else 0 for j in range(s)] for i in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            if rng.random() < 0.35:
                rows[i][j], rows[j][i] = rng.choice(EDGE_ENTRIES)[:: rng.choice((1, -1))]
    ends = rng.sample(range(s), s)
    pairs = [ends[2 * t : 2 * t + 2] for t in range(rng.randrange(s // 2 + 1))]
    linked = [p for p in pairs if rng.random() < 0.5]
    return diag(rows, pairs, linked, mode="selflink")


class TestPlainGraphAgainstReference:
    """The plain graph kept on the Cartan matrix against a union-find over
    its entries, and the consistency check against all pairs."""

    def agree(self, d):
        edges, index, components = reference_components(dense_rows(d.cartan))
        assert list(d.cartan.plain_edges()) == edges
        assert dict(enumerate(d.cartan.component_roots)) == index
        assert d.plain_components() == components
        assert pairwise_linking_consistency(d) == reference_pairwise(d)

    def test_small_family_rings_and_prisms(self):
        family = [component_diag(list(l), list(p)) for l, p in small_family()]
        assert sum(d.is_link_connected() for d in family) == 307
        rings = [circle(label, n) for label in ("A3", "B3") for n in (2, 3, 5, 8)]
        violated = 0
        for d in family + rings + [prism(k) for k in (4, 5, 8, 16, 64)]:
            self.agree(d)
            violated += bool(reference_pairwise(d))
        assert violated > 50

    def test_random_selflink_diagrams(self):
        rng = random.Random(16)
        adjacent = violated = 0
        for _ in range(2000):
            d = random_selflink_diagram(rng)
            self.agree(d)
            adjacent += any(d.a(i, j) for i, j in d.linkable)
            violated += bool(reference_pairwise(d))
        # the sample holds dotted edges between plain neighbours and
        # failing matchings, where skipping a pair would show
        assert adjacent > 200 and violated > 200

    def test_plain_graph_stays_out_of_equality(self):
        rows = block_rows(["A3", "B2", "A1"])
        built, fresh = validate_cartan(rows), validate_cartan(rows)
        assert built.neighbors == ((1,), (0, 2), (1,), (4,), (3,), ())
        assert built.component_roots == (0, 0, 0, 3, 3, 5)
        assert built.neighbors is built.neighbors
        assert built == fresh and hash(built) == hash(fresh)


# The dense n x n catalog templates, built entry by entry: the independent
# reference the shape codes of linkdyn.diagram are checked against.


def _chain(n: int) -> list[list[int]]:
    m = [[0] * i + [2] + [0] * (n - 1 - i) for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    return m


def _set_edge(m: list[list[int]], i: int, j: int, aij: int, aji: int) -> None:
    m[i][j] = aij
    m[j][i] = aji


def _star(arms: tuple[int, ...]) -> list[list[int]]:
    # center is vertex 0, arms attach as consecutive chains
    n = 1 + sum(arms)
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    v = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            _set_edge(m, prev, v, -1, -1)
            prev = v
            v += 1
    return m


def _finite_templates(s: int) -> list[tuple[str, list[list[int]]]]:
    out: list[tuple[str, list[list[int]]]] = [(f"A{s}", _chain(s))]
    if s >= 2:
        m = _chain(s)
        _set_edge(m, s - 2, s - 1, -1, -2)
        out.append((f"B{s}", m))
    if s >= 3:
        m = _chain(s)
        _set_edge(m, s - 2, s - 1, -2, -1)
        out.append((f"C{s}", m))
    if s >= 4:
        m = _chain(s - 1)
        for row in m:
            row.append(0)
        m.append([0] * s)
        m[s - 1][s - 1] = 2
        _set_edge(m, s - 3, s - 1, -1, -1)
        out.append((f"D{s}", m))
    if s == 6:
        out.append(("E6", _star((1, 2, 2))))
    if s == 7:
        out.append(("E7", _star((1, 2, 3))))
    if s == 8:
        out.append(("E8", _star((1, 2, 4))))
    if s == 4:
        m = _chain(4)
        _set_edge(m, 1, 2, -1, -2)
        out.append(("F4", m))
    if s == 2:
        m = [[2, -1], [-3, 2]]
        out.append(("G2", m))
    return out


def _affine_templates(s: int) -> list[tuple[str, list[list[int]]]]:
    out: list[tuple[str, list[list[int]]]] = []
    if s == 2:
        out.append(("A1(1)", [[2, -2], [-2, 2]]))
        out.append(("A2(2)", [[2, -1], [-4, 2]]))
    if s >= 3:
        m = _chain(s)
        _set_edge(m, 0, s - 1, -1, -1)
        out.append((f"A{s - 1}(1)", m))
    if s >= 4:
        # fork at one end, double arrow at the other, head outward
        m = _chain(s)
        _set_edge(m, 0, 1, 0, 0)
        _set_edge(m, 0, 2, -1, -1)
        _set_edge(m, s - 2, s - 1, -1, -2)
        out.append((f"B{s - 1}(1)", m))
    if s >= 3:
        m = _chain(s)
        _set_edge(m, 0, 1, -1, -2)
        _set_edge(m, s - 2, s - 1, -2, -1)
        out.append((f"C{s - 1}(1)", m))
    if s >= 5:
        m = _chain(s)
        _set_edge(m, 0, 1, 0, 0)
        _set_edge(m, 0, 2, -1, -1)
        _set_edge(m, s - 2, s - 1, 0, 0)
        _set_edge(m, s - 3, s - 1, -1, -1)
        out.append((f"D{s - 1}(1)", m))
    if s == 7:
        out.append(("E6(1)", _star((2, 2, 2))))
    if s == 8:
        out.append(("E7(1)", _star((1, 3, 3))))
    if s == 9:
        out.append(("E8(1)", _star((1, 2, 5))))
    if s == 5:
        m = _chain(5)
        _set_edge(m, 2, 3, -1, -2)
        out.append(("F4(1)", m))
    if s == 3:
        m = _chain(3)
        _set_edge(m, 1, 2, -1, -3)
        out.append(("G2(1)", m))
    if s >= 3:
        # twisted even A: double arrows at both ends, heads aligned
        m = _chain(s)
        _set_edge(m, 0, 1, -2, -1)
        _set_edge(m, s - 2, s - 1, -2, -1)
        out.append((f"A{2 * (s - 1)}(2)", m))
    if s >= 4:
        # twisted odd A: fork at one end, double arrow pointing inward
        m = _chain(s)
        _set_edge(m, 0, 1, 0, 0)
        _set_edge(m, 0, 2, -1, -1)
        _set_edge(m, s - 2, s - 1, -2, -1)
        out.append((f"A{2 * s - 3}(2)", m))
    if s >= 3:
        # twisted D: double arrows at both ends, heads outward
        m = _chain(s)
        _set_edge(m, 0, 1, -2, -1)
        _set_edge(m, s - 2, s - 1, -1, -2)
        out.append((f"D{s}(2)", m))
    if s == 5:
        m = _chain(5)
        _set_edge(m, 2, 3, -2, -1)
        out.append(("E6(2)", m))
    if s == 3:
        m = _chain(3)
        _set_edge(m, 0, 1, -1, -3)
        out.append(("D4(3)", m))
    return out


def reference_isomorphic(sub_rows, template):
    """Whether a relabeling carries template onto sub_rows, by backtracking.

    The matcher classify_components ran on every template of the pool
    before the signature catalog, kept as the reference.
    """
    n = len(sub_rows)
    if len(template) != n:
        return False

    def profile(m, i):
        return tuple(sorted(m[i][j] for j in range(n) if j != i))

    tpl = [profile(template, i) for i in range(n)]
    sub = [profile(sub_rows, i) for i in range(n)]
    if sorted(tpl) != sorted(sub):
        return False
    assign, used = [], [False] * n

    def extend(k):
        if k == n:
            return True
        for v in range(n):
            if used[v] or sub[v] != tpl[k]:
                continue
            if all(
                template[k][p] == sub_rows[v][assign[p]]
                and template[p][k] == sub_rows[assign[p]][v]
                for p in range(k)
            ):
                assign.append(v)
                used[v] = True
                if extend(k + 1):
                    return True
                assign.pop()
                used[v] = False
        return False

    return extend(0)


def reference_classify(diagram, mode):
    """Each plain component's label by a scan of the whole catalog pool."""
    out = []
    for vertices in diagram.plain_components():
        rows = [[diagram.a(i, j) for j in vertices] for i in vertices]
        pool = []
        if mode in ("finite", "any"):
            pool += _finite_templates(len(vertices))
        if mode in ("affine", "any"):
            pool += _affine_templates(len(vertices))
        label = next(
            (name for name, tpl in pool if reference_isomorphic(rows, tpl)), "other"
        )
        out.append((label, vertices))
    return out


def permuted(rows, rng):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[p][q] for q in perm] for p in perm]


def random_connected_rows(rng, size):
    """A connected generalized Cartan matrix, entries 0, -1, ..., -4.

    A random spanning tree plus random extra edges; each edge gets its
    two entries independently, so most of these match no template.
    """
    rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    edges = [(rng.randrange(v), v) for v in range(1, size)]
    edges += [
        (i, j)
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < 0.15
    ]
    for i, j in edges:
        rows[i][j], rows[j][i] = rng.randint(-4, -1), rng.randint(-4, -1)
    return permuted(rows, rng)


class TestClassificationAgainstReference:
    """The signature catalog, matched once per distinct component matrix,
    against the scan of the whole pool it replaced, in all three modes."""

    MODES = ("finite", "affine", "any")

    def agree(self, d):
        labels = set()
        for mode in self.MODES:
            got = [(c.label, c.vertices) for c in classify_components(d, mode)]
            assert got == reference_classify(d, mode), (d, mode)
            labels.update(label for label, _ in got)
        return labels

    def test_permuted_templates(self):
        rng = random.Random(20)
        for size in range(1, 10):
            templates = _finite_templates(size) + _affine_templates(size)
            # each template alone under three relabelings, then all of them
            # as the components of one diagram, some matrices repeated
            shapes = [permuted(rows, rng) for _, rows in templates for _ in range(3)]
            for rows in shapes:
                self.agree(
                    LinkableDynkinDiagram(validate_cartan(rows), (), frozenset())
                )
            blocks = shapes + shapes[::2]
            n = size * len(blocks)
            whole = [[0] * n for _ in range(n)]
            for b, rows in enumerate(blocks):
                for i, row in enumerate(rows):
                    whole[b * size + i][b * size : (b + 1) * size] = row
            labels = self.agree(
                LinkableDynkinDiagram(validate_cartan(whole), (), frozenset())
            )
            assert {name for name, _ in templates} <= labels

    def test_small_family_rings_and_prisms(self):
        family = [component_diag(list(l), list(p)) for l, p in small_family()]
        assert len(family) == 631
        rings = [circle(label, n) for label in ("A3", "B3") for n in range(2, 17)]
        for d in family + rings + [prism(4), prism(8)]:
            self.agree(d)

    def test_random_connected_matrices(self):
        rng = random.Random(21)
        labels = []
        for _ in range(600):
            rows = random_connected_rows(rng, rng.randint(1, 7))
            d = LinkableDynkinDiagram(validate_cartan(rows), (), frozenset())
            labels.append(classify_components(d, "any")[0].label)
            self.agree(d)
        # mostly "other", with some recognized types among them
        others = labels.count("other")
        assert others > len(labels) // 2 and len(set(labels)) > 5

    def test_ring_matches_once_per_component_shape(self, count_calls):
        # 16 equal A3 components: one shape code each, then one lookup
        calls = count_calls(linkdyn.diagram, "_shape")
        for mode in self.MODES:
            d = circle("A3", 16)
            labels = {c.label for c in classify_components(d, mode)}
            assert labels == ({"other"} if mode == "affine" else {"A3"})
        assert len(calls) == 16 * len(self.MODES)

    def test_near_catalog_trees_and_cycles(self):
        # trees of mostly single edges with arrows of every kind, cycles of
        # single and double edges, some with a tail, and each template with
        # one edge changed: shapes next to the catalog's
        rng = random.Random(23)
        arrows = [(-1, -2), (-2, -1), (-1, -3), (-3, -1), (-1, -4), (-4, -1), (-2, -2)]
        near = []
        for _ in range(800):
            # a path of spine vertices, the rest hung anywhere before them;
            # up to two edges carry an arrow
            size = rng.randint(1, 10)
            spine = rng.randint(max(1, size - 3), size)
            edges = [(v - 1 if v < spine else rng.randrange(v), v) for v in range(1, size)]
            barbed = rng.sample(range(len(edges)), min(len(edges), rng.choice((0, 1, 1, 2))))
            rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
            for k, (u, v) in enumerate(edges):
                rows[u][v], rows[v][u] = rng.choice(arrows) if k in barbed else (-1, -1)
            near.append(rows)
        for _ in range(200):
            size = rng.randint(3, 10)
            tail = rng.random() < 0.2
            rows = [[2 if i == j else 0 for j in range(size + tail)] for i in range(size + tail)]
            edges = [(v, (v + 1) % size) for v in range(size)] + [(0, size)] * tail
            for u, v in edges:
                pair = rng.choice(arrows[:2]) if rng.random() < 0.15 else (-1, -1)
                rows[u][v], rows[v][u] = pair
            near.append(rows)
        for size in range(2, 11):
            for _, rows in _finite_templates(size) + _affine_templates(size):
                u, v = rng.choice([(u, v) for u in range(size) for v in range(u) if rows[u][v]])
                rows = [list(row) for row in rows]
                rows[u][v], rows[v][u] = rng.choice(arrows + [(-1, -1)])
                near.append(rows)
        labels = []
        for rows in near:
            d = LinkableDynkinDiagram(validate_cartan(permuted(rows, rng)), (), frozenset())
            labels.append(classify_components(d, "any")[0].label)
            self.agree(d)
        recognized = set(labels) - {"other"}
        assert labels.count("other") > 100 and len(recognized) > 30
        assert {"C3", "F4", "E6", "B3(1)", "D8(1)", "A5(1)", "A5(2)", "D4(3)"} <= recognized

    def test_no_two_shapes_coincide(self):
        # so catalog order never decides a label
        for size in range(1, 41):
            for mode in self.MODES:
                shapes = [shape for _, shape in _templates(size, mode)]
                assert len(set(shapes)) == len(shapes), (size, mode)


def reference_walk(diagram, root):
    """Breadth-first order and parents from root, neighbours ascending."""
    parent, order = {root: None}, [root]
    for u in order:
        near = [v for v in range(diagram.size) if v != u and diagram.a(u, v)]
        if diagram.partner(u) is not None:
            near.append(diagram.partner(u))
        for v in sorted(near):
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


def analysis_diagrams():
    """The small family in both modes, A3/B3 rings, two prisms, random ones."""
    for labels, pairs in small_family():
        for mode in ("finite", "affine"):
            yield component_diag(labels, pairs, mode=mode)
    for label in ("A3", "B3"):
        for n in range(2, 17):
            for mode in ("finite", "affine"):
                yield circle(label, n, mode)
    yield prism(4)
    yield prism(16)
    rng = random.Random(22)
    for _ in range(1000):
        yield random_diagram(rng)[1]
    for _ in range(300):
        yield random_selflink_diagram(rng)


class TestAnalysisAgainstReference:
    """The diagram's cached analysis against the functions it stands for."""

    def test_walks_potentials_components_and_g2(self):
        modes, g2, linked = set(), 0, 0
        for d in analysis_diagrams():
            roots, reached = [], set()
            for v in range(d.size):
                if v not in reached:
                    roots.append(v)
                    reached.update(reference_walk(d, v)[0])
            assert d.link_walks == tuple(reference_walk(d, r) for r in roots)
            assert d.is_link_connected() == (len(roots) <= 1)
            linked += len(roots) == 1
            assert d.potentials == tuple(
                (p.numerator, p.denominator) for p in reference_potentials(d)
            )
            catalog = "finite" if d.mode == "finite" else "any"
            assert d.components == tuple(classify_components(d, catalog))
            finite_labels = {c.label for c in classify_components(d, "finite")}
            assert d.has_g2 == (d.mode == "finite" and "G2" in finite_labels)
            modes.add(d.mode)
            g2 += d.has_g2
        assert modes == {"finite", "affine", "selflink"}
        assert g2 > 100 and linked > 1000

    def test_traversal_from_any_root_is_a_fresh_walk(self):
        # link_walks starts each walk at its component's least vertex;
        # the walker itself matches the reference from every root
        d = component_diag(["A2", "B3", "A1"], [(1, 2), (4, 5)])
        for root in range(d.size):
            assert linkdyn.diagram._breadth_first(d, root) == reference_walk(d, root)
        assert d.link_walks == (reference_walk(d, 0),)

    def test_analysis_is_built_once_and_kept_out_of_equality(self, count_calls):
        walked = count_calls(linkdyn.diagram, "_breadth_first")
        classified = count_calls(linkdyn.diagram, "classify_components")
        d = circle("B3", 4)
        for _ in range(3):
            assert d.potentials is d.potentials
            assert d.components is d.components
            d.is_link_connected()
            assert d.link_walks is d.link_walks
            assert not d.has_g2
        assert (len(walked), len(classified)) == (1, 1)
        fresh = circle("B3", 4)
        assert fresh == d and hash(fresh) == hash(d)
        # a new mode is a new diagram with its own analysis
        affine = replace(d, mode="affine")
        assert affine.components == tuple(classify_components(d, "any"))
        # the call above is this module's own binding, which is not counted
        assert (len(walked), len(classified)) == (1, 2)


def reference_roots(rows):
    """Each vertex's root by a breadth-first walk of the square rows from
    each vertex in turn, along the nonzero entries of the row walked."""
    n = len(rows)
    roots = [-1] * n
    for root in range(n):
        reached = [root] if roots[root] < 0 else []
        for v in reached:
            if roots[v] < 0:
                roots[v] = root
                reached += [u for u in range(n) if u != v and rows[v][u]]
    return tuple(roots)


def random_square_rows(rng):
    """Square rows up to 7 wide, valid or not: positive entries, one-sided
    zeros and diagonals other than 2 all occur."""
    n = rng.randint(1, 7)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 if rng.random() < 0.8 else rng.choice((0, 1, 3, -2))
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[i][j], rows[j][i] = rng.choice(EDGE_ENTRIES)
                if rng.random() < 0.15:
                    x, y = rng.choice(((i, j), (j, i)))
                    rows[x][y] = 0
                if rng.random() < 0.1:
                    rows[i][j] = rng.randint(1, 3)
    return tuple(tuple(r) for r in rows)


class TestSparseCore:
    """The sparse rows of CartanMatrix against the square rows they are
    built from, read the way the dense rows used to be read."""

    @staticmethod
    def agree(cartan, rows):
        n = len(rows)
        assert cartan.size == n
        assert dense_rows(cartan) == tuple(map(tuple, rows))
        for v in range(n):
            assert cartan.neighbors[v] == tuple(
                u for u in range(n) if u != v and rows[v][u]
            )
            assert cartan.dense_row(v) == list(rows[v])
            assert cartan.row(v) == {u: x for u, x in enumerate(rows[v]) if x}
        assert cartan.component_roots == reference_roots(rows)
        assert list(cartan.plain_edges()) == [
            (i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]
        ]
        twin = CartanMatrix(tuple(tuple(r) for r in rows))
        assert twin == cartan and hash(twin) == hash(cartan)

    @staticmethod
    def diagrams_with_rows():
        for labels, pairs in small_family():
            for mode in ("finite", "affine"):
                yield component_diag(labels, pairs, mode=mode), block_rows(labels)
        for label in ("A3", "B3"):
            for n in range(2, 17):
                yield circle(label, n), block_rows([label] * n)
        for k in (4, 8):
            yield prism(k), block_rows(["A5"] * (2 * k))

    def test_diagrams_against_their_square_rows(self):
        for d, rows in self.diagrams_with_rows():
            self.agree(d.cartan, rows)

    def test_parse_stores_only_the_diagonal_and_the_plain_edges(self):
        for d, rows in self.diagrams_with_rows():
            df = DiagramFile(d, FieldSpec("cyclotomic"))
            # the edges in reverse order fill each row in another order
            head, *body = df.serialize().splitlines()
            edges = [line for line in body if line.startswith("edge")]
            rest = [line for line in body if not line.startswith("edge")]
            parsed = parse("\n".join([head, *edges[::-1], *rest]) + "\n").diagram
            assert parsed == d and hash(parsed) == hash(d)
            self.agree(parsed.cartan, rows)
            stored = sum(len(parsed.cartan.row(v)) for v in range(d.size))
            assert stored == d.size + 2 * len(edges)

    def test_random_square_rows(self):
        rng = random.Random(32)
        invalid = 0
        for _ in range(500):
            rows = random_square_rows(rng)
            cartan = CartanMatrix(rows)
            self.agree(cartan, rows)
            invalid += not cartan_ok(rows)
            # one entry changed is another matrix
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            other = [list(r) for r in rows]
            other[i][j] -= 1
            assert CartanMatrix(other) != cartan
        assert 100 < invalid < 450

    def test_zero_edge_stores_nothing(self):
        d = parse("vertices 3\nedge 1 2 0 0\nedge 2 3 -1 -1\n").diagram
        self.agree(d.cartan, ((2, 0, 0), (0, 2, -1), (0, -1, 2)))

    def test_only_diagram_reads_the_storage(self):
        # every other module reads entries through a, row and dense_row
        for path in Path(linkdyn.diagram.__file__).parent.glob("*.py"):
            if path.name != "diagram.py":
                assert ".entries" not in path.read_text(encoding="utf-8"), path.name


def test_long_relabelled_chain_is_classified():
    # past the interpreter's recursion limit; the last edge is B's double one
    n = 4096
    perm = list(range(n))
    random.Random(12).shuffle(perm)
    lines = [f"vertices {n}"]
    for t in range(n - 1):
        a_uv, a_vu = (-1, -2) if t == n - 2 else (-1, -1)
        lines.append(f"edge {perm[t] + 1} {perm[t + 1] + 1} {a_uv} {a_vu}")
    d = parse("\n".join(lines) + "\n").diagram
    assert [(c.label, c.vertices) for c in classify_components(d, "finite")] == [
        ("B4096", tuple(range(n)))
    ]


@pytest.mark.parametrize(
    "label, mode, edges",
    [
        ("A4096", "finite", [(v, v + 1) for v in range(4095)]),
        ("A4095(1)", "affine", [(v, (v + 1) % 4096) for v in range(4096)]),
        # the fork vertex 4093 carries the leg 4095 beside the chain's end
        ("D4096", "finite", [(v, v + 1) for v in range(4094)] + [(4093, 4095)]),
        # a fork at each end: two branch vertices, 2 and 4093
        ("D4095(1)", "affine", [(0, 2)] + [(v, v + 1) for v in range(1, 4094)] + [(4093, 4095)]),
    ],
)
def test_large_component_is_classified(label, mode, edges):
    # from the sparse rows under a relabeling, with no n x n work
    perm = list(range(4096))
    random.Random(label).shuffle(perm)
    rows = [{v: 2} for v in range(4096)]
    for u, v in edges:
        rows[perm[u]][perm[v]] = rows[perm[v]][perm[u]] = -1
    d = LinkableDynkinDiagram(CartanMatrix(tuple(rows)), (), frozenset(), mode)
    assert [(c.label, c.vertices) for c in classify_components(d, mode)] == [
        (label, tuple(range(4096)))
    ]
