"""Cycle enumeration, weights, genera, and heights.

The enumeration oracle below rebuilds the cycle list from scratch by
checking every cyclic vertex arrangement, so the two routes share no
code.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import linkdyn.cycles
from linkdyn import (
    InadmissibleD,
    UnsupportedComponentType,
    UnsupportedEdgeInMode,
    VertexNotOnCycle,
    absolute_height,
    affine_genus_value,
    check,
    construct,
    cycle_invariants,
    enumerate_cycles,
    finite_genus_value,
    genus,
    genus_gcd,
    level0_vertices,
    natural_orientation,
    verify,
)
from linkdyn.cycles import signed_weights

from conftest import (
    COMPONENT_ROWS,
    block_rows,
    circle,
    component_diag,
    diag,
    prism,
    small_family,
)

import pytest


def edge_options(diagram, u, v):
    opts = []
    if diagram.a(u, v) != 0:
        opts.append("plain")
    if diagram.partner(u) == v:
        opts.append("dotted")
    return opts


def oracle_cycles(diagram):
    """Every cycle as a canonical (vertices, steps) pair, brute force.

    Tries all vertex subsets of size >= 3 and all cyclic arrangements,
    keeping arrangements whose consecutive vertices are joined; when a
    consecutive pair is joined both plainly and by a dotted edge, each
    choice of steps counts separately.
    """
    n = diagram.size
    found = set()
    for size in range(3, n + 1):
        for subset in itertools.combinations(range(n), size):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cyc = (first,) + rest
                step_choices = [
                    edge_options(diagram, cyc[t], cyc[(t + 1) % size])
                    for t in range(size)
                ]
                if any(not c for c in step_choices):
                    continue
                for steps in itertools.product(*step_choices):
                    found.add(canonical(cyc, steps))
    return found


def canonical(vertices, steps):
    """Rotate and reflect to the smallest representation."""
    n = len(vertices)
    best = None
    for r in range(n):
        rot_v = vertices[r:] + vertices[:r]
        rot_s = steps[r:] + steps[:r]
        for flip in (False, True):
            if flip:
                cand_v = (rot_v[0],) + tuple(reversed(rot_v[1:]))
                cand_s = tuple(reversed(rot_s))
            else:
                cand_v, cand_s = rot_v, rot_s
            key = (cand_v, cand_s)
            if best is None or key < best:
                best = key
    return best


def assert_same_cycles(diagram):
    got = {canonical(c.vertices, c.steps) for c in enumerate_cycles(diagram)}
    assert got == oracle_cycles(diagram)


class TestEnumeration:
    def test_no_dotted_edges_no_cycles(self):
        assert enumerate_cycles(component_diag(["A3", "B2"], [])) == ()

    def test_single_link_no_cycles(self):
        assert enumerate_cycles(component_diag(["A2", "A2"], [(0, 2)])) == ()

    def test_crosswise_square(self):
        d = component_diag(["A2", "A2"], [(0, 2), (1, 3)])
        cycles = enumerate_cycles(d)
        assert len(cycles) == 1
        c = cycles[0]
        assert sorted(c.vertices) == [0, 1, 2, 3]
        assert sorted(c.steps).count("dotted") == 2
        assert_same_cycles(d)

    def test_affine_plain_cycle(self):
        # untwisted affine A_2 is itself a triangle of plain edges
        d = diag(
            ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), [], mode="affine"
        )
        cycles = enumerate_cycles(d)
        assert len(cycles) == 1
        assert cycles[0].dotted_length == 0
        assert_same_cycles(d)

    def test_parallel_plain_and_dotted_edges(self):
        # selflink mode: neighbours joined twice give no two-vertex cycle
        d = component_diag(["A2"], [(0, 1)], mode="selflink")
        assert enumerate_cycles(d) == ()
        # but a triangle through a third vertex uses either edge
        d = component_diag(["A3"], [(0, 2)], mode="selflink")
        cycles = enumerate_cycles(d)
        assert len(cycles) == 1
        assert_same_cycles(d)

    def test_oracle_agreement_on_circles(self):
        for n in (2, 3):
            assert_same_cycles(circle("A3", n))
            assert_same_cycles(circle("B3", n))

    def test_oracle_agreement_on_double_pattern(self):
        d = component_diag(["A3", "A3"], [(0, 3), (1, 4), (2, 5)])
        assert_same_cycles(d)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_random(self, data):
        labels = data.draw(
            st.lists(
                st.sampled_from(["A1", "A2", "A3", "B2", "G2"]),
                min_size=2,
                max_size=3,
            ),
            label="labels",
        )
        rows = block_rows(labels)
        n = len(rows)
        comp = {}
        base = 0
        for idx, name in enumerate(labels):
            for _ in range(len(block_rows([name]))):
                comp[base] = idx
                base += 1
        cross = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if comp[i] != comp[j]
        ]
        pairs = data.draw(
            st.lists(st.sampled_from(cross), max_size=2, unique=True)
            if cross
            else st.just([]),
            label="pairs",
        )
        used = set()
        kept = []
        for i, j in pairs:
            if i in used or j in used:
                continue
            kept.append((i, j))
            used |= {i, j}
        assert_same_cycles(diag(rows, kept))


class TestGenera:
    def test_finite_table(self):
        assert finite_genus_value(2, 5) == 5
        assert finite_genus_value(2, 7) == 5
        assert finite_genus_value(0, 4) == 0
        assert finite_genus_value(0, 2) == 0

    def test_finite_formula_small_values(self):
        assert finite_genus_value(0, 3) == 2
        assert finite_genus_value(1, 2) == 1
        assert finite_genus_value(1, 1) == 3

    def test_affine_formula(self):
        assert affine_genus_value(0, 0, 2) == 0
        assert affine_genus_value(1, 1, 2, coincide=True) == 5
        assert affine_genus_value(1, 1, 2, coincide=False) == 1
        assert affine_genus_value(2, 0, 1, coincide=False) == 10

    def test_a3_circle_genera(self):
        for n in (2, 3, 4):
            d = circle("A3", n)
            cycles = enumerate_cycles(d)
            assert len(cycles) == 1
            inv = cycle_invariants(d, cycles[0])
            assert inv.weight2 == 0
            assert inv.length == n
            assert inv.genus == (0 if n % 2 == 0 else 2)

    def test_b3_circle_genera_two_routes(self):
        for n in (2, 3, 4, 5):
            d = circle("B3", n)
            cycles = enumerate_cycles(d)
            assert len(cycles) == 1
            inv = cycle_invariants(d, cycles[0])
            assert inv.weight2 == n
            assert inv.length == n
            assert inv.genus == finite_genus_value(n, n)
            assert inv.genus == 2**n - (-1) ** n

    def test_genus_gcd(self):
        assert genus_gcd(circle("B3", 2)) == 3
        assert genus_gcd(circle("A3", 4)) == 0
        two = component_diag(
            ["B3", "B3", "B3", "B3"],
            [(2, 3), (5, 6), (8, 9), (11, 0)],
        )
        # single big cycle of weight 4: gcd is its genus
        assert genus_gcd(two) == 15

    def test_mixed_cycle_gcd(self):
        # two independent circles in one diagram share no vertices
        rows = block_rows(["B3"] * 2 + ["B3"] * 3)
        pairs = [(2, 3), (5, 0), (8, 9), (11, 12), (14, 6)]
        d = diag(rows, pairs)
        genera = sorted(
            genus(d, c) for c in enumerate_cycles(d)
        )
        assert genera == [3, 9]
        assert genus_gcd(d) == gcd(3, 9)

    def test_diagram_mode_picks_the_vocabulary(self):
        # a G2 component closed by a dotted edge: its triple edge lies
        # on the cycle, which a finite diagram cannot price
        rows = ((2, -1, 0), (-1, 2, -1), (0, -3, 2))
        selflink = diag(rows, [(0, 2)], mode="selflink")
        c = enumerate_cycles(selflink)[0]
        assert cycle_invariants(selflink, c) == (0, 1, 1, 4)
        assert genus_gcd(selflink) == 4
        # the crosswise G2 pair crosses both triple edges, head to head
        crosswise = component_diag(["G2", "G2"], [(0, 2), (1, 3)], mode="affine")
        c = enumerate_cycles(crosswise)[0]
        assert cycle_invariants(crosswise, c) == (0, 0, 2, 0)
        assert genus_gcd(crosswise) == 0
        with pytest.raises(UnsupportedEdgeInMode, match="in finite mode"):
            genus_gcd(replace(crosswise, mode="finite"))

    def test_orientation_independence(self):
        for n in (2, 3):
            d = circle("B3", n)
            c = enumerate_cycles(d)[0]
            w2f, w3f = signed_weights(d, c)
            w2r, w3r = signed_weights(d, c, reverse=True)
            assert abs(w2f) == abs(w2r)
            assert w3f == -w3r or (w3f == w3r == 0)


class TestHeights:
    def test_level0_on_positive_genus_circles(self):
        for label, n in (("B3", 2), ("B3", 3), ("B3", 4)):
            d = circle(label, n)
            c = enumerate_cycles(d)[0]
            assert genus(d, c) > 0
            zs = level0_vertices(d, c)
            assert zs
            for v in zs:
                assert absolute_height(d, c, v) == 0

    def test_absolute_height_rejects_foreign_vertex(self):
        d = circle("A3", 2)
        c = enumerate_cycles(d)[0]
        with pytest.raises(VertexNotOnCycle):
            absolute_height(d, c, 99)

    def test_natural_orientation_prefers_aligned_doubles(self):
        d = circle("B3", 2)
        c = enumerate_cycles(d)[0]
        sign = natural_orientation(d, c)
        w2, _ = signed_weights(d, c)
        if sign == 1:
            assert w2 >= 0
        else:
            assert w2 < 0

    def test_all_vertices_level0_on_zero_weight_cycle(self):
        d = circle("A3", 2)
        c = enumerate_cycles(d)[0]
        assert level0_vertices(d, c) == tuple(sorted(c.vertices))


# ------------------------------------------------- basis against enumeration


def reference_genus_gcd(diagram):
    """The gcd of the genera of every enumerated cycle, in list order."""
    g = 0
    for cycle in enumerate_cycles(diagram):
        g = gcd(g, genus(diagram, cycle))
    return g


def reference_potentials(diagram):
    """The potentials as Fractions, the walk genus_gcd first used."""
    pot = [None] * diagram.size
    for order, parent in diagram.link_walks:
        pot[order[0]] = Fraction(1)
        for v in order[1:]:
            u = parent[v]
            a_uv = diagram.a(u, v)
            pot[v] = pot[u] * a_uv / diagram.a(v, u) if a_uv else -pot[u]
    return pot


def gcd_or_message(fold, diagram):
    try:
        return fold(diagram)
    except UnsupportedEdgeInMode as exc:
        return str(exc)


RANDOM_LABELS = ("A1", "A2", "A3", "B2", "B2r", "B3", "G2", "G2r", "A1(1)", "A2(2)")


def random_diagram(rng):
    """2 to 6 random components and up to 2k tries at a disjoint dotted edge.

    Tries that hit a used vertex or join a component to itself are
    dropped, so the diagram need not be link-connected.
    """
    labels = [rng.choice(RANDOM_LABELS) for _ in range(rng.randint(2, 6))]
    comp_of = [t for t, name in enumerate(labels) for _ in COMPONENT_ROWS[name]]
    pairs, used = [], set()
    for _ in range(rng.randint(0, 2 * len(labels))):
        i, j = rng.randrange(len(comp_of)), rng.randrange(len(comp_of))
        if comp_of[i] != comp_of[j] and not {i, j} & used:
            pairs.append((i, j))
            used.update((i, j))
    mode = rng.choice(("finite", "affine"))
    return labels, component_diag(labels, pairs, mode=mode)


def decide_without_enumeration(diagram, calls):
    """check, and construct plus verify on a yes, enumerating no cycle."""
    before = len(calls)
    report = check(diagram)
    if report.decision == "yes":
        assert verify(diagram, construct(diagram)).ok
    assert len(calls) == before
    return report


class TestBasisAgainstEnumeration:
    def test_random_diagrams(self, count_calls):
        calls = count_calls(linkdyn.cycles, "enumerate_cycles")
        rng = random.Random(8)
        seen, messages, yes = set(), 0, []
        for _ in range(5000):
            labels, d = random_diagram(rng)
            for mode in ("finite", "affine"):
                dm = replace(d, mode=mode)
                got = gcd_or_message(genus_gcd, dm)
                assert got == gcd_or_message(reference_genus_gcd, dm)
                if isinstance(got, str):
                    messages += 1
                else:
                    seen.add(got)
            if not d.is_link_connected():
                continue
            try:
                report = decide_without_enumeration(d, calls)
            except UnsupportedComponentType:
                continue
            if report.decision == "yes" and {"B2", "B2r", "G2", "G2r"} & {*labels}:
                yes.append(d)
        assert messages > 300
        assert {0, 1, 2, 3, 4, 5, 7, 8, 9} <= seen
        # every root order either is refused up front or verifies
        assert len(yes) > 200
        for d in yes[:40]:
            before = len(calls)
            for order in range(1, 46):
                try:
                    m = construct(d, d=order)
                except InadmissibleD:
                    continue
                assert verify(d, m).ok
            assert len(calls) == before

    def test_potentials_in_lowest_terms(self):
        rng = random.Random(9)
        diagrams = [random_diagram(rng)[1] for _ in range(2000)]
        diagrams += [circle("B3", n) for n in range(2, 9)] + [prism(4)]
        for d in diagrams:
            assert d.potentials == tuple(
                (p.numerator, p.denominator) for p in reference_potentials(d)
            )

    def test_parallel_plain_and_dotted_edges(self):
        # selflink mode: the two-vertex round trip is no cycle, and the
        # genera follow the affine vocabulary
        for labels, pairs in (
            (["A2"], [(0, 1)]),
            (["B2"], [(0, 1)]),
            (["B3"], [(1, 2)]),
            (["B3"], [(0, 2)]),
            (["B3", "A2"], [(1, 2), (0, 3)]),
        ):
            d = component_diag(labels, pairs, mode="selflink")
            assert genus_gcd(d) == reference_genus_gcd(d)

    def test_small_family_and_rings(self, count_calls):
        calls = count_calls(linkdyn.cycles, "enumerate_cycles")
        diagrams = [
            component_diag(labels, pairs, mode=mode)
            for labels, pairs in small_family()
            for mode in ("finite", "affine")
        ]
        diagrams += [
            circle(label, n, mode)
            for label in ("A3", "B3")
            for n in range(2, 9)
            for mode in ("finite", "affine")
        ]
        decided = 0
        for d in diagrams:
            got = gcd_or_message(genus_gcd, d)
            assert got == gcd_or_message(reference_genus_gcd, d)
            if d.is_link_connected():
                try:
                    decide_without_enumeration(d, calls)
                    decided += 1
                except UnsupportedComponentType:
                    pass
        assert decided > 600


class TestPrism:
    def test_small_prisms_enumerate_nothing(self, count_calls):
        calls = count_calls(linkdyn.cycles, "enumerate_cycles")
        for k in (4, 6):
            assert genus_gcd(prism(k)) == reference_genus_gcd(prism(k))
        report = decide_without_enumeration(prism(6), calls)
        assert (report.decision, report.genus_gcd) == ("yes", 0)
        assert not calls

    def test_parity_decides(self):
        for k, decision, g in ((15, "no", 2), (16, "yes", 0)):
            report = check(prism(k))
            assert (report.decision, report.genus_gcd) == (decision, g)

    def test_construct_and_verify_at_320_vertices(self):
        d = prism(32)
        m = construct(d)
        assert (m.size, m.order) == (320, 5)
        assert verify(d, m).ok
