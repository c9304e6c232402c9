"""Cycles in linkable Dynkin diagrams and their numeric invariants.

A cycle is a closed, non self-intersecting walk using plain and dotted
edges.  Its invariants (signed double and triple arrow counts, number of
dotted edges) drive the genus formulas that decide whether a braiding
matrix can exist.  The gcd of all genera comes from one walk of the
link graph, whose non-tree edges close a fundamental-cycle basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Iterator, NamedTuple

from .diagram import LinkableDynkinDiagram, edge_kind
from .errors import UnsupportedEdgeInMode, VertexNotOnCycle

# edge kinds allowed inside a cycle, per vocabulary
_CYCLE_KINDS = {
    "finite": ("single", "double"),
    "affine": ("single", "double", "triple", "a1affine"),
}


def _vocabulary(diagram: LinkableDynkinDiagram) -> str:
    """The cycle vocabulary and genus formula a diagram reads.

    A finite diagram reads the finite ones, an affine or selflink
    diagram the affine ones.
    """
    return "finite" if diagram.mode == "finite" else "affine"


@dataclass(frozen=True)
class Cycle:
    """A cycle given by its vertex sequence and the edge kind of each step.

    steps[t] is 'plain' or 'dotted' and joins vertices[t] to
    vertices[(t+1) % n].  The stored direction starts at the smallest
    vertex and runs toward its smaller neighbour on the cycle.
    """

    vertices: tuple[int, ...]
    steps: tuple[str, ...]

    @property
    def dotted_length(self) -> int:
        return sum(1 for s in self.steps if s == "dotted")

    def arcs(self, reverse: bool = False) -> Iterator[tuple[int, int, str]]:
        """Yield (from, to, step kind) traversing the whole cycle once."""
        n = len(self.vertices)
        if not reverse:
            for t in range(n):
                yield self.vertices[t], self.vertices[(t + 1) % n], self.steps[t]
        else:
            for t in range(n - 1, -1, -1):
                yield self.vertices[(t + 1) % n], self.vertices[t], self.steps[t]


def enumerate_cycles(diagram: LinkableDynkinDiagram) -> tuple[Cycle, ...]:
    """All cycles of length >= 3, each once up to rotation and reflection.

    Parallel plain and dotted edges between the same two vertices give
    distinct cycles.  Two-vertex round trips over such a parallel pair
    are not cycles here.  Output is sorted by (size, vertices, steps).
    """
    n = diagram.size
    adj: list[list[tuple[int, str]]] = []
    for v in range(n):
        nbrs = [(u, "plain") for u in diagram.cartan.neighbors[v]]
        if (p := diagram.partner(v)) is not None:
            nbrs.append((p, "dotted"))
        adj.append(sorted(nbrs))

    found: list[Cycle] = []

    def dfs(start: int, path: list[int], steps: list[str], on_path: set[int]) -> None:
        v = path[-1]
        for u, kind in adj[v]:
            if u == start and len(path) >= 3 and path[1] < path[-1]:
                found.append(Cycle(tuple(path), tuple(steps + [kind])))
            elif u > start and u not in on_path:
                on_path.add(u)
                path.append(u)
                steps.append(kind)
                dfs(start, path, steps, on_path)
                steps.pop()
                path.pop()
                on_path.remove(u)

    for start in range(n):
        dfs(start, [start], [], {start})
    found.sort(key=lambda c: (len(c.vertices), c.vertices, c.steps))
    return tuple(found)


def signed_weights(
    diagram: LinkableDynkinDiagram, cycle: Cycle, reverse: bool = False
) -> tuple[int, int]:
    """Signed double and triple arrow counts along the stored direction.

    An arrow pointing the way we walk counts +1, an opposing arrow -1.
    Edge kinds outside the diagram's cycle vocabulary raise
    UnsupportedEdgeInMode.
    """
    mode = _vocabulary(diagram)
    allowed = _CYCLE_KINDS[mode]
    w2 = w3 = 0
    for u, v, step in cycle.arcs(reverse):
        if step == "dotted":
            continue
        kind = edge_kind(diagram.a(u, v), diagram.a(v, u))
        if kind.kind not in allowed:
            raise UnsupportedEdgeInMode(
                f"{kind.kind} edge ({u + 1},{v + 1}) cannot lie on a cycle in "
                f"{mode} mode"
            )
        if kind.kind == "double":
            w2 += 1 if kind.head == 1 else -1
        elif kind.kind == "triple":
            w3 += 1 if kind.head == 1 else -1
    return w2, w3


class CycleInvariants(NamedTuple):
    """Invariants of one cycle: absolute weights, dotted length, genus."""

    weight2: int
    weight3: int
    length: int
    genus: int


def finite_genus_value(weight: int, length: int) -> int:
    """Genus from the absolute double weight and the dotted length."""
    return 2**weight - (-1) ** length


def affine_genus_value(
    weight3: int, weight2: int, length: int, coincide: bool = True
) -> int:
    """Genus in affine mode.

    coincide tells whether the orientations preferred by double and by
    triple arrows agree; when either weight vanishes both formulas give
    the same value.
    """
    if coincide:
        return 3**weight3 * 2**weight2 - (-1) ** length
    return abs(3**weight3 - 2**weight2 * (-1) ** length)


def cycle_invariants(
    diagram: LinkableDynkinDiagram, cycle: Cycle
) -> CycleInvariants:
    """Weights, dotted length and genus of one cycle."""
    w2, w3 = signed_weights(diagram, cycle)
    length = cycle.dotted_length
    if _vocabulary(diagram) == "finite":
        g = finite_genus_value(abs(w2), length)
    else:
        coincide = w2 == 0 or w3 == 0 or (w2 > 0) == (w3 > 0)
        g = affine_genus_value(abs(w3), abs(w2), length, coincide)
    return CycleInvariants(abs(w2), abs(w3), length, g)


def genus(diagram: LinkableDynkinDiagram, cycle: Cycle) -> int:
    return cycle_invariants(diagram, cycle).genus


def genus_gcd(diagram: LinkableDynkinDiagram) -> int:
    """Greatest common divisor of all cycle genera, 0 when all are 0.

    A cycle's genus is the numerator of |r - 1|, r = (-1)^L 2^w2 3^w3
    the product of a_vu / a_uv over its plain steps u -> v and of -1
    over its dotted ones.  r is multiplicative on the cycle space, and
    m divides the genus iff r is a unit congruent to 1 mod m, so the
    gcd over the fundamental cycles of the link walks, one per edge
    off them, is the gcd over all cycles; diagram.potentials give each
    such r or 1 / r.  The cycles are enumerated only when a plain edge
    outside the diagram's cycle kinds, or doubling a dotted edge, has both
    ends of link degree >= 2, so UnsupportedEdgeInMode names the edge
    of the first cycle that holds one and two-vertex trips stay out.
    """
    edges = list(diagram.cartan.plain_edges())
    degree = Counter(chain.from_iterable(chain(edges, diagram.linkable)))
    allowed = _CYCLE_KINDS[_vocabulary(diagram)]
    for u, v in edges:
        kind = edge_kind(diagram.a(u, v), diagram.a(v, u)).kind
        if min(degree[u], degree[v]) >= 2 and (
            diagram.partner(u) == v or kind not in allowed
        ):
            return gcd(*(genus(diagram, c) for c in enumerate_cycles(diagram)))
    pot = diagram.potentials
    numerators = []
    # a dotted edge enters r as a_uv / a_vu = -1 / 1
    for u, v, a_uv, a_vu in chain(
        ((u, v, diagram.a(u, v), diagram.a(v, u)) for u, v in edges),
        ((u, v, -1, 1) for u, v in diagram.linkable),
    ):
        # r = n / d, and |r - 1| in lowest terms has numerator
        # |n - d| / gcd(n - d, d)
        n = pot[u][0] * pot[v][1] * a_uv
        d = pot[u][1] * pot[v][0] * a_vu
        numerators.append(abs(n - d) // gcd(n - d, d))
    return gcd(*numerators)


# ----------------------------------------------------------------- heights


def _double_step(h: int, pointing_with: bool) -> int:
    # clamp at zero: h never goes negative
    if pointing_with:
        return h - 1 if h > 0 else 0
    return h + 1


def natural_orientation(diagram: LinkableDynkinDiagram, cycle: Cycle) -> int:
    """+1 for the stored direction, -1 for its reverse.

    The chosen direction has at least as many double arrows pointing
    with it as against it.  Ties keep the stored direction.
    """
    w2, _ = signed_weights(diagram, cycle)
    return -1 if w2 < 0 else 1


def absolute_height(
    diagram: LinkableDynkinDiagram, cycle: Cycle, vertex: int
) -> int:
    """Clamped height of a vertex over itself around the whole cycle."""
    if vertex not in cycle.vertices:
        raise VertexNotOnCycle(f"vertex {vertex + 1} is not on the cycle")
    reverse = natural_orientation(diagram, cycle) < 0
    arcs = list(cycle.arcs(reverse))
    pos = next(t for t, (u, _, _) in enumerate(arcs) if u == vertex)
    h = 0
    for u, v, step in arcs[pos:] + arcs[:pos]:
        if step == "dotted":
            continue
        kind = edge_kind(diagram.a(u, v), diagram.a(v, u))
        if kind.kind == "double":
            h = _double_step(h, kind.head == 1)
    return h


def level0_vertices(
    diagram: LinkableDynkinDiagram, cycle: Cycle
) -> tuple[int, ...]:
    """Vertices of the cycle whose absolute height is zero, sorted."""
    return tuple(
        sorted(v for v in cycle.vertices if absolute_height(diagram, cycle, v) == 0)
    )
