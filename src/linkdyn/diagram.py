"""Generalized Cartan matrices and linkable Dynkin diagrams.

A diagram is a generalized Cartan matrix together with a set of dotted
edges between vertices.  Dotted edges are pairwise disjoint, each one
carries a flag (0 or 1), and outside self-linking mode the two ends of a
dotted edge must lie in different plain components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DiagonalNotTwo,
    PositiveOffDiagonal,
    ZeroAsymmetry,
)

Pair = tuple[int, int]

MODES = ("finite", "affine", "selflink")


@dataclass(frozen=True)
class CartanMatrix:
    """Immutable integer matrix satisfying the generalized Cartan axioms,
    kept as each row's nonzero entries by column: N + 2E of them for N
    vertices and E plain edges.  Square rows are accepted and kept so."""

    entries: tuple[dict[int, int], ...]

    def __post_init__(self) -> None:
        rows = (r if isinstance(r, dict) else {j: x for j, x in enumerate(r) if x}
                for r in self.entries)
        object.__setattr__(self, "entries", tuple(rows))

    def __hash__(self) -> int:
        return hash(tuple(frozenset(row.items()) for row in self.entries))

    @property
    def size(self) -> int:
        return len(self.entries)

    def a(self, i: int, j: int) -> int:
        """Entry in row i, column j (0-based)."""
        return self.entries[i].get(j, 0)

    def row(self, i: int) -> dict[int, int]:
        """Row i's nonzero entries by column, for reading only."""
        return self.entries[i]

    def dense_row(self, i: int) -> list[int]:
        """Row i with every column, as a new list."""
        out = [0] * len(self.entries)
        for j, x in self.entries[i].items():
            out[j] = x
        return out

    # the plain graph, built on first use; equality and hashing see the entries
    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's plain neighbours, ascending, read off its row."""
        return tuple(tuple(sorted(u for u in row if u != v)) for v, row in enumerate(self.entries))

    @cached_property
    def component_roots(self) -> tuple[int, ...]:
        """Each vertex's root: the smallest vertex of its plain component."""
        roots = [-1] * self.size
        for root in range(self.size):
            reached = [root] if roots[root] < 0 else []
            for v in reached:  # grows while we walk it
                if roots[v] < 0:
                    roots[v] = root
                    reached.extend(self.neighbors[v])
        return tuple(roots)

    def plain_edges(self) -> Iterator[Pair]:
        """Unordered vertex pairs joined by a nonzero off-diagonal entry."""
        for i, near in enumerate(self.neighbors):
            for j in near:
                if j > i:
                    yield (i, j)


def validate_cartan(rows: Sequence[Sequence[int]]) -> CartanMatrix:
    """Check the generalized Cartan axioms and freeze the matrix.

    Raises DiagonalNotTwo, PositiveOffDiagonal or ZeroAsymmetry naming
    the offending entry with 1-based indices.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has length {len(row)}, expected {n}")
    for i in range(n):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(f"entry ({i + 1},{i + 1}) is {rows[i][i]}, must be 2")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise PositiveOffDiagonal(
                    f"entry ({i + 1},{j + 1}) is {rows[i][j]}, must be <= 0"
                )
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise ZeroAsymmetry(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) must vanish together"
                )
    return CartanMatrix(tuple(tuple(int(x) for x in row) for row in rows))


class EdgeKind(NamedTuple):
    """Classification of one plain edge.

    kind is one of 'none', 'single', 'double', 'triple', 'quadruple',
    'a1affine', 'other'.  head is 0 or 1 for the asymmetric kinds: the
    local index (first or second vertex) whose matrix row holds the
    entry of larger magnitude, i.e. the arrow head.
    """

    kind: str
    head: Optional[int] = None


def edge_kind(aij: int, aji: int) -> EdgeKind:
    """Classify the edge with entries a_ij, a_ji between two vertices."""
    if (aij == 0) != (aji == 0):
        raise ZeroAsymmetry(f"entries {aij} and {aji} must vanish together")
    if aij == 0:
        return EdgeKind("none")
    pair = (aij, aji)
    if pair == (-1, -1):
        return EdgeKind("single")
    if pair == (-2, -2):
        return EdgeKind("a1affine")
    for magnitude, kind in ((-2, "double"), (-3, "triple"), (-4, "quadruple")):
        if pair == (magnitude, -1):
            return EdgeKind(kind, 0)
        if pair == (-1, magnitude):
            return EdgeKind(kind, 1)
    return EdgeKind("other")


@dataclass(frozen=True)
class LinkableDynkinDiagram:
    """A generalized Cartan matrix with dotted (linkable) edges.

    linkable holds the dotted edges as sorted vertex pairs; linked is the
    subset whose flag is 1.  mode is 'finite', 'affine' or 'selflink';
    the first two forbid dotted edges inside one plain component.
    """

    cartan: CartanMatrix
    linkable: tuple[Pair, ...]
    linked: frozenset[Pair]
    mode: str = "finite"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        n = self.cartan.size
        partner: dict[int, int] = {}
        for i, j in self.linkable:
            if not (0 <= i < j < n):
                raise ValueError(f"bad dotted edge ({i + 1},{j + 1})")
            if i in partner or j in partner:
                raise ValueError(
                    f"dotted edges must be disjoint, vertex {max(i, j) + 1} reused"
                )
            partner[i] = j
            partner[j] = i
        # derived data lives outside the fields, so equality and hashing
        # still see only the matrix, the dotted edges and the mode
        object.__setattr__(self, "_partner", partner)
        if not self.linked <= set(self.linkable):
            raise ValueError("linked pairs must be declared linkable")
        if self.mode != "selflink":
            comp = self.cartan.component_roots
            for i, j in self.linkable:
                if comp[i] == comp[j]:
                    raise ValueError(
                        f"dotted edge ({i + 1},{j + 1}) inside one plain component "
                        f"requires selflink mode"
                    )

    # ------------------------------------------------------------ structure

    @property
    def size(self) -> int:
        return self.cartan.size

    def a(self, i: int, j: int) -> int:
        return self.cartan.a(i, j)

    def partner(self, v: int) -> Optional[int]:
        """The other end of the dotted edge at v, or None."""
        return self._partner.get(v)

    def plain_components(self) -> list[tuple[int, ...]]:
        """Connected components of the plain-edge graph, each sorted."""
        groups: dict[int, list[int]] = {}
        for v, root in enumerate(self.cartan.component_roots):
            groups.setdefault(root, []).append(v)
        return [tuple(g) for g in groups.values()]

    def is_link_connected(self) -> bool:
        """True if plain and dotted edges together connect all vertices."""
        return len(self.link_walks) <= 1

    # the per-diagram analysis, built on first use and shared by every
    # reader; equality and hashing still see only the fields

    @cached_property
    def link_walks(self) -> tuple[tuple[list[int], dict[int, Optional[int]]], ...]:
        """The breadth-first walk of each link component from its smallest vertex.

        In order of those vertices.  A walk crosses plain and dotted
        edges, visiting neighbours in ascending order, and is the visit
        order with the parent of each reached vertex (None for the first).
        """
        walks, seen = [], set()
        for root in range(self.size):
            if root not in seen:
                walks.append(_breadth_first(self, root))
                seen.update(walks[-1][0])
        return tuple(walks)

    @cached_property
    def potentials(self) -> tuple[tuple[int, int], ...]:
        """Each vertex's diagonal exponent over the root of its link component.

        The root, the smallest vertex, gets 1; down its link walk a plain
        edge u -> v multiplies by a_uv / a_vu and a dotted edge negates.
        Each exponent is a (numerator, denominator) pair in lowest terms
        with a positive denominator.
        """
        a = self.cartan.a
        pot: list[tuple[int, int]] = [(1, 1)] * self.size
        for order, parent in self.link_walks:
            for v in order[1:]:
                u = parent[v]
                num, den = pot[u]
                if a_uv := a(u, v):
                    # both entries are negative on a plain edge
                    num, den = num * -a_uv, den * -a(v, u)
                    g = gcd(num, den)
                    pot[v] = (num // g, den // g)
                else:
                    pot[v] = (-num, den)
        return tuple(pot)

    @cached_property
    def components(self) -> tuple[ComponentType, ...]:
        """The plain components with their labels, in the mode's catalog.

        A finite diagram reads the finite catalog, any other both.
        """
        finite = self.mode == "finite"
        return tuple(classify_components(self, "finite" if finite else "any"))

    @cached_property
    def has_g2(self) -> bool:
        """Whether a finite diagram has a G2 component."""
        return self.mode == "finite" and any(c.label == "G2" for c in self.components)


def _breadth_first(
    diagram: LinkableDynkinDiagram, root: int
) -> tuple[list[int], dict[int, Optional[int]]]:
    parent: dict[int, Optional[int]] = {root: None}
    order = [root]
    for u in order:  # grows while we walk it: a FIFO queue
        p, near = diagram.partner(u), diagram.cartan.neighbors[u]
        for v in near if p is None else sorted((*near, p)):
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


# ------------------------------------------------------------------ shapes
#
# Every catalog entry is a path, a cycle of single edges or a tree with one
# or two branch vertices, so each is named by a shape code that relabeling
# keeps.  An edge walked from u to v reads as its label (a_uv, a_vu).

def _flip(labels: tuple[Pair, ...]) -> tuple[Pair, ...]:
    """A path's edge labels read from its other end."""
    return tuple((y, x) for x, y in reversed(labels))


def _path(labels: tuple[Pair, ...]) -> tuple:
    """A path's code: its labels from whichever end gives the smaller tuple."""
    return ("path", min(labels, _flip(labels)))


def _tree(near: Sequence, between: Optional[tuple[Pair, ...]] = None, far: Sequence = ()) -> tuple:
    """A tree's code: the legs out of its branch vertex, each read outward,
    sorted; with a second branch vertex, also the path to it and that
    vertex's legs, in whichever orientation gives the smaller tuple."""
    near, far = tuple(sorted(near)), tuple(sorted(far))
    if between is None:
        return ("tree", near)
    return ("tree", min((near, between, far), (far, _flip(between), near)))


def _shape(rows: Sequence[dict[int, int]], vertices: Sequence[int]) -> Optional[tuple]:
    """The shape code of the plain component on vertices, from sparse rows.

    None unless the component is a path, a cycle of single edges or a
    tree with at most two branch vertices: no catalog entry is anything
    else.  Each vertex is walked at most twice.
    """
    degree = {v: len(rows[v]) - 1 for v in vertices}
    edges = sum(degree.values()) // 2
    if edges == len(vertices):
        # connected with one cycle: all of it if no degree exceeds 2
        single = all(x == -1 for v in vertices for u, x in rows[v].items() if u != v)
        return ("cycle", edges) if single and max(degree.values()) == 2 else None
    branches = [v for v in vertices if degree[v] > 2]
    if edges != len(vertices) - 1 or len(branches) > 2:
        return None

    # a row's keys are its vertex and that vertex's neighbours, so the
    # other neighbour of a vertex v of degree 2, reached from u, is their
    # sum less u and v
    def walk(u: int, v: int) -> tuple[tuple[Pair, ...], int]:
        # the labels from u through v to the next vertex not of degree 2
        labels = [(rows[u][v], rows[v][u])]
        while degree[v] == 2:
            u, v = v, sum(rows[v]) - u - v
            labels.append((rows[u][v], rows[v][u]))
        return tuple(labels), v

    if not branches:
        if len(vertices) == 1:
            return _path(())
        end = next(v for v in vertices if degree[v] == 1)
        return _path(walk(end, sum(rows[end]) - end)[0])
    arms = [[walk(b, v) for v in rows[b] if v != b] for b in branches]
    if len(branches) == 1:
        return _tree([labels for labels, _ in arms[0]])
    b, c = branches
    between = next(labels for labels, end in arms[0] if end == c)
    legs = [[labels for labels, end in arm if end not in branches] for arm in arms]
    return _tree(legs[0], between, legs[1])


def _templates(s: int, mode: str) -> Iterator[tuple[str, tuple]]:
    """The catalog of one size and mode: each label with its shape code.

    Finite types before affine ones, each in the order of Kac's tables;
    line(k) is k single edges.
    """

    def line(k: int) -> tuple[Pair, ...]:
        return ((-1, -1),) * k

    if mode in ("finite", "any"):
        yield f"A{s}", _path(line(s - 1))
        if s >= 2:
            yield f"B{s}", _path(line(s - 2) + ((-1, -2),))
        if s >= 3:
            yield f"C{s}", _path(line(s - 2) + ((-2, -1),))
        if s >= 4:
            yield f"D{s}", _tree([line(1), line(1), line(s - 3)])
        if s in (6, 7, 8):
            yield f"E{s}", _tree([line(1), line(2), line(s - 4)])
        if s == 4:
            yield "F4", _path(line(1) + ((-1, -2),) + line(1))
        if s == 2:
            yield "G2", _path(((-1, -3),))
    if mode in ("affine", "any"):
        if s == 2:
            yield "A1(1)", _path(((-2, -2),))
            yield "A2(2)", _path(((-1, -4),))
        if s >= 3:
            yield f"A{s - 1}(1)", ("cycle", s)
        fork = [line(1), line(1)]
        if s >= 4:
            # fork at one end, double arrow at the other, head outward
            yield f"B{s - 1}(1)", _tree(fork + [line(s - 4) + ((-1, -2),)])
        if s >= 3:
            yield f"C{s - 1}(1)", _path(((-1, -2),) + line(s - 3) + ((-2, -1),))
        if s >= 5:
            # forks at both ends, on one branch vertex at five vertices
            yield f"D{s - 1}(1)", _tree(fork * 2) if s == 5 else _tree(fork, line(s - 5), fork)
        if s in (7, 8, 9):
            arms = {7: (2, 2, 2), 8: (1, 3, 3), 9: (1, 2, 5)}[s]
            yield f"E{s - 1}(1)", _tree([line(k) for k in arms])
        if s == 5:
            yield "F4(1)", _path(line(2) + ((-1, -2),) + line(1))
        if s == 3:
            yield "G2(1)", _path(line(1) + ((-1, -3),))
        if s >= 3:
            # twisted even A: double arrows at both ends, heads aligned
            yield f"A{2 * (s - 1)}(2)", _path(((-2, -1),) + line(s - 3) + ((-2, -1),))
        if s >= 4:
            # twisted odd A: fork at one end, double arrow pointing inward
            yield f"A{2 * s - 3}(2)", _tree(fork + [line(s - 4) + ((-2, -1),)])
        if s >= 3:
            # twisted D: double arrows at both ends, heads outward
            yield f"D{s}(2)", _path(((-2, -1),) + line(s - 3) + ((-1, -2),))
        if s == 5:
            yield "E6(2)", _path(line(2) + ((-2, -1),) + line(1))
        if s == 3:
            yield "D4(3)", _path(((-1, -3),) + line(1))


@lru_cache(maxsize=32)
def _catalog(size: int, mode: str) -> dict[tuple, str]:
    """The labels of one size and mode by shape code, no two codes alike.

    Constant data, built on first use.
    """
    return {shape: label for label, shape in _templates(size, mode)}


class ComponentType(NamedTuple):
    """One plain component with its recognized type label.

    label examples: 'A3', 'G2', 'A1(1)', 'A5(2)', 'D4(3)'; 'other' if the
    component matches no template of the requested mode.
    """

    label: str
    vertices: tuple[int, ...]


def classify_components(
    diagram: LinkableDynkinDiagram, mode: str = "any"
) -> list[ComponentType]:
    """Recognize each plain component against the finite or affine catalog.

    mode 'finite' reads the finite catalog only, 'affine' affine only,
    'any' both.  Components are returned sorted by smallest vertex, each
    labelled by one lookup of its shape code.
    """
    rows = diagram.cartan.entries
    return [
        ComponentType(_catalog(len(vertices), mode).get(_shape(rows, vertices), "other"), vertices)
        for vertices in diagram.plain_components()
    ]


def dotted_edges_that_meet(
    diagram: LinkableDynkinDiagram,
) -> Iterator[tuple[Pair, Pair]]:
    """Each pair of dotted edges with a plain edge between their ends.

    In the order of combinations(diagram.linkable, 2); a pair with no
    such edge has a_xy == 0 for every end x of one and y of the other.
    """
    pairs = diagram.linkable
    neighbors = diagram.cartan.neighbors
    edge_at = {v: q for q, pair in enumerate(pairs) for v in pair}
    for p, (i, k) in enumerate(pairs):
        near = {edge_at.get(u, -1) for x in (i, k) for u in neighbors[x]}
        for q in sorted(q for q in near if q > p):
            yield (i, k), pairs[q]


def pairwise_linking_consistency(diagram: LinkableDynkinDiagram) -> list[str]:
    """Check the entry-matching condition between every two dotted edges.

    For dotted edges {i,k} and {j,l}, matching the ends in either way
    gives a constraint that must hold: a_ij == a_kl together with
    a_ji == a_lk, and likewise for the crossed matching.  Most of the
    four equalities compare entries across components and hold
    trivially, so only pairs with a plain edge between them are
    compared; the remaining equalities force equal edge data between
    linked components.  One violation is reported per failing matching,
    in the order of the pairs, empty when fine.
    """
    a = diagram.a
    violations: list[str] = []
    for (i, k), (j, l) in dotted_edges_that_meet(diagram):
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
