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


# --------------------------------------------------------------- templates


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


def _row_profile(rows: Sequence[Sequence[int]], i: int) -> tuple[int, ...]:
    """Row i's nonzero off-diagonal entries, sorted: kept by every relabeling."""
    return tuple(sorted(filter(None, rows[i][:i] + rows[i][i + 1 :])))


def _find_isomorphism(rows: Sequence[Sequence[int]], template: tuple) -> Optional[list[int]]:
    """A relabeling carrying a catalog template onto the dense rows, or None.

    Backtracking with a stack of candidate iterators: template vertex k
    goes to an unused vertex of its profile, next to the image of its
    first lower neighbour if it has one, whose entries with the images
    of 0..k-1 are the template's.
    """
    n = len(rows)
    _, tpl, want, lower = template
    have = [_row_profile(rows, v) for v in range(n)]
    near = [[u for u in filter(row.__getitem__, range(n)) if u != v] for v, row in enumerate(rows)]
    assign: list[int] = []
    tried = [iter(range(n))]
    while tried:
        k = len(tried) - 1
        del assign[k:]  # back at vertex k: its last image goes
        for v in tried[-1]:
            if have[v] == want[k] and all(
                w != v and tpl[k][p] == rows[v][w] and tpl[p][k] == rows[w][v]
                for p, w in enumerate(assign)
            ):
                break
        else:
            tried.pop()
            continue
        assign.append(v)
        if k + 1 == n:
            return assign
        p = lower[k + 1]
        tried.append(iter(near[assign[p]] if p >= 0 else range(n)))
    return None


@lru_cache(maxsize=32)
def _catalog(size: int, mode: str) -> dict[tuple, list[tuple]]:
    """The templates of one size and mode by signature, in catalog order.

    Each is what the search reads: its name, rows, row profiles and each
    vertex's first lower neighbour (-1 for none).  Constant data, built
    on first use.
    """
    pool = _finite_templates(size) if mode in ("finite", "any") else []
    if mode in ("affine", "any"):
        pool += _affine_templates(size)
    out: dict[tuple, list[tuple]] = {}
    for name, rows in pool:
        lower = [next(filter(rows[k].__getitem__, range(k)), -1) for k in range(size)]
        profiles = [_row_profile(rows, k) for k in range(size)]
        out.setdefault(tuple(sorted(profiles)), []).append((name, rows, profiles, lower))
    return out


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

    mode 'finite' tries finite templates only, 'affine' affine only,
    'any' both.  Components are returned sorted by smallest vertex.
    Each distinct component matrix is matched once, against the
    templates with its sorted row profiles, first match winning.
    """
    labels: dict[tuple[tuple[int, ...], ...], str] = {}
    result = []
    entries = diagram.cartan.entries
    for vertices in diagram.plain_components():
        zeros = (0,) * len(vertices)
        rows = tuple(tuple(map(entries[v].get, vertices, zeros)) for v in vertices)
        label = labels.get(rows)
        if label is None:
            signature = tuple(sorted(_row_profile(rows, v) for v in range(len(rows))))
            candidates = _catalog(len(rows), mode).get(signature, ())
            label = next(
                (t[0] for t in candidates if _find_isomorphism(rows, t) is not None),
                "other",
            )
            labels[rows] = label
        result.append(ComponentType(label, vertices))
    return result


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
