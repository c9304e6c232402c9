"""Diagram fixtures for the benchmark, emitted as `.dg` text.

Nothing here imports linkdyn or the test suite.  Each generator builds
its diagrams from component templates, parses its own text back with
the small reader below and checks the structure with graph routines of
its own: vertex counts, cycle counts, the parity of dotted lengths that
decides prisms and A3 rings, and the genus of B3 rings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

# Cartan rows of the component templates (B2 and G2 point toward the
# second vertex, the r variants toward the first)
COMPONENTS = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A5": tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(5))
        for i in range(5)
    ),
    "B2": ((2, -2), (-1, 2)),
    "B2r": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "G2": ((2, -3), (-1, 2)),
    "G2r": ((2, -1), (-3, 2)),
}

# The small family: every multiset of these labels with at most five
# vertices, with no dotted edge (one component only), one dotted edge
# or two disjoint dotted edges between different components.
FAMILY_LABELS = ("A1", "A2", "A3", "B2", "B2r", "G2", "G2r")
FAMILY_SIZE = 307

# Decision of `check` for each link-connected family member, in
# generation order: n = no, y = yes, x = excluded.  The benchmark's
# tests recompute them; criterion 6 of the acceptance tests checks
# them against the exhaustive oracle.
FAMILY_DECISIONS = (
    "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyynyynyyyyynnyyyynnyyyynnyyyynny"
    "yyyyynnnnnnyyyyyynnnnnnyyyyyynnnnnnyyyyyynnnnnnyyyyynyyyynyyyyyn"
    "nyyyynnyyyyynyyyynnyyyynnyyyyxxyyyyxxyyyyxxnnnynnynnnnnnnnnnnnnn"
    "nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn"
    "nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn"
)
DECISION_CODES = {"n": "no", "y": "yes", "x": "excluded"}

# Family members from cheapest to costliest `check` + `construct` +
# `oracle`, as timed once when the benchmark was defined.  Sampling
# stratifies on this order so every seed draws the same cost mix; the
# order is fixed data and does not follow later speed-ups.
FAMILY_COST_ORDER = (
    0, 157, 169, 4, 3, 6, 164, 5, 7, 17, 16, 1, 15, 20, 22, 19, 8, 23, 18, 24,
    11, 9, 41, 46, 21, 53, 114, 60, 2, 39, 40, 48, 45, 54, 132, 42, 13, 26, 58,
    126, 59, 113, 112, 52, 57, 123, 115, 149, 138, 111, 148, 122, 51, 12, 124,
    156, 155, 28, 31, 142, 129, 165, 27, 102, 154, 30, 29, 120, 136, 153, 64,
    119, 89, 14, 10, 141, 32, 118, 63, 33, 99, 143, 137, 88, 100, 91, 65, 101,
    131, 147, 159, 90, 92, 68, 177, 87, 168, 130, 78, 117, 67, 38, 77, 174, 25,
    150, 144, 79, 80, 125, 66, 135, 76, 139, 75, 104, 162, 161, 167, 103, 166,
    160, 47, 36, 56, 61, 62, 55, 127, 146, 134, 35, 151, 49, 50, 107, 106, 95,
    96, 94, 97, 105, 110, 44, 93, 98, 108, 43, 109, 73, 72, 81, 69, 74, 82, 70,
    71, 85, 116, 86, 84, 83, 145, 121, 140, 158, 128, 170, 152, 133, 163, 184,
    183, 186, 185, 276, 268, 270, 221, 269, 224, 258, 282, 216, 281, 219, 223,
    212, 246, 286, 215, 277, 247, 248, 271, 280, 222, 214, 245, 267, 220, 257,
    243, 226, 279, 275, 278, 287, 283, 218, 172, 249, 225, 171, 274, 273, 181,
    182, 244, 230, 285, 234, 301, 217, 179, 233, 288, 231, 206, 202, 297, 180,
    304, 201, 229, 284, 205, 208, 203, 302, 293, 209, 296, 292, 227, 290, 250,
    291, 266, 306, 200, 305, 237, 207, 272, 239, 256, 303, 173, 187, 259, 260,
    197, 241, 255, 213, 263, 196, 211, 236, 193, 34, 262, 251, 204, 195, 192,
    264, 294, 190, 188, 253, 178, 238, 252, 298, 254, 289, 295, 232, 189, 299,
    300, 235, 37, 176, 261, 228, 194, 242, 175, 199, 210, 198, 240, 265, 191,
)

_COST_RANK = {t: r for r, t in enumerate(FAMILY_COST_ORDER)}

# simple cycles of the prism over two k-rings, counted independently
PRISM_CYCLES = {4: 28, 8: 312, 10: 1114}


@dataclass(frozen=True)
class Fixture:
    """One diagram: its file name, `.dg` text and expected facts."""

    name: str
    text: str
    decision: str
    facts: dict


class FixtureError(RuntimeError):
    """A generator produced a diagram that fails its own self-check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FixtureError(message)


# ------------------------------------------------------------ text format


def block_rows(labels) -> list[list[int]]:
    """Block-diagonal Cartan rows for a list of component labels."""
    blocks = [COMPONENTS[name] for name in labels]
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    base = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                rows[base + i][base + j] = v
        base += len(b)
    return rows


def dg_text(rows, pairs, perm=None) -> str:
    """`.dg` text of a diagram with every dotted pair linked.

    perm maps each 0-based vertex to its new 0-based label; edges and
    links are written in the order of their new labels.
    """
    n = len(rows)
    perm = perm or list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j]:
                a, b, aab, aba = perm[i], perm[j], rows[i][j], rows[j][i]
                if a > b:
                    a, b, aab, aba = b, a, aba, aab
                edges.append((a, b, aab, aba))
    links = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in pairs)
    lines = [f"vertices {n}"]
    lines += [f"edge {a + 1} {b + 1} {x} {y}" for a, b, x, y in sorted(edges)]
    lines += [f"link {a + 1} {b + 1}" for a, b in links]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Graph:
    """A `.dg` file read back: size, Cartan entries and dotted pairs."""

    size: int
    cartan: dict  # (i, j) -> a_ij for nonzero off-diagonal entries
    links: tuple

    def neighbours(self) -> dict[int, list[tuple[int, int]]]:
        """Adjacency with a dotted flag (1 for a dotted edge) per arc."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.size)}
        for i, j in self.cartan:
            adj[i].append((j, 0))
        for i, j in self.links:
            adj[i].append((j, 1))
            adj[j].append((i, 1))
        return adj


def read_dg(text: str) -> Graph:
    """Read the subset of the `.dg` format that dg_text writes."""
    size, cartan, links = 0, {}, []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "vertices":
            size = int(parts[1])
        elif parts[0] == "edge":
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            cartan[(i, j)], cartan[(j, i)] = int(parts[3]), int(parts[4])
        elif parts[0] == "link":
            links.append((int(parts[1]) - 1, int(parts[2]) - 1))
    return Graph(size, cartan, tuple(links))


def is_connected(g: Graph) -> bool:
    adj = g.neighbours()
    seen, stack = {0}, [0]
    while stack:
        for u, _ in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.size


def dotted_parity_consistent(g: Graph) -> bool:
    """True iff every cycle crosses an even number of dotted edges."""
    adj = g.neighbours()
    side = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, dotted in adj[v]:
            want = side[v] ^ dotted
            if u not in side:
                side[u] = want
                stack.append(u)
            elif side[u] != want:
                return False
    return True


def count_cycles(g: Graph) -> int:
    """Simple cycles of a graph without parallel edges.

    Chains of degree-2 vertices are contracted first, so the search
    runs on the branch vertices only.
    """
    adj = {v: {u for u, _ in arcs} for v, arcs in g.neighbours().items()}
    for v in list(adj):
        if len(adj[v]) == 2:
            a, b = adj.pop(v)
            _require(b not in adj[a], "contraction made a parallel edge")
            adj[a].discard(v)
            adj[b].discard(v)
            adj[a].add(b)
            adj[b].add(a)
    found = 0

    def dfs(start: int, v: int, depth: int, on_path: set) -> None:
        nonlocal found
        for u in adj[v]:
            if u == start and depth >= 3:
                found += 1
            elif u > start and u not in on_path:
                on_path.add(u)
                dfs(start, u, depth + 1, on_path)
                on_path.remove(u)

    for start in sorted(adj):
        dfs(start, start, 1, {start})
    return found // 2  # each cycle is met once per direction


# ----------------------------------------------------------------- family


def _family_candidates():
    """(labels, pairs) in the fixed enumeration order of the family."""
    sizes = {name: len(COMPONENTS[name]) for name in FAMILY_LABELS}
    for count in (1, 2, 3, 4, 5):
        for combo in combinations_with_replacement(FAMILY_LABELS, count):
            widths = [sizes[n] for n in combo]
            total = sum(widths)
            if total > 5:
                continue
            comp_of = {}
            base = 0
            for t, w in enumerate(widths):
                for v in range(base, base + w):
                    comp_of[v] = t
                base += w
            cross = [
                (i, j)
                for i in range(total)
                for j in range(i + 1, total)
                if comp_of[i] != comp_of[j]
            ]
            pair_sets = [()] if count == 1 else []
            pair_sets.extend((p,) for p in cross)
            pair_sets.extend(
                (p, q) for p, q in combinations(cross, 2) if len({*p, *q}) == 4
            )
            for pairs in pair_sets:
                yield combo, pairs


def family() -> list[Fixture]:
    """The 307 link-connected members of the small family, in order."""
    out = []
    for combo, pairs in _family_candidates():
        text = dg_text(block_rows(combo), pairs)
        if not is_connected(read_dg(text)):
            continue
        t = len(out)
        _require(t < FAMILY_SIZE, "family has more members than expected")
        out.append(
            Fixture(
                f"family-{t:03d}",
                text,
                DECISION_CODES[FAMILY_DECISIONS[t]],
                {"index": t, "labels": "+".join(combo)},
            )
        )
    _require(len(out) == FAMILY_SIZE, f"family has {len(out)} members")
    counts = {d: sum(f.decision == d for f in out) for d in DECISION_CODES.values()}
    _require(
        counts == {"no": 179, "yes": 122, "excluded": 6},
        f"family decisions {counts}",
    )
    return out


def family_sample(members: list[Fixture], size: int, rng: random.Random) -> list[Fixture]:
    """A stratified sample that keeps the family's decision shares.

    Each decision class gets its share of the sample (largest
    remainders round up).  Within a class the members are sorted by
    FAMILY_COST_ORDER and cut into as many equal strata as the class
    has picks; one member is drawn from each stratum, so every seed
    draws the same mix of cheap and costly diagrams.  The sample is
    then shuffled.
    """
    by_class = {d: [f for f in members if f.decision == d] for d in DECISION_CODES.values()}
    exact = {d: size * len(v) / len(members) for d, v in by_class.items()}
    picks = {d: int(x) for d, x in exact.items()}
    for d in sorted(exact, key=lambda d: exact[d] - picks[d], reverse=True):
        if sum(picks.values()) == size:
            break
        picks[d] += 1
    sample = []
    for d, pool in by_class.items():
        pool = sorted(pool, key=lambda f: _COST_RANK[f.facts["index"]])
        m = picks[d]
        for s in range(m):
            lo, hi = s * len(pool) // m, (s + 1) * len(pool) // m
            sample.append(pool[rng.randrange(lo, hi)])
    rng.shuffle(sample)
    return sample


# ------------------------------------------------------------------ prism


def prism(k: int, rng: random.Random) -> Fixture:
    """Two k-rings of A5 components joined by rungs, randomly relabelled.

    In ring r, position 5 of component t is linked to position 1 of
    component t+1 and position 3 of component t is linked to position 3
    of component t in the other ring.  Contracted to the position-3
    vertices this is the prism graph over a k-cycle: bipartite, hence
    'yes', exactly when k is even.
    """
    rows = block_rows(["A5"] * (2 * k))

    def at(r: int, t: int, pos: int) -> int:
        return (r * k + t % k) * 5 + pos - 1

    pairs = [(at(r, t, 5), at(r, t + 1, 1)) for r in (0, 1) for t in range(k)]
    pairs += [(at(0, t, 3), at(1, t, 3)) for t in range(k)]
    perm = list(range(10 * k))
    rng.shuffle(perm)
    text = dg_text(rows, pairs, perm)
    g = read_dg(text)
    _require(g.size == 10 * k, f"prism k={k} has {g.size} vertices")
    cycles = count_cycles(g)
    if k in PRISM_CYCLES:
        _require(cycles == PRISM_CYCLES[k], f"prism k={k} has {cycles} cycles")
    yes = dotted_parity_consistent(g)
    _require(yes == (k % 2 == 0), f"prism k={k} parity decides {yes}")
    return Fixture(f"prism-{k:02d}", text, "yes" if yes else "no", {"k": k, "cycles": cycles})


# ------------------------------------------------------------------ rings


def ring_genus(g: Graph) -> int:
    """Genus 2^|w| - (-1)^l of a diagram that is a single cycle.

    w counts double edges walked along their arrow minus those walked
    against it (an arrow points toward j when a_ij = -2); l counts the
    dotted edges.
    """
    adj = g.neighbours()
    _require(
        is_connected(g) and all(len(arcs) == 2 for arcs in adj.values()),
        "ring is not a single cycle",
    )
    prev, v, w, l = None, 0, 0, 0
    for _ in range(g.size):
        (u, dotted), = [(u, d) for u, d in adj[v] if u != prev][:1]
        if dotted:
            l += 1
        elif g.cartan[(v, u)] == -2:
            w += 1
        elif g.cartan[(u, v)] == -2:
            w -= 1
        prev, v = v, u
    _require(v == 0, "ring walk did not close")
    return 2 ** abs(w) - (-1) ** l


def ring(label: str, n: int, rng: random.Random) -> Fixture:
    """n copies of a path component joined end to start, relabelled.

    The expected root order of `construct` is the genus when it is
    nonzero (it is odd for these rings) and 5 when it vanishes.
    """
    size = len(COMPONENTS[label])
    pairs = [(t * size + size - 1, ((t + 1) % n) * size) for t in range(n)]
    perm = list(range(size * n))
    rng.shuffle(perm)
    text = dg_text(block_rows([label] * n), pairs, perm)
    g = read_dg(text)
    _require(g.size == size * n, f"{label} ring n={n} has {g.size} vertices")
    genus = ring_genus(g)
    if label == "B3":
        _require(genus == 2**n - (-1) ** n, f"B3 ring n={n} has genus {genus}")
    _require(genus % 2 == 1 or genus == 0, f"{label} ring n={n} has genus {genus}")
    return Fixture(
        f"ring-{label}-{n:02d}",
        text,
        "yes",
        {"label": label, "n": n, "genus": genus, "root_order": genus or 5},
    )
