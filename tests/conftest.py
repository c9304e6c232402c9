"""Shared builders for the test suite.

Diagrams are assembled from component templates so each test spells
out only the structure it cares about.  All builders renumber from 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import namedtuple
from itertools import combinations, combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

import linkdyn
from linkdyn import BraidingMatrix, LinkableDynkinDiagram, validate_cartan
from linkdyn.braiding import RootExpr

# directory holding the imported linkdyn package, so a child interpreter
# runs the same source as the test process whatever its working directory
LINKDYN_SRC = str(Path(linkdyn.__file__).resolve().parents[1])

# rows of the component templates used throughout the tests
COMPONENT_ROWS = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A5": tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(5))
        for i in range(5)
    ),
    # arrow toward the second vertex
    "B2": ((2, -2), (-1, 2)),
    # arrow toward the first vertex
    "B2r": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "G2": ((2, -3), (-1, 2)),
    "G2r": ((2, -1), (-3, 2)),
    "A1(1)": ((2, -2), (-2, 2)),
    "A2(2)": ((2, -4), (-1, 2)),
}


def block_rows(labels):
    """Block-diagonal Cartan rows for a list of component labels."""
    blocks = [COMPONENT_ROWS[name] for name in labels]
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    base = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                rows[base + i][base + j] = v
        base += len(b)
    return tuple(tuple(r) for r in rows)


def dense_rows(cartan):
    """A Cartan matrix's square rows, read entry by entry."""
    n = cartan.size
    return tuple(tuple(cartan.a(i, j) for j in range(n)) for i in range(n))


def diag(rows, pairs, linked=None, mode="finite"):
    """Diagram from Cartan rows plus dotted pairs (0-based, any order)."""
    ps = tuple(sorted(tuple(sorted(p)) for p in pairs))
    flagged = ps if linked is None else tuple(sorted(tuple(sorted(p)) for p in linked))
    return LinkableDynkinDiagram(
        validate_cartan(rows),
        ps,
        frozenset(flagged),
        mode,
    )


def component_diag(labels, pairs, linked=None, mode="finite"):
    return diag(block_rows(labels), pairs, linked, mode)


def circle(label, n, mode="finite"):
    """n copies of a path component joined end to start in a ring.

    The dotted edges run from the last vertex of each copy to the first
    vertex of the next, so the whole diagram carries exactly one cycle.
    """
    rows = block_rows([label] * n)
    size = len(COMPONENT_ROWS[label])
    pairs = [
        (k * size + size - 1, ((k + 1) % n) * size)
        for k in range(n)
    ]
    return diag(rows, pairs, mode=mode)


def prism(k, mode="finite"):
    """Two rings of k A5 components joined by k rungs (10k vertices).

    In each ring position 5 of component t is linked to position 1 of
    component t + 1, and position 3 of component t is linked to
    position 3 of component t in the other ring.  Contracted to the
    position-3 vertices this is the prism graph over a k-cycle, which
    is bipartite exactly when k is even.
    """

    def at(ring, t, pos):
        return (ring * k + t % k) * 5 + pos - 1

    pairs = [(at(r, t, 5), at(r, t + 1, 1)) for r in (0, 1) for t in range(k)]
    pairs += [(at(0, t, 3), at(1, t, 3)) for t in range(k)]
    return diag(block_rows(["A5"] * (2 * k)), pairs, mode=mode)


LABEL_SIZES = {
    "A1": 1, "A2": 2, "A3": 3, "B2": 2, "B2r": 2, "G2": 2, "G2r": 2,
}


def small_family():
    """Every (labels, pairs) of the small family.

    Up to five vertices in components A1 through G2r, joined by one or
    two disjoint dotted edges between distinct components (a single
    component also without one).  component_diag(labels, pairs) builds
    the diagram, which need not be link-connected.
    """
    names = sorted(LABEL_SIZES)
    for count in (1, 2, 3, 4, 5):
        for combo in combinations_with_replacement(names, count):
            sizes = [LABEL_SIZES[n] for n in combo]
            total = sum(sizes)
            if total > 5:
                continue
            offsets = [sum(sizes[:t]) for t in range(count)]
            comp_of = {}
            for t, (off, sz) in enumerate(zip(offsets, sizes)):
                for v in range(off, off + sz):
                    comp_of[v] = t
            cross = [
                (i, j)
                for i in range(total)
                for j in range(i + 1, total)
                if comp_of[i] != comp_of[j]
            ]
            pair_sets = []
            if count == 1:
                pair_sets.append(())
            pair_sets.extend((p,) for p in cross)
            for p, q in combinations(cross, 2):
                if len({*p, *q}) == 4:
                    pair_sets.append((p, q))
            for pairs in pair_sets:
                yield combo, pairs


ENTRY_TOKEN = re.compile(r"^q\^(-?\d+)((?:\*z\d+\^-?\d+)*)$")
ENTRY_ZPART = re.compile(r"\*z(\d+)\^(-?\d+)")


class Root(RootExpr):
    """A RootExpr record with the arithmetic of entry values.

    The library computes on its integer grid and keeps RootExpr as a
    plain record; tests that check the grid against entry arithmetic
    use this copy: products, quotients and powers, substitution,
    parsing and the multiplicative order.  Its z-exponents are summed
    here and normalized by the record, and it equals any RootExpr with
    the same fields.
    """

    __hash__ = RootExpr.__hash__

    def __eq__(self, other):
        if not isinstance(other, RootExpr):
            return NotImplemented
        mine = (self.order, self.exp, self.zpow)
        return mine == (other.order, other.exp, other.zpow)

    @classmethod
    def of(cls, value):
        """The same entry, given as any RootExpr."""
        return cls(value.order, value.exp, value.zpow)

    @classmethod
    def root(cls, order, exp=1):
        return cls(order, exp)

    @classmethod
    def one(cls, order):
        return cls(order, 0)

    @classmethod
    def z(cls, order, index, power=1):
        return cls(order, 0, ((index, power),))

    @classmethod
    def parse(cls, text, order):
        m = ENTRY_TOKEN.match(text)
        if not m:
            raise ValueError(f"bad root expression {text!r}")
        zpow = tuple((int(t), int(k)) for t, k in ENTRY_ZPART.findall(m.group(2)))
        return cls(order, int(m.group(1)), zpow)

    def _combine(self, other, sign):
        if self.order != other.order:
            raise ValueError("mixed root orders")
        powers = dict(self.zpow)
        for t, k in other.zpow:
            powers[t] = powers.get(t, 0) + sign * k
        return Root(self.order, self.exp + sign * other.exp, tuple(powers.items()))

    def __mul__(self, other):
        return self._combine(other, 1)

    def __truediv__(self, other):
        return self._combine(other, -1)

    def __pow__(self, n):
        return Root(self.order, self.exp * n, tuple((t, k * n) for t, k in self.zpow))

    def inv(self):
        return self**-1

    @property
    def is_one(self):
        return self.exp == 0 and not self.zpow

    @property
    def is_symbolic(self):
        return bool(self.zpow)

    def multiplicative_order(self):
        if self.zpow:
            raise ValueError(f"{self} contains free parameters")
        return self.order // gcd(self.order, self.exp)

    def substitute(self, values=None):
        """Each z_t replaced by the Root values[t], by default by 1."""
        out = Root(self.order, self.exp)
        for t, k in self.zpow:
            if values and t in values:
                out = out * values[t] ** k
        return out


def matrix_of(order, rows):
    """The matrix of rows of RootExpr, as BraidingMatrix(order, rows) built it.

    Every entry must have the matrix's root order; a short row is left
    for from_cells to report, before the orders of later rows are read.
    """
    for row in rows:
        if len(row) != len(rows):
            break
        if any(e.order != order for e in row):
            raise ValueError("entry root order differs from matrix order")
    cells = [[(e.exp, e.zpow) for e in row] for row in rows]
    return BraidingMatrix.from_cells(order, cells)


# readers of the library's integer grids and text as entry records, for
# tests that check them with the arithmetic of Root

Relation = namedtuple("Relation", "kind text machine")


def entry_of(matrix, i, j):
    """Entry (i, j) of a BraidingMatrix as a Root."""
    return Root(matrix.order, matrix.exps[i][j], matrix._zpow(i, j))


def entries_of(matrix):
    """Every entry of a BraidingMatrix as a Root, row by row."""
    n = matrix.size
    return tuple(tuple(entry_of(matrix, i, j) for j in range(n)) for i in range(n))


def zrows_of(matrix):
    """Every entry's z-exponents, () for a pure one, in a grid like exps."""
    n = matrix.size
    return tuple(tuple(matrix._zpow(i, j) for j in range(n)) for i in range(n))


def characters_of(datum):
    """Each chi_j of a LinkingDatum by its values on the generators, as Roots."""
    return tuple(
        tuple(Root(datum.order, e) for e in chi) for chi in datum.character_exps
    )


def datum_entry(datum, i, j):
    """chi_j(g_i) of a LinkingDatum as a Root."""
    return Root(datum.order, datum.entry_exp(i, j))


def relations_of(pres):
    """Each relation of a HopfPresentation as a Relation, in output order.

    to_text lists each kind's relations, indented, under a "<kind>
    relations:" heading; to_machine lists the same relations in the same
    order between its header line and the coproduct's lines.
    """
    text = pres.to_text().splitlines()
    cut = text.index("coproduct:")
    kinds, kind = [], None
    for line in text[1:cut]:
        if line.startswith("  "):
            kinds.append((kind, line[2:]))
        else:
            kind = line.removesuffix(" relations:")
    coproduct = len(text) - cut - 1
    machine = pres.to_machine().splitlines()
    machine = machine[1 : len(machine) - coproduct]
    assert len(machine) == len(kinds)
    return tuple(Relation(k, t, m) for (k, t), m in zip(kinds, machine))


def random_entry(order, rng, symbolic=0.3):
    """q^e, and with the given chance a product of one or two z_t^k too."""
    zpow = ()
    if rng.random() < symbolic:
        zpow = tuple(
            (t, rng.choice((-2, -1, 1, 2)))
            for t in rng.sample(range(1, 5), rng.choice((1, 2)))
        )
    return Root(order, rng.randrange(order), zpow)


def perturbed(matrix, rng):
    """The matrix with one random entry replaced by a random entry."""
    rows = [list(row) for row in entries_of(matrix)]
    i, j = rng.randrange(matrix.size), rng.randrange(matrix.size)
    rows[i][j] = random_entry(matrix.order, rng, symbolic=0.5)
    return matrix_of(matrix.order, rows)


def run_cli(*argv, hash_seed=None):
    """Run ``python -m linkdyn *argv`` in a fresh interpreter.

    The child gets a copy of the environment with ``LINKDYN_SRC`` first
    on ``PYTHONPATH``, so it never picks up an installed copy or needs
    the ``linkdyn`` console script.  ``hash_seed`` sets
    ``PYTHONHASHSEED`` for the child only.  Returns the completed
    process with stdout and stderr captured as bytes.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (LINKDYN_SRC, env.get("PYTHONPATH")))
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "linkdyn", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a linkdyn function made through any module.

    ``count_calls(module, name)`` rebinds every name in the package that
    refers to the function, so calls through ``from .x import f``
    aliases are counted too, and returns the list that grows by one
    entry per call.
    """

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "linkdyn" and not mod_name.startswith("linkdyn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
