"""Acceptance gate: twelve checks, one terminal verdict line each.

Criteria 2 through 6 register every matrix they build in MATRICES so
the lemma suite of criterion 7 can sweep all of them afterwards; the
file therefore relies on pytest's in-file definition order.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from math import gcd

import pytest

from conftest import (
    COMPONENT_ROWS,
    characters_of,
    circle,
    component_diag,
    diag,
    entry_of,
    run_cli,
    small_family,
)
from linkdyn import (
    CartanMatrix,
    QValue,
    brute_force_exists,
    check,
    check_identity,
    construct,
    count_magic_solutions,
    cycle_invariants,
    double_datum,
    enumerate_cycles,
    excluded_case_matrix,
    finite_genus_value,
    genus,
    is_prime,
    level0_vertices,
    ord_diagonal,
    pairwise_linking_consistency,
    serre_coefficients,
    a4_solve_zp2,
    a4_realizable_zp2,
    selflink_genus,
    selflink_order_constraint,
    verify,
)
from linkdyn.errors import UnsupportedEdgeInMode

PRIMES_TO_101 = tuple(p for p in range(5, 102) if is_prime(p))

# (name, diagram, matrix) triples accumulated for criterion 7
MATRICES = []


@contextmanager
def criterion(capsys, number, detail, limit=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None:
            assert elapsed < limit, (
                f"criterion {number} took {elapsed:.4f}s, limit {limit}s"
            )
    except BaseException as exc:
        with capsys.disabled():
            print(
                f"criterion {number:>2}: FAIL  {detail} "
                f"[{type(exc).__name__}]"
            )
        raise
    with capsys.disabled():
        print(f"criterion {number:>2}: PASS  {elapsed:8.3f}s  {detail}")


def test_criterion_01_genus_table(capsys):
    with criterion(capsys, 1, "genus values for (w,l) in the worked table",
                   limit=0.001):
        assert finite_genus_value(2, 5) == 5
        assert finite_genus_value(2, 7) == 5
        assert finite_genus_value(0, 4) == 0
        assert finite_genus_value(0, 2) == 0


def test_criterion_02_a3_circles(capsys):
    with criterion(capsys, 2, "A3 circles: even yes+construct, odd no+empty "
                   "search to order 30", limit=10.0):
        for n in (2, 4, 6):
            ring = circle("A3", n)
            assert check(ring).decision == "yes", n
            matrix = construct(ring)
            report = verify(ring, matrix)
            assert report.ok, (n, report.failures)
            MATRICES.append((f"a3-circle-{n}", ring, matrix))
        for n in (3, 5):
            ring = circle("A3", n)
            assert check(ring).decision == "no", n
            assert not brute_force_exists(ring, 30).found, n


def test_criterion_03_b3_circles(capsys):
    with criterion(capsys, 3, "B3 circle genus 2^n - (-1)^n for n = 2..5, "
                   "formula and enumeration"):
        for n in range(2, 6):
            expected = 2**n - (-1) ** n
            assert finite_genus_value(n, n) == expected
            ring = circle("B3", n)
            cycles = enumerate_cycles(ring)
            assert len(cycles) == 1
            inv = cycle_invariants(ring, cycles[0])
            assert inv.weight2 == n and inv.length == n
            assert inv.genus == expected
            # every one of these rings also admits a matrix; keep it
            # for the lemma sweep
            assert check(ring).decision == "yes"
            matrix = construct(ring)
            assert verify(ring, matrix).ok
            MATRICES.append((f"b3-circle-{n}", ring, matrix))


def test_criterion_04_doubles(capsys):
    with criterion(capsys, 4, "doubled A2/B2/G2/A3: datum verifies, genera "
                   "0, character identity", limit=1.0):
        for label in ("A2", "B2", "G2", "A3"):
            datum = double_datum(CartanMatrix(COMPONENT_ROWS[label]))
            assert datum.verify_datum() == (), label
            dg = datum.diagram
            matrix = datum.braiding_matrix()
            assert verify(dg, matrix).ok, label
            # triple edges sit on the mirror cycle for G2, so genera
            # are priced in the mode that admits them
            affine = replace(dg, mode="affine")
            for cyc in enumerate_cycles(dg):
                assert genus(affine, cyc) == 0, label
            chars = characters_of(datum)
            for x, y in datum.linked:
                for a, b in ((x, y), (y, x)):
                    power = 1 - dg.a(a, b)
                    for t in range(len(datum.factors)):
                        value = chars[a][t] ** power * chars[b][t]
                        assert value.is_one, (label, a, b, t)
            MATRICES.append((f"double-{label}", dg, matrix))


def test_criterion_05_excluded_matrices(capsys):
    with criterion(capsys, 5, "special matrices for the three crosswise "
                   "shapes verify symbolically"):
        for n, m in ((3, 3), (1, 2), (4, 4)):
            dg, matrix = excluded_case_matrix(n, m)
            report = verify(dg, matrix)
            assert report.ok, ((n, m), report.failures)
            symbolic = any(
                entry_of(matrix, i, j).is_symbolic
                for i in range(dg.size)
                for j in range(dg.size)
            )
            assert symbolic, (n, m)
            MATRICES.append((f"excluded-{n}-{m}", dg, matrix))


def test_criterion_06_oracle_equivalence(capsys):
    with criterion(capsys, 6, "decision procedure vs exhaustive search on "
                   "the whole small family", limit=10.0):
        examined = 0
        for combo, pairs in small_family():
            dd = component_diag(list(combo), list(pairs))
            if not dd.is_link_connected():
                continue
            examined += 1
            decision = check(dd).decision
            result = brute_force_exists(dd, 30)
            name = "+".join(combo) + " " + repr(pairs)
            if decision == "yes":
                assert result.found, name
            elif decision == "no":
                assert not result.found, name
            else:
                # outside the theorem; a witness exists exactly when
                # the pairwise matching constraints are satisfiable
                consistent = not pairwise_linking_consistency(dd)
                assert result.found == consistent, name
            if result.found:
                MATRICES.append((name, dd, result.matrix))
        assert examined > 300, examined


def _price(dg, cyc):
    """The cycle's genus and the diagram in the first mode that prices it."""
    modes = ("finite", "affine") if dg.mode == "finite" else ("affine",)
    for mode in modes:
        priced = replace(dg, mode=mode)
        try:
            return genus(priced, cyc), priced
        except UnsupportedEdgeInMode:
            continue
    return None, None


def test_criterion_07_lemma_suite(capsys):
    with criterion(capsys, 7, "level-0 and diagonal-order lemmas over every "
                   "matrix built so far"):
        assert len(MATRICES) > 120, len(MATRICES)
        existence_checks = 0
        order_checks = 0
        for name, dg, matrix in MATRICES:
            genera = []
            skipped = False
            level0_of = {}
            for cyc in enumerate_cycles(dg):
                g, priced = _price(dg, cyc)
                if g is None:
                    skipped = True
                    continue
                genera.append(g)
                if g > 0:
                    vertices = level0_vertices(priced, cyc)
                    assert vertices, (name, cyc)
                    existence_checks += 1
                    level0_of[cyc] = (g, vertices)
            for g, vertices in level0_of.values():
                for i in vertices:
                    assert g % ord_diagonal(matrix, i) == 0, (name, i, g)
                    order_checks += 1
            if skipped or not genera:
                continue
            total = 0
            for g in genera:
                total = gcd(total, g)
            if total > 0 and not any(g in (1, 2) for g in genera):
                for g, vertices in level0_of.values():
                    for i in vertices:
                        assert total % ord_diagonal(matrix, i) == 0, (
                            name, i, total,
                        )
        assert existence_checks > 0 and order_checks > 0


def test_criterion_08_magic_counts(capsys):
    with criterion(capsys, 8, "6z solutions of the diagonal congruence for "
                   "p = 6z +- 1 up to 101", limit=10.0):
        for p in PRIMES_TO_101:
            count = count_magic_solutions(p)
            assert count % 6 == 0, p
            z = count // 6
            assert p in (6 * z - 1, 6 * z + 1), (p, count)


def test_criterion_09_rank_four(capsys):
    with criterion(capsys, 9, "rank-four scan vs closed form to 101; "
                   "shortcut divergence noted at 13 and 19", limit=30.0):
        for p in PRIMES_TO_101:
            sol = a4_solve_zp2(p)
            assert sol.routes_agree, p
            five_square = p == 5 or pow(5, (p - 1) // 2, p) == 1
            assert bool(sol.tuples) == five_square, p
        # the residue shortcut and the exhaustive scan split at these
        # two primes; the report must record the split, and nothing
        # here takes sides
        for p in (13, 19):
            _, lines = a4_realizable_zp2(p)
            assert any("disagree" in line for line in lines), p


def adjoint_expansion(top, q_i, b_ij):
    words = {(0, 0): QValue.one(q_i.root_order)}
    for _ in range(top):
        nxt = {}
        for (p, s), c in words.items():
            key = (p + 1, s)
            nxt[key] = nxt.get(key, QValue.zero(q_i.root_order)) + c
            key = (p, s + 1)
            cost = c * q_i ** (p + s) * b_ij
            nxt[key] = nxt.get(key, QValue.zero(q_i.root_order)) - cost
        words = nxt
    return words


def test_criterion_10_q_identities(capsys):
    with criterion(capsys, 10, "bracket identities to rank 8, three root "
                   "orders; crossed-power coefficients vs free expansion"):
        for root_order in (0, 5, 7, 11):
            q = QValue.q(root_order)
            for n in range(1, 9):
                for i in range(1, n + 1):
                    assert check_identity(1, n, i, q), (root_order, n, i)
                assert check_identity(2, n, 0, q), (root_order, n)
                assert check_identity(3, n, 0, q), (root_order, n)
        q_i = QValue.symbol("Q")
        b_ij = QValue.symbol("B")
        for a_ij in (0, -1, -2, -3):
            top = 1 - a_ij
            coeffs = serre_coefficients(a_ij, q_i, b_ij)
            expanded = adjoint_expansion(top, q_i, b_ij)
            assert len(coeffs) == top + 1
            for k in range(top + 1):
                assert coeffs[k] == expanded[(top - k, k)], (a_ij, k)


def test_criterion_11_selflink_table(capsys):
    with criterion(capsys, 11, "same-component pair genera (2,3,4,5) and "
                   "order divisors (3,5,7,8,9)"):
        cases = [
            # plain chain of four
            (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1),
              (0, 0, -1, 2)), (0, 3), 2),
            # two opposed end doubles
            (((2, -2, 0), (-1, 2, -1), (0, -2, 2)), (0, 2), 2),
            # one double on the way
            (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (0, 2), 3),
            # one triple
            (((2, -3, 0), (-1, 2, -1), (0, -1, 2)), (0, 2), 4),
            # two aligned end doubles
            (((2, -2, 0), (-1, 2, -2), (0, -1, 2)), (0, 2), 5),
        ]
        for rows, (i, j), expected in cases:
            dd = diag([list(r) for r in rows], [(i, j)], mode="selflink")
            assert selflink_genus(dd, i, j) == expected, rows
        divisors = sorted(
            selflink_order_constraint(a, b)
            for a, b in ((-1, -1), (-1, -2), (-2, -2), (-1, -3), (-1, -4))
        )
        assert divisors == [3, 5, 7, 8, 9]


CLI_FILES = {
    "a1a1.dg": "vertices 2\nlink 1 2\n",
    "a2a2.dg": (
        "vertices 4\nedge 1 2 -1 -1\nedge 3 4 -1 -1\nlink 1 3\nlink 2 4\n"
    ),
    "ring3.dg": None,  # filled below
    "self.dg": (
        "vertices 4\nedge 1 2 -1 -1\nedge 2 3 -1 -1\nedge 3 4 -1 -1\n"
        "linkable 1 4\nmode selflink\n"
    ),
}


def _a3_ring_text(n):
    lines = [f"vertices {3 * n}"]
    for k in range(n):
        base = 3 * k
        lines.append(f"edge {base + 1} {base + 2} -1 -1")
        lines.append(f"edge {base + 2} {base + 3} -1 -1")
    for k in range(n):
        lines.append(f"link {3 * k + 3} {(3 * (k + 1)) % (3 * n) + 1}")
    return "\n".join(lines) + "\n"


def test_criterion_12_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 12, "byte-identical reruns of every command"):
        files = dict(CLI_FILES)
        files["ring3.dg"] = _a3_ring_text(3)
        paths = {}
        for name, text in files.items():
            target = tmp_path / name
            target.write_text(text, encoding="utf-8")
            paths[name] = str(target)

        first = run_cli("construct", paths["a1a1.dg"], "--machine")
        assert first.returncode == 0, first
        assert first.stdout.startswith(b"root_order"), first.stdout
        matrix_path = tmp_path / "m.txt"
        matrix_path.write_bytes(first.stdout)

        # (expected exit code, argv): 1 is a definite "no" (odd A3 ring,
        # a prime where the rank-four system has no solution)
        commands = [
            (0, ["validate", paths["a2a2.dg"]]),
            (0, ["cycles", paths["ring3.dg"]]),
            (1, ["check", paths["ring3.dg"]]),
            (0, ["construct", paths["a2a2.dg"], "--machine"]),
            (0, ["verify", paths["a1a1.dg"], "--matrix", str(matrix_path)]),
            (0, ["oracle", paths["a2a2.dg"]]),
            (0, ["realize", paths["a1a1.dg"], "--p", "5"]),
            (1, ["a4", "--p", "13"]),
            (0, ["present", paths["a1a1.dg"]]),
            (0, ["selflink", paths["self.dg"]]),
            (0, ["sum", paths["a1a1.dg"], paths["a2a2.dg"], "--machine"]),
        ]
        for expected, argv in commands:
            # different hash seeds expose any set or dict order in output
            runs = [run_cli(*argv, hash_seed=seed) for seed in (0, 1)]
            for proc in runs:
                assert proc.returncode == expected, (argv, proc)
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].returncode == runs[1].returncode, argv
            if argv[0] == "verify":
                assert runs[0].stdout == b"ok\n", runs[0].stdout
