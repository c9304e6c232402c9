"""The oracle's search for the least diagonal of a braiding matrix.

It reads only the diagram, the errors and the field, so it stays
independent of the constructor; braiding.brute_force_exists renders
and verifies its witness.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Optional, Sequence

from .diagram import LinkableDynkinDiagram, dotted_edges_that_meet
from .errors import ScaleExceeded
from .fields import FieldSpec, is_prime

_Z_LIMIT = 2_000_000  # diagonals the oracle will list at the order it answers at


def _finite_order_flaw(o: int, has_g2: bool) -> Optional[str]:
    """Why a finite diagram's diagonal entry may not have order o, or None.

    The order must exceed 2 and, with a G2 component present, be prime
    to 3.
    """
    if o <= 2:
        return "must exceed 2"
    if has_g2 and o % 3 == 0:
        return "divisible by 3 with a G2 component present"
    return None


def _order_ok(e: int, n: int, mode: str, has_g2: bool) -> bool:
    if e % n == 0:
        return False
    if mode == "affine":
        return True  # n is prime above 3, so the order is exactly n
    return _finite_order_flaw(n // gcd(n, e), has_g2) is None


def _no_admissible_order(big_n: int, mode: str, has_g2: bool) -> bool:
    """Whether no divisor of big_n is an admissible diagonal entry order.

    Finite mode admits every order above 2, prime to 3 with a G2
    component present; affine mode admits the primes above 3.
    """
    for p in (2, 3) if mode == "affine" else (3,) if has_g2 else ():
        while big_n % p == 0:
            big_n //= p
    return big_n <= (2 if mode == "finite" else 1)


def _diagonal_forms(diagram: LinkableDynkinDiagram) -> list[tuple]:
    """verify's identities as integer forms, (v, c_v) terms in the diagonal.

    With b_ii = q^e_i and unknown off-diagonal exponents x_ij they are a
    linear system A x = B e.  Nonzero scalars form a divisible group, so
    off-diagonal entries exist iff k B e == 0 (mod n) for each k with
    k A = 0.  A dotted edge {x, y} has a_xy = 0, so its linking
    identities read x_kx + x_ky = 0, and A splits into blocks of at most
    four vertex pairs:
    - a pair {u, v}: x_uv + x_vu = a_uv e_u = a_vu e_v gives the plain
      edge form a_uv e_u - a_vu e_v;
    - a dotted edge {x, y}: k = x, y give x_xy = -e_x and x_yx = -e_y,
      so x_xy + x_yx = 0 gives e_x + e_y;
    - a dotted edge {i, k} and a free j: x_ij + x_ji = a_ij e_i,
      x_kj + x_jk = a_kj e_k and x_ji + x_jk = 0 have rank 3: no form;
    - dotted edges {i, k}, {j, l}: the product identities of {i, j},
      {i, l}, {k, j}, {k, l} and x_ij + x_il = x_kj + x_kl = x_ji + x_jk
      = x_li + x_lk = 0 form one even cycle in 8 unknowns; its only
      left-kernel vector is the alternating sum, every other invariant
      factor is 1, and the form is (a_ij + a_il) e_i + (a_kj + a_kl) e_k,
      zero unless a plain edge joins the two dotted edges.
    """
    a = diagram.cartan.a
    forms = [((u, a(u, v)), (v, -a(v, u))) for u, v in diagram.cartan.plain_edges()]
    forms += [((x, 1), (y, 1)) for x, y in diagram.linkable]
    for (i, k), (j, l) in dotted_edges_that_meet(diagram):
        terms = ((i, a(i, j) + a(i, l)), (k, a(k, j) + a(k, l)))
        if form := tuple((v, c) for v, c in terms if c):
            forms.append(form)
    return forms


def _diagonalize(
    rows: Sequence[Sequence[tuple[int, int]]], s: int
) -> tuple[list[int], list[list[int]]]:
    """d_1..d_s (zero past the rank) and the columns of V, U F V = diag(d).

    F has one row per form, given by its (v, c_v), in s unknowns; U and
    V are unimodular, found by integer row and column operations (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4).  So F e == 0
    (mod n) exactly for e = V y with every d_i y_i == 0 (mod n).
    """
    m = [[dict(form).get(v, 0) for v in range(s)] for form in rows]
    cols = [[int(i == j) for i in range(s)] for j in range(s)]
    diag = [0] * s
    t = 0
    # the rows left have zeros left of column t; the least entry moves to
    # (t, t) and reduces its column and row until both are clear
    while m := [row for row in m if any(row)]:
        _, p, j = min(
            (abs(x), p, j) for p, row in enumerate(m) for j, x in enumerate(row) if x
        )
        m[0], m[p] = m[p], m[0]
        for row in m:
            row[t], row[j] = row[j], row[t]
        cols[t], cols[j] = cols[j], cols[t]
        top, pivot = m[0], m[0][t]
        for row in m[1:]:
            if q := row[t] // pivot:
                row[:] = [x - q * y for x, y in zip(row, top)]
        for k in range(t + 1, s):
            if q := top[k] // pivot:
                for row in m:
                    row[k] -= q * row[t]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[t])]
        if not any(top[t + 1 :]) and not any(row[t] for row in m[1:]):
            diag[t] = pivot
            m.pop(0)
            t += 1
    return diag, cols


def least_diagonal(
    diagram: LinkableDynkinDiagram, n_max: int, field: FieldSpec
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The least root order with a fitting diagonal and its least one, or None.

    Root orders are scanned ascending (finite mode: 5..n_max, affine
    mode: primes above 3 up to n_max, both limited to orders the field
    provides).  With off-diagonal entries any nonzero scalars, verify's
    identities reduce to _diagonal_forms, diagonalized once, so "none"
    proves that no braiding matrix has its diagonal at a scanned order.
    The answer is "none" before the scan when some vertex's exponent
    lies in the span of the columns of finite order d_i and no divisor
    of their lcm is an admissible order.  The scan stops past the
    field's largest root order, and in a cyclotomic field with every
    invariant factor d_i nonzero, past 4 + lcm(d_i), where every order's
    outcome has been seen.  An order is skipped when some
    vertex's entry can only have an order that is not admissible;
    otherwise the diagonals satisfying the forms are read off the
    diagonal form.  Some of them have entries of
    admissible orders only, so the first such order ends the scan, and
    the least of those, in link traversal order, is the witness.
    ScaleExceeded is raised when that order has more diagonals than the
    search will enumerate.
    """
    mode, has_g2, s = diagram.mode, diagram.has_g2, diagram.size
    order = diagram.link_walks[0][0]
    diag, cols = _diagonalize(_diagonal_forms(diagram), s)
    # a vertex no free column moves has e_p in the span of the torsion
    # columns, so at every n its entry's order divides the lcm of their
    # |d_i|: with no admissible divisor, every order would be skipped
    free = [col for x, col in zip(diag, cols) if not x]
    torsion = [(abs(x), col) for x, col in zip(diag, cols) if x]
    for p in range(s):
        if not any(col[p] for col in free):
            big_l = lcm(*(x for x, col in torsion if col[p]))
            if _no_admissible_order(big_l, mode, has_g2):
                return None
    # no order past the field's largest root has one; with every d_i
    # nonzero the diagonals, as roots of unity, depend on n only through
    # gcd(n, D) for D the lcm of the d_i, and 5..4 + D meets every residue
    # class mod D, so a larger order answers only where a smaller one did
    last = field.largest_root_order() or (4 + lcm(*diag) if all(diag) else n_max)
    for n in range(5, min(n_max, last) + 1):
        if not field.has_primitive_root(n) or mode == "affine" and not is_prime(n):
            continue
        # each column of V scaled to n / m and taken 0..m-1 times; a column
        # with m = 1 only contributes 0
        gens = [
            (m, [c * (n // m) for c in col])
            for x, col in zip(diag, cols)
            if (m := gcd(x, n)) > 1
        ]
        # e_p is a multiple of h = gcd(n, g[p] for every g): ord(b_pp) | n/h
        caps = (n // gcd(n, *(g[p] for _, g in gens)) for p in range(s))
        if any(_no_admissible_order(cap, mode, has_g2) for cap in caps):
            continue
        # y_i runs over the multiples of n / gcd(d_i, n): this order is the
        # answer, so its count is the only one that could be too large
        if (count := prod(m for m, _ in gens)) > _Z_LIMIT:
            raise ScaleExceeded(
                f"{count} diagonal assignments at {s} vertices; "
                f"shrink the diagram or the order bound"
            )
        diagonals = (
            tuple(sum(k * g[p] for k, (_, g) in zip(ks, gens)) % n for p in range(s))
            for ks in product(*(range(m) for m, _ in gens))
        )
        fits = (e for e in diagonals if all(_order_ok(x, n, mode, has_g2) for x in e))
        # past the caps some diagonal fits: each prime part of the forms'
        # solutions holds one whose every entry has its part's largest order
        return n, min(fits, key=itemgetter(*order))
    return None
