"""Decision procedures: does a braiding matrix exist for a diagram.

The finite check needs three conditions: no fully linked G2 component,
pairwise consistency of the dotted edges, and a usable common divisor
of the cycle genera.  The affine check is the analog for homogeneous
matrices with prime diagonal order above 3.  Two-component shapes that
the main theorems skip (G2 x G2 and the rank-two affine doubles) are
reported as 'excluded' and handled by an explicit matrix family.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .braiding import BraidingMatrix, RootExpr, _admissible_orders
from .cycles import genus_gcd
from .diagram import (
    CartanMatrix,
    LinkableDynkinDiagram,
    classify_components,
    edge_kind,
    pairwise_linking_consistency,
)
from .errors import (
    InadmissibleD,
    Neighbouring,
    NotLinkConnected,
    NotNeighbouring,
    ShapeParameterMismatch,
    UnclassifiedPath,
    UnsupportedComponentType,
)
from .fields import CYCLOTOMIC, FieldSpec, is_prime

_EXCLUDED_FINITE = ("G2", "G2")
_EXCLUDED_AFFINE = (("A1(1)", "A1(1)"), ("A2(2)", "A2(2)"))


class ExistenceReport(NamedTuple):
    """Decision with supporting detail.

    decision is 'yes', 'no' or 'excluded'.  genus_gcd is None when the
    genera were not computed (earlier conditions already failed).
    admissible lists usable root orders; when a cyclotomic field offers
    every prime, only the first few are listed.
    """

    decision: str
    mode: str
    reasons: tuple[str, ...]
    genus_gcd: Optional[int]
    admissible: tuple[int, ...]


def _precheck(diagram: LinkableDynkinDiagram, mode: str) -> list:
    if diagram.mode == "selflink":
        raise ValueError("existence checks require standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the diagram is not link-connected")
    pool = "finite" if mode == "finite" else "any"
    comps = classify_components(diagram, pool)
    for c in comps:
        if c.label == "other":
            verts = ", ".join(str(v + 1) for v in c.vertices)
            raise UnsupportedComponentType(
                f"component with vertices {verts} is not of a recognized "
                f"{'finite' if mode == 'finite' else 'finite or affine'} type"
            )
    return comps


def _listed(admissible: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    return admissible[:8] if field.kind == "cyclotomic" else admissible


def _fully_linked(diagram: LinkableDynkinDiagram, vertices: tuple[int, ...]) -> bool:
    return all(diagram.partner(v) is not None for v in vertices)


def check_finite(
    diagram: LinkableDynkinDiagram, field: FieldSpec = CYCLOTOMIC
) -> ExistenceReport:
    """Decide existence of a braiding matrix for a finite-type diagram.

    Returns decision 'excluded' for the two-component G2 x G2 shape,
    which the main criterion does not cover; its matrices come from
    excluded_case_matrix instead.
    """
    comps = _precheck(diagram, "finite")
    labels = tuple(sorted(c.label for c in comps))
    # the skipped shape is the crosswise one; a single dotted edge between
    # two G2 components falls under the ordinary conditions
    if labels == _EXCLUDED_FINITE and all(
        diagram.partner(v) is not None for v in range(diagram.size)
    ):
        return ExistenceReport(
            "excluded",
            "finite",
            ("the crosswise G2 x G2 shape is decided by the special "
             "matrix family",),
            None,
            (),
        )

    reasons: list[str] = []
    for c in comps:
        if c.label == "G2" and _fully_linked(diagram, c.vertices):
            i, j = c.vertices
            reasons.append(
                f"both vertices {i + 1}, {j + 1} of a G2 component lie on "
                f"dotted edges"
            )
    reasons.extend(pairwise_linking_consistency(diagram))
    if reasons:
        return ExistenceReport("no", "finite", tuple(reasons), None, ())

    big_g = genus_gcd(diagram, "finite")
    admissible = _admissible_orders(diagram, "finite", field, big_g)
    if big_g == 0:
        if not admissible:
            return ExistenceReport(
                "no",
                "finite",
                ("the field provides no admissible root order",),
                big_g,
                (),
            )
        return ExistenceReport(
            "yes", "finite", (), big_g, _listed(admissible, field)
        )
    if not admissible:
        return ExistenceReport(
            "no",
            "finite",
            (
                f"no common divisor of the cycle genera above 2 is odd, "
                f"prime to 3 when required, and available in the field "
                f"(genus gcd {big_g})",
            ),
            big_g,
            (),
        )
    return ExistenceReport("yes", "finite", (), big_g, admissible)


def check_affine(
    diagram: LinkableDynkinDiagram, field: FieldSpec = CYCLOTOMIC
) -> ExistenceReport:
    """Decide existence of a homogeneous braiding matrix in affine mode."""
    comps = _precheck(diagram, "affine")
    labels = tuple(sorted(c.label for c in comps))
    if labels in _EXCLUDED_AFFINE and all(
        diagram.partner(v) is not None for v in range(diagram.size)
    ):
        return ExistenceReport(
            "excluded",
            "affine",
            (
                f"the crosswise {labels[0]} x {labels[1]} shape is decided "
                f"by the special matrix family",
            ),
            None,
            (),
        )

    reasons: list[str] = []
    for c in comps:
        if c.label in ("A1(1)", "A2(2)") and _fully_linked(diagram, c.vertices):
            i, j = c.vertices
            reasons.append(
                f"both vertices {i + 1}, {j + 1} of a {c.label} component "
                f"lie on dotted edges"
            )
    reasons.extend(pairwise_linking_consistency(diagram))
    if reasons:
        return ExistenceReport("no", "affine", tuple(reasons), None, ())

    big_g = genus_gcd(diagram, "affine")
    admissible = _admissible_orders(diagram, "affine", field, big_g)
    if not admissible:
        return ExistenceReport(
            "no",
            "affine",
            (
                f"no prime above 3 divides all cycle genera and has a "
                f"primitive root in the field (genus gcd {big_g})",
            ),
            big_g,
            (),
        )
    return ExistenceReport(
        "yes", "affine", (), big_g, _listed(admissible, field)
    )


def check(
    diagram: LinkableDynkinDiagram, field: FieldSpec = CYCLOTOMIC
) -> ExistenceReport:
    """Dispatch to the finite or affine check by diagram mode."""
    if diagram.mode == "affine":
        return check_affine(diagram, field)
    return check_finite(diagram, field)


# ------------------------------------------------------------ excluded case

_SHAPES = {(3, 3): "finite", (1, 2): "affine", (4, 4): "affine"}


def excluded_case_matrix(
    n: int, m: int, d: int = 5
) -> tuple[LinkableDynkinDiagram, BraidingMatrix]:
    """Diagram and braiding matrix for the shapes the theorems skip.

    (n, m) = (3, 3) gives G2 x G2, (1, 2) the rank-two affine double
    with symmetric entries, (4, 4) the one with a quadruple arrow.  The
    two components are joined crosswise by two dotted edges and the
    matrix verifies symbolically in its free parameter.
    """
    if (n, m) not in _SHAPES:
        raise ShapeParameterMismatch(
            f"(n, m) must be one of {sorted(_SHAPES)}, got ({n}, {m})"
        )
    mode = _SHAPES[(n, m)]
    if mode == "finite":
        if d <= 2 or d % 2 == 0 or d % 3 == 0:
            raise InadmissibleD(
                f"root order {d} must be odd, above 2 and prime to 3"
            )
    else:
        if d <= 3 or not is_prime(d):
            raise InadmissibleD(f"root order {d} must be a prime above 3")

    aij, aji = -m, -(m // n)
    rows = [[2, aij, 0, 0], [aji, 2, 0, 0], [0, 0, 2, aij], [0, 0, aji, 2]]
    diagram = LinkableDynkinDiagram(
        CartanMatrix(tuple(tuple(r) for r in rows)),
        linkable=((0, 2), (1, 3)),
        linked=frozenset({(0, 2), (1, 3)}),
        mode=mode,
    )

    def q(e: int) -> RootExpr:
        return RootExpr.root(d, e)

    z = RootExpr.z(d, 1)
    zi = z.inv()
    entries = (
        (q(1), q(-m) * zi, q(-1), q(m) * z),
        (z, q(n), zi, q(-n)),
        (q(1), z, q(-1), zi),
        (q(-m) * zi, q(n), q(m) * z, q(-n)),
    )
    return diagram, BraidingMatrix(d, entries)


# ------------------------------------------------------------- self-linking


def _plain_paths(
    diagram: LinkableDynkinDiagram, i: int, j: int
) -> list[list[int]]:
    paths: list[list[int]] = []

    def dfs(path: list[int], seen: set[int]) -> None:
        v = path[-1]
        if v == j:
            paths.append(list(path))
            return
        for u in diagram.plain_neighbors(v):
            if u not in seen:
                seen.add(u)
                path.append(u)
                dfs(path, seen)
                path.pop()
                seen.remove(u)

    dfs([i], {i})
    return paths


def selflink_genus(diagram: LinkableDynkinDiagram, i: int, j: int) -> int:
    """Genus forced by linking two non-neighbouring vertices of one component.

    The dotted edge closes the unique plain path between i and j into a
    cycle with one dotted edge; the classified families give genus 2
    (no multiple edges, or two opposing doubles at the ends), 3 (one
    double), 4 (one triple) or 5 (two aligned doubles).  Anything else
    raises UnclassifiedPath.
    """
    comp = diagram.component_index()
    if comp[i] != comp[j]:
        raise ValueError(
            f"vertices {i + 1} and {j + 1} lie in different components"
        )
    if diagram.a(i, j) != 0:
        raise Neighbouring(
            f"vertices {i + 1} and {j + 1} are neighbours; the linking "
            f"constrains orders instead of genera"
        )
    paths = _plain_paths(diagram, i, j)
    if len(paths) != 1:
        raise UnclassifiedPath(
            f"{len(paths)} plain paths join {i + 1} and {j + 1}"
        )
    path = paths[0]
    doubles: list[tuple[int, int]] = []  # (position, signed direction)
    triples = 0
    for t in range(len(path) - 1):
        u, v = path[t], path[t + 1]
        kind = edge_kind(diagram.a(u, v), diagram.a(v, u))
        if kind.kind == "single":
            continue
        if kind.kind == "double":
            doubles.append((t, 1 if kind.head == 1 else -1))
        elif kind.kind == "triple":
            triples += 1
        else:
            raise UnclassifiedPath(
                f"{kind.kind} edge ({u + 1},{v + 1}) on the path"
            )
    if triples > 1 or (triples and doubles):
        raise UnclassifiedPath("too many multiple edges on the path")
    if triples:
        return 4
    if not doubles:
        return 2
    if len(doubles) == 1:
        return 3
    if len(doubles) == 2:
        first, last = doubles[0][0], doubles[1][0]
        if first != 0 or last != len(path) - 2:
            raise UnclassifiedPath("two doubles not at the ends of the path")
        return 2 if doubles[0][1] != doubles[1][1] else 5
    raise UnclassifiedPath("more than two double edges on the path")


def selflink_order_constraint(a_ij: int, a_ji: int) -> int:
    """Divisor forced on ord(b_ii) when two neighbours are linked.

    Combining the product and linking identities for a linked plain
    edge gives b_ii^(a_ij a_ji - a_ij - a_ji) = 1; the returned value
    is the absolute exponent.  Symmetric in its arguments.
    """
    if a_ij == 0:
        raise NotNeighbouring("the two vertices share no plain edge")
    return abs(a_ij * a_ji - a_ij - a_ji)


__all__ = [
    "ExistenceReport",
    "check",
    "check_finite",
    "check_affine",
    "excluded_case_matrix",
    "selflink_genus",
    "selflink_order_constraint",
    "FieldSpec",
    "CYCLOTOMIC",
]
