"""Decision procedures: does a braiding matrix exist for a diagram.

The finite check needs three conditions: no fully linked G2 component,
pairwise consistency of the dotted edges, and a usable common divisor
of the cycle genera.  The affine check is the analog for homogeneous
matrices with prime diagonal order above 3.  Two-component shapes that
the main theorems skip (G2 x G2 and the rank-two affine doubles) are
reported as 'excluded'; braiding.excluded_case_matrix builds their
matrices.  The root-order rules, listing and default choice live here.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple, Optional, Sequence

from .cycles import genus_gcd
from .diagram import (
    ComponentType,
    LinkableDynkinDiagram,
    edge_kind,
    pairwise_linking_consistency,
)
from .errors import (
    InadmissibleD,
    Neighbouring,
    NoAdmissibleOrder,
    NotLinkConnected,
    NotNeighbouring,
    UnclassifiedPath,
    UnsupportedComponentType,
    UnsupportedMode,
)
from .fields import CYCLOTOMIC, FieldSpec, divisors, is_prime

# per mode: the rank-two labels whose crosswise double is excluded and
# whose fully linked copies fail, and the reason given when no root
# order is admissible
_MODE_RULES = {
    "finite": (
        ("G2",),
        "no common divisor of the cycle genera above 2 is odd, prime to 3 "
        "when required, and available in the field",
    ),
    "affine": (
        ("A1(1)", "A2(2)"),
        "no prime above 3 divides all cycle genera and has a primitive "
        "root in the field",
    ),
}


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


def check(
    diagram: LinkableDynkinDiagram, field: FieldSpec = CYCLOTOMIC
) -> ExistenceReport:
    """Decide existence of a braiding matrix by the diagram's mode.

    A finite diagram reads the finite criterion, an affine one the
    criterion for homogeneous matrices.  Returns decision 'excluded'
    for the crosswise two-component shapes (G2 x G2, and the rank-two
    affine doubles), which the main criteria do not cover; their
    matrices come from excluded_case_matrix instead.
    """
    mode = diagram.mode
    if mode == "selflink":
        raise UnsupportedMode("existence checks require standard linking mode")
    if not diagram.is_link_connected():
        raise NotLinkConnected("the diagram is not link-connected")
    rank_two, no_order = _MODE_RULES[mode]
    comps = _recognized_components(diagram)

    def fully_linked(vertices: Iterable[int]) -> bool:
        return all(diagram.partner(v) is not None for v in vertices)

    labels = sorted(c.label for c in comps)
    # the skipped shapes are the crosswise ones; a single dotted edge
    # between two such components falls under the ordinary conditions
    if (
        len(labels) == 2
        and labels[0] == labels[1]
        and labels[0] in rank_two
        and fully_linked(range(diagram.size))
    ):
        return ExistenceReport(
            "excluded",
            mode,
            (
                f"the crosswise {labels[0]} x {labels[1]} shape is decided "
                f"by the special matrix family",
            ),
            None,
            (),
        )

    reasons = [
        f"both vertices {c.vertices[0] + 1}, {c.vertices[1] + 1} of a "
        f"{c.label} component lie on dotted edges"
        for c in comps
        if c.label in rank_two and fully_linked(c.vertices)
    ]
    reasons.extend(pairwise_linking_consistency(diagram))
    if reasons:
        return ExistenceReport("no", mode, tuple(reasons), None, ())

    big_g = genus_gcd(diagram)
    # a cyclotomic field offers every prime: list only the first eight
    listed = field.kind == "cyclotomic" and (mode == "affine" or big_g == 0)
    admissible = _admissible_orders(diagram, field, big_g, limit=8 if listed else None)
    if not admissible:
        if mode == "finite" and big_g == 0:
            reason = "the field provides no admissible root order"
        else:
            reason = f"{no_order} (genus gcd {big_g})"
        return ExistenceReport("no", mode, (reason,), big_g, ())
    return ExistenceReport("yes", mode, (), big_g, admissible)


# -------------------------------------------------------------- root orders


def _recognized_components(diagram: LinkableDynkinDiagram) -> Sequence[ComponentType]:
    """The components of a finite or affine diagram, all of a known type.

    A finite diagram uses the finite catalog, an affine one both
    catalogs; UnsupportedComponentType names the first unrecognized
    component.
    """
    for c in diagram.components:
        if c.label == "other":
            verts = ", ".join(str(v + 1) for v in c.vertices)
            raise UnsupportedComponentType(
                f"component with vertices {verts} is not of a recognized "
                f"{'finite' if diagram.mode == 'finite' else 'finite or affine'} type"
            )
    return diagram.components


def _order_fault(
    diagram: LinkableDynkinDiagram, d: int, field: FieldSpec, big_g: int
) -> Optional[str]:
    """The first reason d is not an admissible root order, None if it is.

    A finite diagram wants d odd, above 2 and prime to 3 if a G2
    component is present, an affine one a prime above 3; both want d to
    divide a nonzero genus gcd big_g and the field to hold a primitive
    d-th root.
    """
    if diagram.mode == "finite":
        if d <= 2:
            return f"root order {d} must exceed 2"
        if d % 2 == 0:
            return f"root order {d} must be odd"
        if d % 3 == 0 and diagram.has_g2:
            return f"root order {d} is divisible by 3 with a G2 component present"
    elif d <= 3 or not is_prime(d):
        return f"root order {d} must be a prime above 3"
    if big_g > 0 and big_g % d != 0:
        return f"root order {d} does not divide the genus gcd {big_g}"
    if not field.has_primitive_root(d):
        return f"the field has no primitive root of order {d}"
    return None


def _admissible_orders(
    diagram: LinkableDynkinDiagram,
    field: FieldSpec,
    big_g: int,
    bound: int = 100,
    limit: Optional[int] = None,
) -> tuple[int, ...]:
    """admissible_orders for a diagram whose genus gcd big_g is known.

    The candidates are the divisors of a nonzero big_g, else the field's
    root orders; bound only cuts off a cyclotomic field, where every
    prime qualifies, and the default suits listing and choosing one.
    Only the first limit orders are tested and returned, all for None.
    """
    candidates = divisors(big_g) if big_g else field.root_orders()
    any_order = diagram.mode == "finite" and big_g > 0
    # the cheap test first: most candidates fail it and need no message
    orders = (
        d
        for d in candidates or range(3, bound + 1)
        if (any_order or is_prime(d))
        and _order_fault(diagram, d, field, big_g) is None
    )
    return tuple(islice(orders, limit))


def _validate_order(
    diagram: LinkableDynkinDiagram, d: Optional[int], field: FieldSpec, big_g: int
) -> int:
    if d is None:
        if diagram.mode == "finite" and big_g > 0:
            choices = _admissible_orders(diagram, field, big_g)
            if not choices:
                raise NoAdmissibleOrder(
                    f"no admissible root order divides the genus gcd {big_g}"
                )
            return choices[-1]
        # no cycle constraint: smallest prime from 5 up that the field
        # offers; 3 is the only admissible order below 5, so two suffice
        orders = _admissible_orders(diagram, field, big_g, limit=2)
        choices = [c for c in orders if c >= 5]
        if not choices:
            raise NoAdmissibleOrder("the field provides no admissible root order")
        return choices[0]
    fault = _order_fault(diagram, d, field, big_g)
    if fault:
        raise InadmissibleD(fault)
    return d


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
        for u in diagram.cartan.neighbors[v]:
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
    comp = diagram.cartan.component_roots
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
    "selflink_genus",
    "selflink_order_constraint",
]
