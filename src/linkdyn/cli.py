"""Command line front end.

Reads line-oriented diagram files, dispatches to the library, and
prints deterministic reports.  Exit codes: 0 yes/success, 1 no or
verification failure, 2 excluded case, 3 input error, 4 internal error
(a bug: the message names the command and the exception), 141 closed
stdout.  An error's class decides between 1, 3 and 4 (see errors.py).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from math import gcd

from .braiding import (
    BraidingMatrix,
    brute_force_exists,
    construct,
    direct_sum,
    verify,
)
from .cycles import cycle_invariants, enumerate_cycles
from .diagram import MODES, CartanMatrix, LinkableDynkinDiagram
from .errors import (
    DefiniteNo,
    DiagramSyntaxError,
    InputError,
    SemanticError,
    UnclassifiedPath,
)
from .existence import check, selflink_genus, selflink_order_constraint
from .fields import FieldSpec
from .presentation import emit_presentation
from .realization import (
    a4_solve_zp2,
    max_diagram_note_zp2,
    realize_free,
    realize_mod_p,
)

# ------------------------------------------------------------- file format

_VERTEX_LIMIT = 4096  # most vertices parse accepts: the Cartan rows hold N^2 cells


@dataclass(frozen=True)
class DiagramFile:
    """Parsed diagram input plus its field declaration."""

    diagram: LinkableDynkinDiagram
    field: FieldSpec

    def serialize(self) -> str:
        """Normalized text form; parsing it back is byte-stable."""
        d = self.diagram
        lines = [f"vertices {d.size}"]
        for i, j in d.cartan.plain_edges():
            lines.append(f"edge {i + 1} {j + 1} {d.a(i, j)} {d.a(j, i)}")
        for i, j in d.linkable:
            head = "link" if (i, j) in d.linked else "linkable"
            lines.append(f"{head} {i + 1} {j + 1}")
        lines.append("field " + _field_text(self.field))
        lines.append(f"mode {d.mode}")
        return "\n".join(lines) + "\n"


def _field_text(field: FieldSpec) -> str:
    if field.kind == "gf":
        return f"gf {field.q}"
    if field.kind == "roots":
        return "roots " + ",".join(str(o) for o in field.orders)
    return "cyclotomic"


def _want(parts: list[str], count: int, lineno: int) -> None:
    if len(parts) != count:
        raise DiagramSyntaxError(
            lineno, f"directive {parts[0]!r} takes {count - 1} arguments"
        )


def _integer(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DiagramSyntaxError(lineno, f"expected an integer, got {token!r}")


def _vertex(token: str, size: int, lineno: int) -> int:
    v = _integer(token, lineno)
    if not 1 <= v <= size:
        raise SemanticError(lineno, f"vertex {v} out of range 1..{size}")
    return v - 1


def parse(text: str) -> DiagramFile:
    """Parse a diagram file, reporting the first problem with its line."""
    size: int | None = None
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    pair_lines: dict[tuple[int, int], int] = {}
    linked: set[tuple[int, int]] = set()
    dotted_vertex: dict[int, int] = {}
    field: FieldSpec | None = None
    mode: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "vertices":
            _want(parts, 2, lineno)
            if size is not None:
                raise SemanticError(lineno, "vertices declared twice")
            size = _integer(parts[1], lineno)
            if size < 1:
                raise SemanticError(lineno, "need at least one vertex")
            if size > _VERTEX_LIMIT:
                raise SemanticError(
                    lineno, f"{size} vertices exceed the limit {_VERTEX_LIMIT}"
                )
        elif head == "edge":
            _want(parts, 5, lineno)
            if size is None:
                raise SemanticError(lineno, "vertices must be declared first")
            i = _vertex(parts[1], size, lineno)
            j = _vertex(parts[2], size, lineno)
            if i == j:
                raise SemanticError(lineno, "edge endpoints must differ")
            aij = _integer(parts[3], lineno)
            aji = _integer(parts[4], lineno)
            if aij > 0 or aji > 0:
                raise SemanticError(
                    lineno, "off-diagonal Cartan entries must be nonpositive"
                )
            if (aij == 0) != (aji == 0):
                raise SemanticError(
                    lineno, "paired Cartan entries must vanish together"
                )
            if i > j:
                i, j, aij, aji = j, i, aji, aij
            if (i, j) in entries:
                raise SemanticError(
                    lineno, f"edge {i + 1} {j + 1} declared twice"
                )
            entries[(i, j)] = (aij, aji)
        elif head in ("linkable", "link"):
            _want(parts, 3, lineno)
            if size is None:
                raise SemanticError(lineno, "vertices must be declared first")
            i = _vertex(parts[1], size, lineno)
            j = _vertex(parts[2], size, lineno)
            if i == j:
                raise SemanticError(lineno, "a vertex cannot be linkable to itself")
            key = (min(i, j), max(i, j))
            if key in pair_lines:
                raise SemanticError(
                    lineno, f"pair {key[0] + 1} {key[1] + 1} declared twice"
                )
            for v in key:
                if v in dotted_vertex:
                    raise SemanticError(
                        lineno,
                        f"vertex {v + 1} already lies on the dotted edge of "
                        f"line {dotted_vertex[v]}",
                    )
            pair_lines[key] = lineno
            dotted_vertex[key[0]] = lineno
            dotted_vertex[key[1]] = lineno
            if head == "link":
                linked.add(key)
        elif head == "field":
            if field is not None:
                raise SemanticError(lineno, "field declared twice")
            if len(parts) < 2:
                raise DiagramSyntaxError(lineno, "field needs a kind")
            kind = parts[1]
            try:
                if kind == "cyclotomic":
                    _want(parts, 2, lineno)
                    field = FieldSpec("cyclotomic")
                elif kind == "gf":
                    _want(parts, 3, lineno)
                    field = FieldSpec("gf", q=_integer(parts[2], lineno))
                elif kind == "roots":
                    _want(parts, 3, lineno)
                    orders = tuple(
                        sorted(
                            {
                                _integer(tok, lineno)
                                for tok in parts[2].split(",")
                                if tok
                            }
                        )
                    )
                    field = FieldSpec("roots", orders=orders)
                else:
                    raise DiagramSyntaxError(
                        lineno, f"unknown field kind {kind!r}"
                    )
            except ValueError as exc:
                raise SemanticError(lineno, str(exc))
            if not field.satisfies_baseline():
                raise SemanticError(
                    lineno,
                    "field must contain a primitive root of prime order above 3",
                )
        elif head == "mode":
            _want(parts, 2, lineno)
            if mode is not None:
                raise SemanticError(lineno, "mode declared twice")
            if parts[1] not in MODES:
                raise SemanticError(lineno, f"unknown mode {parts[1]!r}")
            mode = parts[1]
        else:
            raise DiagramSyntaxError(lineno, f"unknown directive {head!r}")

    if size is None:
        raise SemanticError(1, "missing vertices directive")
    mode = mode or "finite"
    field = field or FieldSpec("cyclotomic")

    rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for (i, j), (aij, aji) in entries.items():
        rows[i][j] = aij
        rows[j][i] = aji
    cartan = CartanMatrix(tuple(tuple(r) for r in rows))

    if mode != "selflink":
        comp = cartan.component_roots
        for (i, j), lineno in sorted(pair_lines.items(), key=lambda kv: kv[1]):
            if comp[i] == comp[j]:
                raise SemanticError(
                    lineno,
                    f"linkable vertices {i + 1} and {j + 1} lie in the same "
                    f"component (use mode selflink)",
                )

    diagram = LinkableDynkinDiagram(
        cartan, tuple(sorted(pair_lines)), frozenset(linked), mode=mode
    )
    return DiagramFile(diagram, field)


def _load(path: str) -> DiagramFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ----------------------------------------------------------------- commands


def _cmd_validate(args: argparse.Namespace) -> int:
    df = _load(args.file)
    print(df.serialize(), end="")
    return 0


def _cmd_cycles(args: argparse.Namespace) -> int:
    df = _load(args.file)
    found = enumerate_cycles(df.diagram)
    print(f"cycles: {len(found)}")
    big_g = 0
    for t, cyc in enumerate(found, start=1):
        inv = cycle_invariants(df.diagram, cyc)
        big_g = gcd(big_g, inv.genus)
        verts = "-".join(str(v + 1) for v in cyc.vertices)
        steps = "".join("p" if s == "plain" else "d" for s in cyc.steps)
        if df.diagram.mode == "finite":
            print(
                f"cycle {t}: vertices {verts} steps {steps} "
                f"weight {inv.weight2} length {inv.length} genus {inv.genus}"
            )
        else:
            print(
                f"cycle {t}: vertices {verts} steps {steps} "
                f"weight2 {inv.weight2} weight3 {inv.weight3} "
                f"length {inv.length} genus {inv.genus}"
            )
    print(f"genus gcd: {big_g}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    df = _load(args.file)
    report = check(df.diagram, df.field)
    print(f"decision: {report.decision}")
    print(f"mode: {report.mode}")
    if report.genus_gcd is not None:
        print(f"genus gcd: {report.genus_gcd}")
    for reason in report.reasons:
        print(f"reason: {reason}")
    if report.admissible:
        print(
            "admissible root orders: "
            + " ".join(str(d) for d in report.admissible)
        )
    return {"yes": 0, "no": 1, "excluded": 2}[report.decision]


def _cmd_construct(args: argparse.Namespace) -> int:
    df = _load(args.file)
    matrix = construct(df.diagram, d=args.d, field=df.field)
    report = verify(df.diagram, matrix)
    if args.machine:
        print(matrix.to_text(), end="")
    else:
        print(f"constructed: root order {matrix.order}")
        print(matrix.to_text(), end="")
        print(f"verification: {'ok' if report.ok else 'FAILED'}")
    if not report.ok:
        for f in report.failures:
            print(f"failure: {f}")
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    df = _load(args.file)
    with open(args.matrix, "r", encoding="utf-8") as fh:
        text = fh.read()
    matrix = BraidingMatrix.from_text(text)
    if matrix.size != df.diagram.size:
        raise InputError(
            f"matrix has {matrix.size} rows but the diagram has "
            f"{df.diagram.size} vertices"
        )
    report = verify(df.diagram, matrix)
    if report.ok:
        print("ok")
        return 0
    for f in report.failures:
        print(f"failure: {f}")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    df = _load(args.file)
    result = brute_force_exists(df.diagram, n_max=args.nmax, field=df.field)
    if result.found:
        if not args.machine:
            print(f"found: root order {result.root_order}")
        print(result.matrix.to_text(), end="")
        return 0
    print(f"none: no braiding matrix up to root order {result.n_max}")
    return 1


def _cmd_realize(args: argparse.Namespace) -> int:
    df = _load(args.file)
    matrix = construct(df.diagram, field=df.field)
    if args.p is None:
        datum = realize_free(matrix, df.diagram)
        if not args.machine:
            print(f"realized over Z^{matrix.size}")
    else:
        datum = realize_mod_p(matrix, df.diagram, args.p)
        if not args.machine:
            print(f"realized over (Z/{args.p})^{matrix.size}")
    print(datum.to_text(), end="")
    return 0


def _cmd_a4(args: argparse.Namespace) -> int:
    solution = a4_solve_zp2(args.p)
    realizable, lines = solution.report()
    print(f"p = {args.p}")
    print(f"realizable: {'yes' if realizable else 'no'}")
    for line in lines:
        print(line)
    for n, m, k, l in solution.tuples:
        print(f"tuple {n} {m} {k} {l}")
    print(max_diagram_note_zp2(args.p))
    return 0 if realizable else 1


# lines per write of `present`: a prism of 1,280 vertices presents in about
# 3.3 M lines, which joined into one document took several hundred MB
_PRESENT_CHUNK = 4096


def _cmd_present(args: argparse.Namespace) -> int:
    df = _load(args.file)
    matrix = construct(df.diagram, field=df.field)
    datum = realize_free(matrix, df.diagram)
    lines = emit_presentation(datum).lines(args.machine)
    while chunk := list(islice(lines, _PRESENT_CHUNK)):
        print("\n".join(chunk))
    return 0


def _cmd_selflink(args: argparse.Namespace) -> int:
    df = _load(args.file)
    comp = df.diagram.cartan.component_roots
    inside = [(i, j) for i, j in df.diagram.linkable if comp[i] == comp[j]]
    if not inside:
        print("no self-linked pairs")
        return 0
    for i, j in inside:
        if df.diagram.a(i, j) != 0:
            divisor = selflink_order_constraint(df.diagram.a(i, j), df.diagram.a(j, i))
            print(f"pair {i + 1} {j + 1}: diagonal order divides {divisor}")
        else:
            try:
                g = selflink_genus(df.diagram, i, j)
                print(f"pair {i + 1} {j + 1}: genus {g}")
            except UnclassifiedPath as exc:
                print(f"pair {i + 1} {j + 1}: unclassified ({exc})")
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    parts = []
    for path in args.files:
        df = _load(path)
        parts.append((df.diagram, construct(df.diagram, field=df.field)))
    total = direct_sum(parts, homogeneous=args.homogeneous)
    if not args.machine:
        print(f"combined: root order {total.order}, {total.size} vertices")
    print(total.to_text(), end="")
    return 0


# --------------------------------------------------------------- dispatch


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for an integer no smaller than low."""

    # argparse names the function in its "invalid <name> value" message
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value

    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkdyn",
        description="linkable Dynkin diagrams and their braiding matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name: str, helptext: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="diagram file")
        return p

    with_file("validate", "parse a diagram file and echo its normal form")
    with_file("cycles", "list cycles with weights and genera")
    with_file("check", "decide whether a braiding matrix exists")

    p = with_file("construct", "build a braiding matrix")
    p.add_argument("--d", type=int, default=None, help="root order to use")
    p.add_argument("--machine", action="store_true")

    p = with_file("verify", "verify a matrix file against the diagram")
    p.add_argument("--matrix", required=True, help="matrix file")

    p = with_file("oracle", "exhaustive search for a braiding matrix")
    p.add_argument(
        "--nmax", type=_int_at_least(5), default=30, help="largest root order"
    )
    p.add_argument("--machine", action="store_true")

    p = with_file("realize", "realize the constructed matrix over a group")
    p.add_argument(
        "--p", type=_int_at_least(1), default=None, help="modulus for (Z/p)^s"
    )
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("a4", help="rank-four realizability over (Z/p)^2")
    p.add_argument("--p", type=int, required=True)

    p = with_file("present", "emit the Hopf algebra presentation")
    p.add_argument("--machine", action="store_true")

    with_file("selflink", "constraints from same-component pairs")

    p = sub.add_parser("sum", help="direct sum of constructed matrices")
    p.add_argument("files", nargs="+", help="diagram files")
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--machine", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    stdout = sys.stdout
    if not isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        return _run(args)
    # unbuffered (-u, PYTHONUNBUFFERED): that text layer drops, unseen, what a
    # short raw write leaves over; a buffered one writes it into the pipe
    fd, encoding, errors = stdout.fileno(), stdout.encoding, stdout.errors
    with open(fd, "w", encoding=encoding, errors=errors, closefd=False) as out:
        with contextlib.redirect_stdout(out):
            return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        # looked up at each call, so a replaced _cmd_ function takes effect
        code = globals()[f"_cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except DefiniteNo as exc:
        print(f"failure: {exc}")
        return 1
    except BrokenPipeError:
        # the reader went away (`linkdyn ... | head -1`): write nothing
        # more, and point stdout at devnull so the flush at exit cannot
        # fail again; 141 is what a shell reports for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}")
        return 3
    except Exception as exc:
        # anything else, an uncaught UnclassifiedPath included, is a bug:
        # keep the traceback on stderr and report the command that hit it
        # (the import is deferred because it adds about 2 ms to every start)
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error in {args.command}: {type(exc).__name__}: {exc}")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
