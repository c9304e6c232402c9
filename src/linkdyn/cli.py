"""Command line front end.

Reads the argument list against one static table of the commands
(`_COMMANDS`) in one pass, reads line-oriented diagram files, dispatches
to the library, and prints deterministic reports.  Options go before or
after the file, as `--opt value` or `--opt=value`, by any unique prefix;
a malformed argument list exits 3 with its usage on stderr.  Exit codes:
0 yes/success, 1 no or verification failure, 2 excluded case, 3 input
error, 4 internal error (a bug: the message names the command and the
exception), 141 closed stdout.  An error's class decides between 1, 3
and 4 (see errors.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from dataclasses import dataclass
from math import gcd
from types import SimpleNamespace

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

_VERTEX_LIMIT = 4096  # most vertices parse accepts: it bounds the s x s matrices, not storage


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

    rows = [{i: 2} for i in range(size)]
    for (i, j), (aij, aji) in entries.items():
        if aij:
            rows[i][j], rows[j][i] = aij, aji
    cartan = CartanMatrix(tuple(rows))

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


def _read(path: str) -> str:
    """A file's text: the same lines, and the same errors, as a text-mode
    open gives (splitlines ends a line at \\r\\n and \\r too), for less
    than the text layer costs on a small file."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read().decode("utf-8")


def _load(path: str) -> DiagramFile:
    return parse(_read(path))


# ----------------------------------------------------------------- commands


def _cmd_validate(args: SimpleNamespace) -> int:
    df = _load(args.file)
    print(df.serialize(), end="")
    return 0


def _cmd_cycles(args: SimpleNamespace) -> int:
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


def _cmd_check(args: SimpleNamespace) -> int:
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


def _cmd_construct(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    df = _load(args.file)
    matrix = BraidingMatrix.from_text(_read(args.matrix))
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


def _cmd_oracle(args: SimpleNamespace) -> int:
    df = _load(args.file)
    result = brute_force_exists(df.diagram, n_max=args.nmax, field=df.field)
    if result.found:
        if not args.machine:
            print(f"found: root order {result.root_order}")
        print(result.matrix.to_text(), end="")
        return 0
    print(f"none: no braiding matrix up to root order {result.n_max}")
    return 1


def _cmd_realize(args: SimpleNamespace) -> int:
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


def _cmd_a4(args: SimpleNamespace) -> int:
    solution = a4_solve_zp2(args.p)
    realizable, lines = solution.report()
    print(f"p = {args.p}")
    print(f"realizable: {'yes' if realizable else 'no'}")
    for line in lines:
        print(line)
    if solution.tuples:
        print("\n".join(f"tuple {n} {m} {k} {l}" for n, m, k, l in solution.tuples))
    print(max_diagram_note_zp2(args.p))
    return 0 if realizable else 1


def _cmd_present(args: SimpleNamespace) -> int:
    df = _load(args.file)
    matrix = construct(df.diagram, field=df.field)
    datum = realize_free(matrix, df.diagram)
    # a row of relations per write: a prism of 1,280 vertices presents in
    # about 3.3 M lines, which joined into one document took several hundred MB
    write = sys.stdout.write
    for piece in emit_presentation(datum).rows(args.machine):
        write(piece)
    return 0


def _cmd_selflink(args: SimpleNamespace) -> int:
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


def _cmd_sum(args: SimpleNamespace) -> int:
    parts = []
    for path in args.files:
        df = _load(path)
        parts.append((df.diagram, construct(df.diagram, field=df.field)))
    total = direct_sum(parts, homogeneous=args.homogeneous)
    if not args.machine:
        print(f"combined: root order {total.order}, {total.size} vertices")
    print(total.to_text(), end="")
    return 0


# ------------------------------------------------------------------- argv


class _Option:
    """One `--dest` option: kind int or str takes a value, _FLAG none.

    (A plain class: a dataclass would cost every start about 1.5 ms.)
    """

    __slots__ = ("dest", "kind", "default", "low", "required")

    def __init__(self, dest, kind, default=None, low=None, required=False):
        self.dest, self.kind, self.default = dest, kind, default
        self.low, self.required = low, required  # low: the least int accepted


_FLAG = "flag"
_MACHINE = _Option("machine", _FLAG, default=False)
_HELP = _Option("help", _FLAG)

# command -> (positional: "file", "files" or None, options, help line)
_COMMANDS: dict[str, tuple[str | None, tuple[_Option, ...], str]] = {
    "validate": ("file", (), "parse a diagram file and echo its normal form"),
    "cycles": ("file", (), "list cycles with weights and genera"),
    "check": ("file", (), "decide whether a braiding matrix exists"),
    "construct": ("file", (_Option("d", int), _MACHINE), "build a braiding matrix"),
    "verify": (
        "file",
        (_Option("matrix", str, required=True),),
        "verify a matrix file against the diagram",
    ),
    "oracle": (
        "file",
        (_Option("nmax", int, default=30, low=5), _MACHINE),
        "exhaustive search for a braiding matrix",
    ),
    "realize": (
        "file",
        (_Option("p", int, low=1), _MACHINE),
        "realize the constructed matrix over a group",
    ),
    "a4": (None, (_Option("p", int, required=True),), "rank-four realizability over (Z/p)^2"),
    "present": ("file", (_MACHINE,), "emit the Hopf algebra presentation"),
    "selflink": ("file", (), "constraints from same-component pairs"),
    "sum": (
        "files",
        (_Option("homogeneous", _FLAG, default=False), _MACHINE),
        "direct sum of constructed matrices",
    ),
}
_TOP_NAMES = {"-h": _HELP, "--help": _HELP}


class _Stop(Exception):
    """The argument list asks for help (message None) or is malformed."""

    def __init__(self, command: str | None, message: str | None) -> None:
        self.command, self.message = command, message


def _classify(word: str, names: dict[str, _Option], command: str | None):
    """How a word before `--` reads: None for a value, else (option, or
    None if unknown; the name it matched; the value after `=` or -h).

    Long options match by any unique prefix.
    """
    if word[:1] != "-":
        return None
    if word in names:
        return names[word], word, None
    if len(word) == 1:
        return None
    name, eq, value = word.partition("=")
    if eq and name in names:
        return names[name], name, value
    if word[1] == "-":
        found = [n for n in names if n.startswith(name)]
        attached = value if eq else None
    else:
        found = [n for n in names if n == word[:2]]
        attached = word[2:]
    if len(found) > 1:
        raise _Stop(command, f"ambiguous option: {word} could match {', '.join(found)}")
    if found:
        return names[found[0]], found[0], attached
    # a word like -5 or -.5 is a value (compiled at its first use only)
    if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word:
        return None
    return None, word, None


def _help(command: str | None, name: str, attached: str | None) -> _Stop:
    """-h or --help; -h may carry more h's (-hh), nothing else."""
    if attached is None or (name == "-h" and attached and not attached.strip("h")):
        return _Stop(command, None)
    return _Stop(command, f"argument -h/--help: ignored explicit argument {attached!r}")


def _value(command: str, option: _Option, text: str) -> object:
    if text == "--":  # `--opt=--`, refused as `--opt --` is
        raise _Stop(command, f"argument --{option.dest}: expected one argument")
    if option.kind is str:
        return text
    try:
        value = int(text)
    except ValueError:
        raise _Stop(command, f"argument --{option.dest}: invalid int value: {text!r}")
    if option.low is not None and value < option.low:
        raise _Stop(command, f"argument --{option.dest}: {value} is less than {option.low}")
    return value


def _read_command(command: str, words: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """The namespace of one command's words, and the words left over.

    As argparse reads them: each word is an option (O), a value (A) or
    the first `--` (-), after which every word is a value.  Options may
    come before or after the positional; `file` takes one value and
    `files` one unbroken run of them.
    """
    positional, options, _ = _COMMANDS[command]
    names = _TOP_NAMES | {"--" + o.dest: o for o in options}
    cut = words.index("--") if "--" in words else len(words)
    found = [_classify(word, names, command) for word in words[:cut]]
    pattern = "".join("A" if f is None else "O" for f in found)
    if cut < len(words):
        pattern += "-" + "A" * (len(words) - cut - 1)
    values = {o.dest: o.default for o in options}
    given: set[str] = set()
    extras: list[str] = []
    pending = positional is not None
    i = 0
    while i < len(words):
        if pattern[i] != "O":
            j = i + (pattern[i] == "-")
            if pending and pattern[j : j + 1] == "A":
                j += 1
                more = "A-" if positional == "files" else "-"
                while j < len(pattern) and pattern[j] in more:
                    j += 1
                taken = words[i:j]
                if "--" in taken:
                    taken.remove("--")
                values[positional] = taken if positional == "files" else taken[0]
                pending = False
            else:
                j = (pattern + "O").index("O", i)  # up to the next option
                extras += words[i:j]
            i = j
            continue
        option, name, attached = found[i]
        i += 1
        if option is None:
            extras.append(words[i - 1])
        elif option is _HELP:
            raise _help(command, name, attached)
        elif option.kind is _FLAG:
            if attached is not None:
                raise _Stop(
                    command, f"argument --{option.dest}: ignored explicit argument {attached!r}"
                )
            values[option.dest] = True
        else:
            if attached is None:
                if pattern[i : i + 1] != "A":
                    raise _Stop(command, f"argument --{option.dest}: expected one argument")
                attached = words[i]
                i += 1
            values[option.dest] = _value(command, option, attached)
            given.add(option.dest)
    missing = [positional] if pending else []
    missing += ["--" + o.dest for o in options if o.required and o.dest not in given]
    if missing:
        raise _Stop(command, "the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(command=command, **values), extras


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """The namespace of the whole argument list, in one pass over it."""
    extras = []
    for k, word in enumerate(argv):
        if word == "--":
            break
        found = _classify(word, _TOP_NAMES, None)
        if found is None:
            if word not in _COMMANDS:
                break
            args, more = _read_command(word, argv[k + 1 :])
            if extras or more:
                raise _Stop(None, "unrecognized arguments: " + " ".join(extras + more))
            return args
        option, name, attached = found
        if option is None:
            extras.append(word)
        else:
            raise _help(None, name, attached)
    else:
        raise _Stop(None, "the following arguments are required: command")
    choices = ", ".join(map(repr, _COMMANDS))
    raise _Stop(None, f"argument command: invalid choice: {word!r} (choose from {choices})")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: linkdyn [-h] {" + ",".join(_COMMANDS) + "} ..."
    positional, options, _ = _COMMANDS[command]
    words = ["usage: linkdyn", command, "[-h]"]
    for o in options:
        text = f"--{o.dest}" if o.kind is _FLAG else f"--{o.dest} {o.dest.upper()}"
        words.append(text if o.required else f"[{text}]")
    words += {"file": ["file"], "files": ["files [files ...]"], None: []}[positional]
    return " ".join(words)


def _help_text(command: str | None) -> str:
    if command is None:
        lines = [f"  {name:<10} {entry[2]}" for name, entry in _COMMANDS.items()]
    else:
        lines = ["  " + _COMMANDS[command][2]]
    return "\n".join([_usage(command), ""] + lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        if stop.message is None:
            print(_help_text(stop.command), end="")
            return 0
        prog = "linkdyn" if stop.command is None else f"linkdyn {stop.command}"
        print(_usage(stop.command), f"{prog}: error: {stop.message}", sep="\n", file=sys.stderr)
        return 3
    stdout = sys.stdout
    if not isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        return _run(args)
    # unbuffered (-u, PYTHONUNBUFFERED): that text layer drops, unseen, what a
    # short raw write leaves over; a buffered one writes it into the pipe
    fd, encoding, errors = stdout.fileno(), stdout.encoding, stdout.errors
    with open(fd, "w", encoding=encoding, errors=errors, closefd=False) as out:
        with contextlib.redirect_stdout(out):
            return _run(args)


def _run(args: SimpleNamespace) -> int:
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
