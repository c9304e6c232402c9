"""The command line reader against the argparse parser it replaced.

`reference_parser` is the argparse tree the CLI used to build.  A seeded
corpus of argument lists runs through both: where the reference accepts
a list the reader gives the same values, where it refuses the reader
exits 3 with nothing on stdout, and help exits 0 in both.
"""

import argparse
import contextlib
import io
import os
import random
import subprocess
import sys

import pytest

import linkdyn.cli
from conftest import LINKDYN_SRC
from linkdyn.cli import main


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value

    return integer


def reference_parser():
    parser = argparse.ArgumentParser(
        prog="linkdyn",
        description="linkable Dynkin diagrams and their braiding matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name, helptext):
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


REFERENCE = reference_parser()


def reference_outcome(argv):
    """("ok", values), ("help", None) or ("refused", None)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return "ok", vars(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return ("help" if exc.code in (0, None) else "refused"), None


def reader_outcome(argv):
    try:
        return "ok", vars(linkdyn.cli._read_argv(list(argv)))
    except linkdyn.cli._Stop as stop:
        return ("help" if stop.message is None else "refused"), None


COMMANDS = list(linkdyn.cli._COMMANDS)
FILES = ["a.dg", "b.dg", "-", "-5", "-1.5", "", "x y", "-x y", "-h y", "--"]
VALUES = [
    "6", "30", "1", "0", "4", "5", "-3", "-5", "x", "", "1_0", " 7", "+7",
    "2.5", "--", "-x", "a.dg", "٧",
]
OPTIONS = [
    "--d", "--machine", "--matrix", "--nmax", "--p", "--homogeneous",
    # unique and ambiguous prefixes
    "--m", "--ma", "--mach", "--mat", "--n", "--nm", "--h", "--he", "--ho",
    "--", "--hom",
    # unknown options
    "--bogus", "--workers", "--start", "-x", "-p", "-d", "---d",
]
HELP = ["-h", "--help", "--he", "--hel", "-hh", "-hx", "-h=h", "-h=", "--help=x"]


def well_formed(rng, command):
    """The command's own positional and options, valid values, any order."""
    positional, options, _ = linkdyn.cli._COMMANDS[command]
    words = {"file": [["a.dg"]], "files": [["a.dg"], ["a.dg", "b.dg"]], None: [[]]}
    parts = [rng.choice(words[positional])]
    for option in options:
        if not option.required and rng.random() < 0.4:
            continue
        name = "--" + option.dest
        if rng.random() < 0.3:
            name = name[: rng.randrange(3, len(name) + 1)]
        if option.kind is linkdyn.cli._FLAG:
            parts.append([name])
        else:
            value = rng.choice(["5", "7", "12", "30"] + ["m.txt"] * (option.kind is str))
            parts.append([f"{name}={value}"] if rng.random() < 0.5 else [name, value])
    rng.shuffle(parts)
    argv = [command] + [word for part in parts for word in part]
    if rng.random() < 0.3:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(FILES + OPTIONS + HELP))
    return argv


def random_argv(rng):
    if rng.random() < 0.5:
        return well_formed(rng, rng.choice(COMMANDS))
    argv = []
    if rng.random() < 0.06:
        argv.append(rng.choice(["-h", "--help", "--foo", "-x", "--h", "-hh", "-q"]))
    roll = rng.random()
    if roll < 0.9:
        argv.append(rng.choice(COMMANDS))
    elif roll < 0.97:
        argv.append(rng.choice(["bogus", "chec", "", "-", "--", "CHECK", "-5"]))
    for _ in range(rng.randrange(6)):
        kind = rng.random()
        if kind < 0.3:
            argv.append(rng.choice(FILES))
        elif kind < 0.9:
            option = rng.choice(OPTIONS)
            form = rng.random()
            if form < 0.45:
                argv += [option, rng.choice(VALUES)]
            elif form < 0.8:
                argv.append(f"{option}={rng.choice(VALUES)}")
            else:
                argv.append(option)
        elif kind < 0.93:
            argv.append(rng.choice(HELP))
        else:
            argv.append("--")
    return argv


def corpus():
    rng = random.Random(20261019)
    fixed = [
        [],
        ["oracle", "a1a1.dg", "--nmax=6"],
        ["oracle", "--nmax", "6", "a1a1.dg"],
        ["oracle", "a1a1.dg", "--nm", "6"],
        ["construct", "x.dg", "--mach"],
        ["construct", "--d", "-5", "x.dg"],
        ["construct", "x.dg", "--d=--"],
        ["verify", "x.dg", "--matrix=--"],
        ["sum", "a.dg", "--machine", "b.dg"],
        ["sum", "a.dg", "--", "b.dg", "--"],
        ["sum", "--", "a.dg", "--"],
        ["check", "--", "a.dg"],
        ["check", "a.dg", "--"],
        ["check", "a.dg", "--", "b.dg"],
        ["oracle", "--nmax", "6", "--"],
        ["--foo", "oracle", "-h"],
        ["--foo", "check", "a.dg"],
        ["-hh"],
        ["-hx"],
        ["--", "check", "a.dg"],
        ["--"],
        ["a4", "--p", "7", "--p", "11"],
        ["a4", "--p=7", "-hh"],
        ["a4", "-hh", "--p=x"],
        ["sum", "--h"],
        ["sum", "-h", "--h"],
        ["realize", "a.dg", "--p", "0"],
        ["oracle", "a.dg", "--nmax", "4"],
    ]
    return fixed + [random_argv(rng) for _ in range(3000)]


def given_dashdash(argv):
    """Whether an option before the first `--` is given `=--`.

    argparse stores an empty list for it, which no command can use; the
    reader refuses it, as it refuses `--opt --`.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    return any(w.startswith("-") and w.endswith("=--") for w in argv[:cut])


# From Python 3.13 argparse reads a few edge cases otherwise: letters
# attached to -h, and an option given `=--`.  The reader keeps the reading
# of 3.10 to 3.12.1, so the comparison runs where argparse still reads so.
ARGPARSE_READS_AS_BEFORE = (
    reference_outcome(["-hx"])[0] == "refused"
    and reference_outcome(["a4", "-h=h"])[0] == "help"
    and reference_outcome(["construct", "x.dg", "--d=--"])[0] == "ok"
)


@pytest.mark.skipif(
    not ARGPARSE_READS_AS_BEFORE, reason="this argparse reads -hx and --d=-- otherwise"
)
def test_reader_agrees_with_the_reference_parser(capsys):
    seen = {"ok": 0, "help": 0, "refused": 0}
    commands = set()
    excepted = 0
    for argv in corpus():
        want, values = reference_outcome(argv)
        if want == "ok" and given_dashdash(argv):
            want, values = "refused", None
            excepted += 1
        got, read = reader_outcome(argv)
        assert got == want, argv
        seen[want] += 1
        if want == "ok":
            assert read == values, argv
            commands.add(values["command"])
            continue
        code = main(argv)
        out = capsys.readouterr()
        if want == "help":
            assert code == 0 and out.out.startswith("usage: linkdyn"), argv
        else:
            assert (code, out.out) == (3, ""), argv
            assert "error: " in out.err, argv
    assert commands == set(COMMANDS)
    assert min(seen.values()) >= 100, seen
    assert excepted >= 2


def test_accepted_forms():
    read = linkdyn.cli._read_argv
    want = {"command": "oracle", "file": "a1a1.dg", "nmax": 6, "machine": False}
    for argv in (
        ["oracle", "a1a1.dg", "--nmax", "6"],
        ["oracle", "a1a1.dg", "--nmax=6"],
        ["oracle", "--nmax", "6", "a1a1.dg"],
        ["oracle", "--nm=6", "a1a1.dg"],
        ["oracle", "--nmax", "6", "--", "a1a1.dg"],
    ):
        assert vars(read(argv)) == want, argv
    assert vars(read(["sum", "--mach", "a.dg", "b.dg"])) == {
        "command": "sum", "files": ["a.dg", "b.dg"], "homogeneous": False, "machine": True
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "linkdyn: error: argument command: invalid choice: 'bogus'"),
        (
            ["oracle", "a.dg", "--nmax", "4"],
            "linkdyn oracle: error: argument --nmax: 4 is less than 5",
        ),
        (
            ["sum", "--h", "a.dg"],
            "linkdyn sum: error: ambiguous option: --h could match --help, --homogeneous",
        ),
        (
            ["verify", "a.dg"],
            "linkdyn verify: error: the following arguments are required: --matrix",
        ),
        (["check", "a.dg", "b.dg"], "linkdyn: error: unrecognized arguments: b.dg"),
        # an option given `=--` is refused as one given `--` is
        *(
            (argv, f"linkdyn {argv[0]}: error: argument --{dest}: expected one argument")
            for argv, dest in (
                (["construct", "x.dg", "--d=--"], "d"),
                (["oracle", "x.dg", "--nmax=--"], "nmax"),
                (["realize", "x.dg", "--p=--"], "p"),
                (["a4", "--p=--"], "p"),
                (["verify", "x.dg", "--matrix=--"], "matrix"),
            )
        ),
    ],
)
def test_refusal_names_the_fault_on_stderr(capsys, argv, message):
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    usage, error = out.err.splitlines()
    assert usage.startswith("usage: linkdyn")
    assert error.startswith(message)


def test_cli_does_not_import_argparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (LINKDYN_SRC, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, linkdyn.cli; print('argparse' in sys.modules)"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (child.returncode, child.stdout) == (0, b"False\n")


# noise for the fuzz below: the separators, empty, huge, negative and
# non-decimal values, and options no command has
NOISE = ["--", "=", "", "-", str(10**30), "-1", "-7", "0x10", "1e3", "7.0", "٧", "+7", "abc"]
UNKNOWN = ["--bogus", "--workers", "-q", "---d", "-x=1"]


def fuzz_argv(rng, diagrams, matrices):
    """A command's own positional and options with values of their kinds
    or noise, in any order and either form, then up to two faults: a word
    or the value after its `=` replaced by noise, or noise put in."""
    command = rng.choice(COMMANDS)
    positional, options, _ = linkdyn.cli._COMMANDS[command]
    count = {"file": 1, "files": rng.randint(1, 2), None: 0}[positional]
    parts = [[rng.choice(diagrams)] for _ in range(count)]
    for option in options:
        if not option.required and rng.random() < 0.5:
            continue
        name = "--" + option.dest
        name = name[: rng.randrange(3, len(name) + 1)]
        if option.kind is linkdyn.cli._FLAG:
            parts.append([name])
            continue
        value = rng.choice(matrices if option.kind is str else ["5", "7", "12", "30"])
        value = rng.choice(NOISE) if rng.random() < 0.35 else value
        parts.append([f"{name}={value}"] if rng.random() < 0.5 else [name, value])
    rng.shuffle(parts)
    argv = [command] + [word for part in parts for word in part]
    for _ in range(rng.choice((0, 0, 1, 2))):
        k, noise = rng.randrange(len(argv) + 1), rng.choice(NOISE + UNKNOWN + COMMANDS)
        if k < len(argv) and rng.random() < 0.5:
            name, eq, _ = argv[k].partition("=")
            argv[k] = name + eq + noise if eq else noise
        else:
            argv.insert(k, noise)
    return argv


def test_random_argv_exits_cleanly(tmp_path, capsys):
    # every command runs in-process on small inputs: a diagram with a
    # braiding matrix (most often), one that does not parse, a matrix
    # that verifies, one that fails, a missing path and a directory
    texts = {
        "a1a1.dg": "vertices 2\nlink 1 2\n",
        "bad.dg": "vertices 2\nedge 1 2 -1\n",
        "m.txt": "root_order 5\nq^1 q^4\nq^1 q^4\n",
        "bad.m": "root_order 5\nq^1*z1^1 q^3\nq^1 q^4\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = {name: str(tmp_path / name) for name in (*texts, "missing")}
    diagrams = [path["a1a1.dg"]] * 4 + [path["bad.dg"], path["missing"], str(tmp_path)]
    matrices = [path["m.txt"], path["bad.m"], path["missing"]]
    rng = random.Random(20261020)
    codes = {}
    for _ in range(3000):
        argv = fuzz_argv(rng, diagrams, matrices)
        code = main(argv)
        out = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, code, out)
        assert "Traceback" not in out.err, argv
        if out.err.startswith("usage: linkdyn"):
            assert out.out == "", argv
        codes[code] = codes.get(code, 0) + 1
    # each outcome shows up: success, a definite no and refused input
    assert min(codes.get(c, 0) for c in (0, 1, 3)) >= 20, codes
