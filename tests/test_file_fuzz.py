"""Mutated diagram and matrix files through the commands that read them.

Each command of `present`, `realize`, `construct`, `verify --matrix` and
`oracle` runs in-process on a file made from a valid one by a few random
faults (tokens dropped, doubled or swapped; integers made huge, negative
or non-decimal; CR, NUL or invalid UTF-8 put in; the file cut short), and
must end cleanly: exit 0 to 3, no traceback, nothing on stdout but the
one `error:` line of an input error, within 2 s.
"""

import random
import signal

import pytest

from linkdyn.cli import main

DIAGRAMS = (
    "vertices 2\nlink 1 2\n",
    "vertices 4\nedge 1 2 -1 -1\nedge 3 4 -1 -1\nlink 1 3\nlinkable 2 4\n",
    "vertices 6\nedge 1 2 -1 -1\nedge 2 3 -2 -1\nedge 4 5 -1 -1\nedge 5 6 -2 -1\n"
    "link 3 4\nlink 6 1\nfield gf 31\n",
    "vertices 4\nedge 1 2 -3 -1\nedge 3 4 -1 -1\nlink 2 3\nfield roots 5,7\n",
    "vertices 4\nedge 1 2 -2 -2\nedge 3 4 -2 -2\nlink 1 3\nmode affine\n",
    "vertices 3\nedge 1 2 -1 -1\nedge 2 3 -1 -3\nlink 1 3\nmode selflink\n",
)
# the matrices construct --machine writes for the first two diagrams
MATRICES = (
    "root_order 5\nq^1 q^4\nq^1 q^4\n",
    "root_order 5\nq^1 q^4*z1^-1 q^4 q^1*z1^1\nq^0*z1^1 q^1 q^0*z1^-1 q^4\n"
    "q^1 q^0*z1^1 q^4 q^0*z1^-1\nq^4*z1^-1 q^1 q^1*z1^1 q^4\n",
)
# none of these can stand for a vertex count that parses but is large
NUMBERS = [
    str(10**30), str(2**64), "9" * 5000, "-1", "-7", "0", "0x10", "1e3", "7.0",
    "٧", "+7", "1_0", "-0", "q^-1",
]
BYTES = [b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3(", b"\xe2\x82", b"\n"]


def mutate(rng, data):
    """data with one to three faults, each at a random place."""
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        lines = [line.split(b" ") for line in data.split(b"\n")]
        words = [(r, c) for r, line in enumerate(lines) for c in range(len(line))]
        r, c = rng.choice(words)
        kind = rng.randrange(8)
        if kind == 0:
            del lines[r][c]
        elif kind == 1:
            lines[r].insert(c, lines[r][c])
        elif kind == 2:
            r2, c2 = rng.choice(words)
            lines[r][c], lines[r2][c2] = lines[r2][c2], lines[r][c]
        elif kind == 3:
            lines[r][c] = rng.choice(NUMBERS).encode("utf-8")
        elif kind == 4:
            lines.insert(r, lines[r])
        elif kind == 5:
            del lines[r]
        data = b"\n".join(b" ".join(line) for line in lines)
        if kind == 6:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(BYTES) + data[at:]
        elif kind == 7:
            data = data[: rng.randrange(len(data) + 1)]
    return data


class CallTooLong(Exception):
    pass


def _alarm(signum, frame):
    raise CallTooLong


@pytest.fixture
def two_second_alarm():
    previous = signal.signal(signal.SIGALRM, _alarm)
    yield lambda: signal.setitimer(signal.ITIMER_REAL, 2.0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_mutated_files_exit_cleanly(tmp_path, capsys, two_second_alarm):
    dg, mx = tmp_path / "x.dg", tmp_path / "x.m"
    valid_m = tmp_path / "valid.m"
    rng = random.Random(34)
    codes = {}
    for _ in range(4000):
        text = rng.choice(DIAGRAMS)
        command = rng.choice(("present", "realize", "construct", "verify", "oracle"))
        argv = [command, str(dg)]
        if command == "verify":
            matrix = rng.choice(MATRICES)
            argv += ["--matrix", str(mx)]
            if rng.random() < 0.5:
                # fault the matrix, against the diagram it was made for
                text = DIAGRAMS[MATRICES.index(matrix)]
                mx.write_bytes(mutate(rng, matrix.encode("utf-8")))
                dg.write_bytes(text.encode("utf-8"))
            else:
                valid_m.write_text(matrix, encoding="utf-8")
                mx.write_bytes(valid_m.read_bytes())
                dg.write_bytes(mutate(rng, text.encode("utf-8")))
        else:
            dg.write_bytes(mutate(rng, text.encode("utf-8")))
            argv += rng.choice(([], ["--machine"])) if command != "oracle" else ["--nmax", "30"]
        if command == "realize" and rng.random() < 0.5:
            argv += ["--p", "5"]
        case = (argv, dg.read_bytes(), mx.read_bytes() if command == "verify" else None)
        two_second_alarm()
        try:
            code = main(argv)
        except CallTooLong:
            pytest.fail(f"over 2 s: {case}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out = capsys.readouterr()
        assert code in (0, 1, 2, 3), (case, code, out)
        assert "Traceback" not in out.err, case
        if code == 3:
            # an input error prints its one line and nothing before it
            assert out.out.startswith("error: ") and out.out.count("\n") == 1, (case, out)
        codes[code] = codes.get(code, 0) + 1
    # faults that still parse, definite noes and refusals all show up
    assert min(codes.get(c, 0) for c in (0, 1, 3)) >= 40, codes
