"""Outcome checker: is a command's exit code and output what it must be?

problem() returns None for a correct outcome and a one-line reason
otherwise.  The rules are stated in terms of facts the fixture
generators know independently of linkdyn: the expected decision, the
cycle count, the root order and the diagram's size.
"""

from __future__ import annotations

import hashlib

import fixtures as fx

EXIT_OF = {"yes": 0, "no": 1, "excluded": 2}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def pairwise_consistent(g: fx.Graph) -> bool:
    """The entry-matching condition between every two dotted edges.

    For dotted edges {i,k} and {j,l} both matchings of their ends must
    carry equal Cartan data: a_ij = a_kl and a_ji = a_lk, and likewise
    a_il = a_kj and a_li = a_jk.  Criterion 6 of the acceptance tests
    expects the exhaustive search to find a matrix for an excluded
    shape exactly when this holds.
    """
    def a(i: int, j: int) -> int:
        return 2 if i == j else g.cartan.get((i, j), 0)

    pairs = sorted(tuple(sorted(p)) for p in g.links)
    for p, (i, k) in enumerate(pairs):
        for j, l in pairs[p + 1:]:
            for (x, y), (u, w) in (((i, j), (k, l)), ((i, l), (k, j))):
                if a(x, y) != a(u, w) or a(y, x) != a(w, u):
                    return False
    return True


def _check(cmd: dict, code: int, out: list[str]) -> str | None:
    want = EXIT_OF[cmd["decision"]]
    if code != want:
        return f"exit {code}, want {want}"
    if out[:1] != [f"decision: {cmd['decision']}"]:
        return f"first line {out[:1]}"
    return None


def _construct(cmd: dict, code: int, out: list[str]) -> str | None:
    if "--machine" in cmd["argv"]:
        want = EXIT_OF[cmd["decision"]]
        if code != want:
            return f"exit {code}, want {want}"
        head = "root_order " if want == 0 else "failure: "
        return None if out and out[0].startswith(head) else f"first line {out[:1]}"
    if code != 0:
        return f"exit {code}, want 0"
    if out[-1:] != ["verification: ok"]:
        return f"last line {out[-1:]}"
    if "root_order" in cmd and out[0] != f"constructed: root order {cmd['root_order']}":
        return f"first line {out[0]!r}, want root order {cmd['root_order']}"
    return None


def _cycles(cmd: dict, code: int, out: list[str]) -> str | None:
    if code != 0:
        return f"exit {code}, want 0"
    if out[:1] != [f"cycles: {cmd['cycles']}"]:
        return f"first line {out[:1]}, want {cmd['cycles']} cycles"
    if len(out) != cmd["cycles"] + 2:
        return f"{len(out)} lines for {cmd['cycles']} cycles"
    return None


def _verify(cmd: dict, code: int, out: list[str]) -> str | None:
    return None if code == 0 and out == ["ok"] else f"exit {code}, output {out[:1]}"


def _oracle(cmd: dict, code: int, out: list[str]) -> str | None:
    decision = cmd["decision"]
    if decision == "excluded":
        found = pairwise_consistent(fx.read_dg(cmd["text"]))
    else:
        found = decision == "yes"
    if code != (0 if found else 1):
        return f"exit {code}; check says {decision}, so a matrix {'must' if found else 'must not'} be found"
    head = "found: root order " if found else "none: no braiding matrix up to root order 30"
    return None if out and out[0].startswith(head) else f"first line {out[:1]}"


def _present(cmd: dict, code: int, out: list[str]) -> str | None:
    if code != 0:
        return f"exit {code}, want 0"
    s = cmd["size"]
    try:
        serre = out.index("serre relations:")
        coproduct = out.index("coproduct:")
    except ValueError:
        return "missing serre or coproduct block"
    if coproduct - serre - 1 != s * (s - 1) // 2:
        return f"{coproduct - serre - 1} serre relations, want {s * (s - 1) // 2}"
    return None


def _realize(cmd: dict, code: int, out: list[str]) -> str | None:
    if code != 0:
        return f"exit {code}, want 0"
    p, s = cmd["root_order"], cmd["size"]
    if out[:2] != [f"realized over (Z/{p})^{s}", f"root_order {p}"]:
        return f"header {out[:2]}"
    return None


def _a4(cmd: dict, code: int, out: list[str]) -> str | None:
    p = cmd["p"]
    square = p == 5 or pow(5, (p - 1) // 2, p) == 1
    if code != (0 if square else 1):
        return f"exit {code}; 5 is {'a' if square else 'no'} square mod {p}"
    if f"realizable: {'yes' if square else 'no'}" not in out:
        return "realizable line disagrees with the Euler criterion"
    if not any(line.endswith("(agrees with the scan)") for line in out):
        return "closed form and scan disagree"
    return None


_RULES = {
    "check": _check,
    "construct": _construct,
    "cycles": _cycles,
    "verify": _verify,
    "oracle": _oracle,
    "present": _present,
    "realize": _realize,
    "a4": _a4,
}


def problem(cmd: dict, code: int, stdout: str) -> str | None:
    """None when the outcome is right, else what is wrong with it."""
    return _RULES[cmd["kind"]](cmd, code, stdout.splitlines())
