"""Tests for the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

import pytest  # noqa: E402

import fixtures as fx  # noqa: E402
import outcomes  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from linkdyn import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ------------------------------------------------------------- generators


def test_family_self_check_and_decisions():
    members = fx.family()
    assert len(members) == 307
    counts = {d: sum(f.decision == d for f in members) for d in ("no", "yes", "excluded")}
    assert counts == {"no": 179, "yes": 122, "excluded": 6}
    for f in members:
        df = cli.parse(f.text)
        assert df.diagram.is_link_connected(), f.name
        code, out = run_cli_text(f.text, "check")
        assert code == outcomes.EXIT_OF[f.decision], f.name


def run_cli_text(text, command):
    with tempfile.NamedTemporaryFile("w", suffix=".dg", delete=False) as fh:
        fh.write(text)
    try:
        return run_cli([command, fh.name])
    finally:
        os.unlink(fh.name)


def test_family_sample_keeps_shares_and_repeats():
    members = fx.family()
    a = fx.family_sample(members, 60, random.Random(5))
    b = fx.family_sample(members, 60, random.Random(5))
    assert [f.name for f in a] == [f.name for f in b]
    assert len({f.name for f in a}) == 60
    counts = {d: sum(f.decision == d for f in a) for d in ("no", "yes", "excluded")}
    assert counts == {"no": 35, "yes": 24, "excluded": 1}


@pytest.mark.parametrize("k", [4, 6, 8, 9, 10])
def test_prism_self_check(k):
    f = fx.prism(k, random.Random(k))
    g = fx.read_dg(f.text)
    assert g.size == 10 * k
    assert f.decision == ("yes" if k % 2 == 0 else "no")
    if k in fx.PRISM_CYCLES:
        assert f.facts["cycles"] == fx.PRISM_CYCLES[k]


def test_prism_cycle_count_survives_relabelling():
    counts = {fx.prism(8, random.Random(seed)).facts["cycles"] for seed in range(3)}
    assert counts == {312}


def test_prism_matches_linkdyn():
    f = fx.prism(4, random.Random(0))
    code, out = run_cli_text(f.text, "cycles")
    assert code == 0 and out.startswith("cycles: 28\n")
    code, out = run_cli_text(fx.prism(5, random.Random(0)).text, "check")
    assert code == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_b3_ring_genus(n):
    f = fx.ring("B3", n, random.Random(n))
    assert f.facts["genus"] == 2**n - (-1) ** n
    assert f.facts["root_order"] == f.facts["genus"]


def test_a3_ring_genus_parity():
    assert fx.ring("A3", 6, random.Random(0)).facts["genus"] == 0
    with pytest.raises(fx.FixtureError, match="genus 2"):
        fx.ring("A3", 5, random.Random(0))  # odd A3 rings decide no


def test_self_check_rejects_a_broken_ring():
    lines = fx.ring("B3", 4, random.Random(0)).text.splitlines()
    broken = "\n".join(lines[:-1]) + "\n"  # drop one link: the ring opens
    with pytest.raises(fx.FixtureError):
        fx.ring_genus(fx.read_dg(broken))


# --------------------------------------------------------- outcome checker


def _member(decision):
    return next(f for f in fx.family() if f.decision == decision)


@pytest.mark.parametrize("decision", ["yes", "no", "excluded"])
def test_outcome_checker_on_known_diagrams(decision):
    f = _member(decision)
    base = {"fixture": f.name, "decision": decision, "text": f.text}
    for kind in ("check", "oracle") + (("construct",) if decision == "yes" else ()):
        cmd = {**base, "kind": kind, "argv": [kind]}
        code, out = run_cli_text(f.text, kind)
        assert outcomes.problem(cmd, code, out) is None, (kind, out)
        assert outcomes.problem(cmd, 3, out) is not None
    wrong = {"yes": "no", "no": "yes", "excluded": "yes"}[decision]
    code, out = run_cli_text(f.text, "check")
    assert outcomes.problem({**base, "kind": "check", "decision": wrong}, code, out)


def test_excluded_oracle_rule_follows_pairwise_consistency():
    excluded = [f for f in fx.family() if f.decision == "excluded"]
    for f in excluded:
        code, _ = run_cli_text(f.text, "oracle")
        assert (code == 0) == outcomes.pairwise_consistent(fx.read_dg(f.text)), f.name


def test_a4_rule():
    for p in (5, 7, 11, 13):
        code, out = run_cli(["a4", "--p", str(p)])
        assert outcomes.problem({"kind": "a4", "p": p}, code, out) is None


# ------------------------------------------------------------------ tracer


def _small_pass(tmp_path):
    cmds = []
    for w in workloads.WORKLOADS:
        cmds += workloads.build(w, 3, str(tmp_path / w))[:4]
    for t, cmd in enumerate(cmds):
        cmd["id"] = t
    return cmds


def test_stdout_identical_with_and_without_tracing(tmp_path):
    cmds = _small_pass(tmp_path)
    plain = worker.run({"src": SRC, "commands": cmds})
    traced = worker.run({"src": SRC, "commands": cmds, "trace": True})
    assert [(r["exit"], r["digest"]) for r in plain["records"]] == [
        (r["exit"], r["digest"]) for r in traced["records"]
    ]
    assert all(r["problem"] is None for r in plain["records"] + traced["records"])
    assert traced["trace"]["by_name"]["cli.main"][0] == len(cmds)


def test_tracer_restores_every_binding():
    import linkdyn.braiding as braiding
    import linkdyn.existence as existence

    before = (cli.check, existence.check, braiding.verify, braiding.RootExpr.__post_init__)
    tracer = Tracer()
    tracer.install()
    assert cli.check is not before[0] and existence.check is not before[1]
    tracer.uninstall()
    assert (cli.check, existence.check, braiding.verify, braiding.RootExpr.__post_init__) == before


def test_construct_calls_check_through_the_wrapper(tmp_path):
    f = fx.prism(4, random.Random(0))
    path = tmp_path / "p.dg"
    path.write_text(f.text)
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(["construct", str(path), "--machine"])
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("braiding.construct") == 1
    assert names.count("existence.check") == 1
    assert names.count("cycles.enumerate_cycles") == 4
    assert tracer.counts[("cycles.enumerate_cycles.cycles_returned", -1)] == 4 * 28


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
    ]
    assert tracer.self_times() == [5.0, 2.0, 1.0, 2.0]
