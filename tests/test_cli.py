"""Command line behavior: file parsing, exit codes, stable output."""

import hashlib
import io
import os
import resource
import subprocess
import sys
import time

import pytest

import linkdyn.braiding
import linkdyn.cli
import linkdyn.cycles
import linkdyn.errors
import linkdyn.realization
from conftest import LINKDYN_SRC, circle, prism, run_cli
from linkdyn import (
    BraidingMatrix,
    FieldSpec,
    HopfPresentation,
    LinkableDynkinDiagram,
    construct,
    emit_presentation,
    realize_free,
)
from linkdyn.cli import DiagramFile, main, parse
from linkdyn.errors import (
    DefiniteNo,
    DiagramSyntaxError,
    InadmissibleD,
    InputError,
    LinkdynError,
    NoAdmissibleOrder,
    NotPrime,
    OrderMismatch,
    SemanticError,
    UnclassifiedPath,
)


class PathInconsistency(LinkdynError):
    """A LinkdynError that is neither bad input nor a definite no: a bug."""


A1A1 = "vertices 2\nlink 1 2\n"
B2B2 = "vertices 4\nedge 1 2 -1 -2\nedge 3 4 -1 -2\nlink 2 4\n"

A2A2 = (
    "vertices 4\n"
    "edge 1 2 -1 -1\n"
    "edge 3 4 -1 -1\n"
    "link 1 3\n"
    "link 2 4\n"
)

G2G2 = (
    "vertices 4\n"
    "edge 1 2 -3 -1\n"
    "edge 3 4 -3 -1\n"
    "link 1 3\n"
    "link 2 4\n"
)

SELFLINK_A4 = (
    "vertices 4\n"
    "edge 1 2 -1 -1\n"
    "edge 2 3 -1 -1\n"
    "edge 3 4 -1 -1\n"
    "linkable 1 4\n"
    "mode selflink\n"
)


def a3_circle(n):
    lines = [f"vertices {3 * n}"]
    for k in range(n):
        base = 3 * k
        lines.append(f"edge {base + 1} {base + 2} -1 -1")
        lines.append(f"edge {base + 2} {base + 3} -1 -1")
    for k in range(n):
        lines.append(f"link {3 * k + 3} {(3 * (k + 1)) % (3 * n) + 1}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def write(tmp_path):
    counter = [0]

    def _write(text):
        counter[0] += 1
        path = tmp_path / f"d{counter[0]}.dg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestParse:
    def test_builds_one_diagram(self, monkeypatch):
        built = []
        post_init = LinkableDynkinDiagram.__post_init__

        def counted(diagram):
            built.append(diagram)
            post_init(diagram)

        monkeypatch.setattr(LinkableDynkinDiagram, "__post_init__", counted)
        df = parse(A2A2)
        assert len(built) == 1 and built[0] is df.diagram

    def test_two_vertex_chain(self):
        df = parse("vertices 2\nedge 1 2 -1 -1\n")
        d = df.diagram
        assert d.size == 2
        assert d.a(0, 1) == -1 and d.a(1, 0) == -1
        assert d.mode == "finite"
        assert df.field.kind == "cyclotomic"

    def test_linked_pair(self):
        d = parse(A1A1).diagram
        assert d.linkable == ((0, 1),)
        assert d.linked == frozenset({(0, 1)})

    def test_linkable_without_link(self):
        d = parse("vertices 2\nlinkable 1 2\n").diagram
        assert d.linkable == ((0, 1),)
        assert d.linked == frozenset()

    def test_comments_and_blanks(self):
        text = "# header\n\nvertices 2  # two\n  edge 1 2 -1 -1\n"
        assert parse(text).diagram.size == 2

    def test_asymmetric_zero_rejected(self):
        with pytest.raises(SemanticError, match="line 2"):
            parse("vertices 2\nedge 1 2 -1 0\n")

    def test_positive_entry_rejected(self):
        with pytest.raises(SemanticError, match="nonpositive"):
            parse("vertices 2\nedge 1 2 1 -1\n")

    def test_unknown_directive(self):
        with pytest.raises(DiagramSyntaxError, match="line 1"):
            parse("vertex 2\n")

    def test_bad_integer(self):
        with pytest.raises(DiagramSyntaxError, match="expected an integer"):
            parse("vertices two\n")

    def test_vertices_required_first(self):
        with pytest.raises(SemanticError, match="declared first"):
            parse("edge 1 2 -1 -1\nvertices 2\n")
        with pytest.raises(SemanticError, match="missing vertices"):
            parse("# nothing\n")

    def test_duplicate_declarations(self):
        with pytest.raises(SemanticError, match="twice"):
            parse("vertices 2\nvertices 2\n")
        with pytest.raises(SemanticError, match="twice"):
            parse("vertices 2\nedge 1 2 -1 -1\nedge 2 1 -1 -1\n")
        with pytest.raises(SemanticError, match="twice"):
            parse("vertices 4\nlink 1 3\nlinkable 3 1\n")
        with pytest.raises(SemanticError, match="twice"):
            parse("vertices 2\nfield cyclotomic\nfield gf 5\n")
        with pytest.raises(SemanticError, match="twice"):
            parse("vertices 2\nmode finite\nmode affine\n")

    def test_vertex_bounds(self):
        with pytest.raises(SemanticError, match="out of range"):
            parse("vertices 2\nedge 1 3 -1 -1\n")
        with pytest.raises(SemanticError, match="must differ"):
            parse("vertices 2\nedge 1 1 -1 -1\n")
        with pytest.raises(SemanticError, match="itself"):
            parse("vertices 2\nlink 2 2\n")

    def test_dotted_edges_stay_disjoint(self):
        with pytest.raises(SemanticError, match="already lies"):
            parse("vertices 4\nlink 1 2\nlink 1 3\n")

    def test_same_component_pair_needs_selflink_mode(self):
        text = "vertices 2\nedge 1 2 -1 -1\nlinkable 1 2\n"
        with pytest.raises(SemanticError, match="selflink"):
            parse(text)
        assert parse(text + "mode selflink\n").diagram.mode == "selflink"

    def test_field_declarations(self):
        assert parse("vertices 1\nfield gf 11\n").field.q == 11
        df = parse("vertices 1\nfield roots 7,5,7\n")
        assert df.field.orders == (5, 7)
        with pytest.raises(SemanticError, match="line 2"):
            parse("vertices 1\nfield gf 4\n")
        with pytest.raises(SemanticError, match="prime order above 3"):
            parse("vertices 1\nfield roots 4\n")
        with pytest.raises(DiagramSyntaxError, match="unknown field"):
            parse("vertices 1\nfield padic 5\n")

    def test_vertex_count_over_the_limit_is_refused_at_once(self, write, capsys):
        # refused on its line, before the square Cartan rows are built;
        # those of 100000 vertices would hold 10^10 cells
        for size in (4097, 100_000):
            start = time.perf_counter()
            code, out = run(capsys, "validate", write(f"vertices {size}\n"))
            assert time.perf_counter() - start < 1
            assert code == 3
            assert out == f"error: line 1: {size} vertices exceed the limit 4096\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertices 2\nedge 1 2 -1\n", "line 2: directive 'edge' takes 4 arguments"),
            ("vertices 0\n", "line 1: need at least one vertex"),
            ("link 1 2\nvertices 2\n", "line 1: vertices must be declared first"),
            ("vertices 1\nfield\n", "line 2: field needs a kind"),
        ],
    )
    def test_error_line_through_main(self, write, capsys, text, message):
        code, out = run(capsys, "validate", write(text))
        assert code == 3
        assert out == f"error: {message}\n"

    def test_unknown_mode(self):
        with pytest.raises(SemanticError, match="unknown mode"):
            parse("vertices 1\nmode compact\n")

    def test_serialize_normalizes_and_round_trips(self):
        # reversed edge orientation and unsorted pairs come out sorted
        text = (
            "vertices 4\n"
            "edge 2 1 -1 -2\n"
            "edge 4 3 -1 -1\n"
            "link 2 4\n"
            "linkable 3 1\n"
        )
        first = parse(text).serialize()
        assert "edge 1 2 -2 -1" in first
        assert first.index("linkable 1 3") < first.index("link 2 4")
        assert parse(first).serialize() == first


class TestCyclesCommand:
    def test_lists_and_folds_one_enumeration(self, write, capsys, count_calls):
        calls = count_calls(linkdyn.cycles, "enumerate_cycles")
        code, out = run(capsys, "cycles", write(a3_circle(2)))
        assert code == 0
        assert out.splitlines()[0] == "cycles: 1"
        assert out.endswith("genus gcd: 0\n")
        assert len(calls) == 1

    def test_selflink_cycle_lists_both_weights(self, write, capsys):
        # outside finite mode a cycle line carries weight2 and weight3
        text = "vertices 3\nedge 1 2 -1 -1\nedge 2 3 -1 -3\nlink 1 3\nmode selflink\n"
        assert run(capsys, "cycles", write(text)) == (
            0,
            "cycles: 1\n"
            "cycle 1: vertices 1-2-3 steps ppd weight2 0 weight3 1 length 1 genus 4\n"
            "genus gcd: 4\n",
        )


class TestCheckCommand:
    def test_even_circle_yes(self, write, capsys):
        code, out = run(capsys, "check", write(a3_circle(4)))
        assert code == 0
        assert "decision: yes" in out

    def test_odd_circle_no(self, write, capsys):
        code, out = run(capsys, "check", write(a3_circle(3)))
        assert code == 1
        assert "decision: no" in out
        assert "genus gcd: 2" in out

    def test_excluded_case(self, write, capsys):
        code, out = run(capsys, "check", write(G2G2))
        assert code == 2
        assert "decision: excluded" in out


class TestConstructCommand:
    def test_success(self, write, capsys):
        code, out = run(capsys, "construct", write(A1A1))
        assert code == 0
        assert "constructed: root order 5" in out
        assert "verification: ok" in out

    def test_machine_output_is_bare_matrix(self, write, capsys):
        code, out = run(capsys, "construct", write(A1A1), "--machine")
        assert code == 0
        assert out == "root_order 5\nq^1 q^4\nq^1 q^4\n"

    def test_matrix_failing_verify_is_reported(self, write, capsys, monkeypatch):
        bad = BraidingMatrix.from_text(TestNoEntryRecords.BAD)
        monkeypatch.setattr(linkdyn.cli, "construct", lambda *args, **kw: bad)
        assert run(capsys, "construct", write(A1A1)) == (
            1,
            "constructed: root order 5\n"
            + TestNoEntryRecords.BAD
            + "verification: FAILED\n"
            + TestNoEntryRecords.FAILURES,
        )

    def test_refused_diagram_fails(self, write, capsys):
        code, out = run(capsys, "construct", write(a3_circle(3)))
        assert code == 1
        assert out.startswith("failure:")

    def test_explicit_d(self, write, capsys):
        code, out = run(capsys, "construct", write(A1A1), "--d", "7")
        assert code == 0
        assert "root order 7" in out

    def test_inadmissible_explicit_d_is_input_error(self, write, capsys):
        code, out = run(capsys, "construct", write(A1A1), "--d", "4")
        assert code == 3
        assert out.startswith("error:")

    def test_large_prime_d_on_an_affine_diagram(self, write, capsys):
        # 2^61 - 1: the affine order rule tests it for primality
        code, out = run(
            capsys,
            "construct",
            write(A1A1 + "mode affine\n"),
            "--d",
            str(2**61 - 1),
        )
        assert code == 0
        assert "verification: ok" in out

    def test_diagram_not_link_connected_is_input_error(self, write, capsys):
        # construct refuses it before its existence check, whose own
        # message differs
        source = write("vertices 4\nedge 1 2 -1 -1\nedge 3 4 -1 -1\n")
        code, out = run(capsys, "construct", source)
        assert code == 3
        assert out == "error: construct needs a link-connected diagram\n"

    def test_start_flag_is_gone(self, write, capsys):
        code, out = run(capsys, "construct", write(A1A1), "--start", "2")
        assert code == 3
        assert out == ""


class TestVerifyCommand:
    def test_round_trip(self, write, capsys, tmp_path):
        source = write(A1A1)
        _, matrix_text = run(capsys, "construct", source, "--machine")
        matrix = tmp_path / "m.txt"
        matrix.write_text(matrix_text, encoding="utf-8")
        code, out = run(capsys, "verify", source, "--matrix", str(matrix))
        assert code == 0
        assert out == "ok\n"

    def test_tampered_matrix_fails(self, write, capsys, tmp_path):
        source = write(A1A1)
        _, matrix_text = run(capsys, "construct", source, "--machine")
        matrix = tmp_path / "m.txt"
        matrix.write_text(
            matrix_text.replace("q^4", "q^3", 1), encoding="utf-8"
        )
        code, out = run(capsys, "verify", source, "--matrix", str(matrix))
        assert code == 1
        assert "failure:" in out

    def test_cancelling_parameters_are_a_pure_entry(self, write, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        text = "root_order 5\nq^1*z1^1*z1^-1 q^4\nq^1 q^4\n"
        matrix.write_text(text, encoding="utf-8")
        code, out = run(capsys, "verify", write(A1A1), "--matrix", str(matrix))
        assert (code, out) == (0, "ok\n")

    def test_size_mismatch_is_input_error(self, write, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text("root_order 5\nq^1\n", encoding="utf-8")
        code, out = run(capsys, "verify", write(A1A1), "--matrix", str(matrix))
        assert code == 3
        assert "error:" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("hello\n", "missing root_order header"),
            ("root_order\nq^1 q^4\nq^1 q^4\n", "missing root_order header"),
            ("root_order \nq^1 q^4\nq^1 q^4\n", "missing root_order header"),
            ("root_order five\n", "invalid literal for int() with base 10: 'five'"),
            ("root_order 5\nq^1 q^x\nq^1 q^4\n", "bad root expression 'q^x'"),
            ("root_order 5\nq^1 q^4\nq^1\n", "matrix is not square"),
            ("root_order 5\nq^1 q^4\nq^x\n", "bad root expression 'q^x'"),
            ("root_order 0\nq^1 q^4\nq^1 q^4\n", "order must be positive"),
            ("root_order 0\nq^1 q^x\nq^1 q^4\n", "order must be positive"),
            ("root_order 0\nq^x q^4\nq^1 q^4\n", "bad root expression 'q^x'"),
            ("root_order -5\nq^1 q^4\nq^1 q^4\n", "order must be positive"),
            ("root_order -5\nz1^1 q^4\nq^1 q^4\n", "bad root expression 'z1^1'"),
        ],
    )
    def test_malformed_matrix_is_input_error(
        self, write, capsys, tmp_path, text, message
    ):
        matrix = tmp_path / "m.txt"
        matrix.write_text(text, encoding="utf-8")
        code, out = run(capsys, "verify", write(A1A1), "--matrix", str(matrix))
        assert code == 3
        assert out == f"error: {message}\n"


def text_mode_error(path):
    """The `error:` line for what a text-mode open and read of path raises."""
    with pytest.raises((OSError, UnicodeDecodeError)) as info:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    return f"error: {info.value}\n"


class TestInputFiles:
    """Diagram and matrix files read the same with any line ending, and a
    file that cannot be read gives the text-mode open's error."""

    DIAGRAM = "# two A2 components\n" + A2A2.replace("link 1 3", "link 1 3  # first")
    ENDINGS = ("\r\n", "\r")

    def bytes_file(self, tmp_path, name, text, ending):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
        return str(path)

    @pytest.mark.parametrize("ending", ENDINGS, ids=["crlf", "cr"])
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["validate"], DIAGRAM),
            (["check"], DIAGRAM),
            (["construct"], DIAGRAM),
            (["cycles"], a3_circle(2)),
            (["oracle", "--nmax", "12"], DIAGRAM),
            (["check"], "vertices 2\n\n# blank above\nedge 1 2 -1 0\n"),
        ],
    )
    def test_line_endings_give_the_same_stdout(self, tmp_path, capsys, ending, argv, text):
        lf = run(capsys, *argv, self.bytes_file(tmp_path, "lf.dg", text, "\n"))
        other = run(capsys, *argv, self.bytes_file(tmp_path, "x.dg", text, ending))
        assert other == lf

    @pytest.mark.parametrize("ending", ENDINGS, ids=["crlf", "cr"])
    @pytest.mark.parametrize("tamper", [False, True])
    def test_matrix_line_endings_give_the_same_stdout(
        self, write, tmp_path, capsys, ending, tamper
    ):
        source = write(A2A2)
        _, text = run(capsys, "construct", source, "--machine")
        if tamper:
            text = text.replace("q^4", "q^3", 1)
        outs = [
            run(capsys, "verify", source, "--matrix", self.bytes_file(tmp_path, name, text, end))
            for name, end in (("lf.m", "\n"), ("x.m", ending))
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == (1 if tamper else 0)

    def unreadable(self, tmp_path, kind):
        if kind == "directory":
            return str(tmp_path)
        if kind == "missing":
            return str(tmp_path / "missing.dg")
        # a bad byte past the first 8 KiB, where a buffered reader has
        # already decoded a first chunk
        head = "vertices 2\n" + "# padding line of a comment\n" * 800
        assert len(head) > 20_000
        path = tmp_path / "bad.dg"
        path.write_bytes(head.encode("utf-8") + b"link 1 2 # caf\xe9\n")
        return str(path)

    @pytest.mark.parametrize("kind", ["undecodable", "directory", "missing"])
    def test_unreadable_diagram_is_input_error(self, tmp_path, capsys, kind):
        path = self.unreadable(tmp_path, kind)
        assert run(capsys, "check", path) == (3, text_mode_error(path))

    @pytest.mark.parametrize("kind", ["undecodable", "directory", "missing"])
    def test_unreadable_matrix_is_input_error(self, write, tmp_path, capsys, kind):
        path = self.unreadable(tmp_path, kind)
        code, out = run(capsys, "verify", write(A1A1), "--matrix", path)
        assert (code, out) == (3, text_mode_error(path))


class TestOracleCommand:
    def test_finds_matrix(self, write, capsys):
        code, out = run(capsys, "oracle", write(A1A1), "--nmax", "6")
        assert code == 0
        assert "found: root order 5" in out
        assert "root_order 5" in out

    def test_reports_no_matrix(self, write, capsys):
        code, out = run(capsys, "oracle", write(a3_circle(3)), "--nmax", "12")
        assert code == 1
        assert out == "none: no braiding matrix up to root order 12\n"

    def test_scale_exceeded_is_input_error(self, write, capsys, monkeypatch):
        # order 5 answers with 5 diagonals, so a limit of 4 refuses there
        monkeypatch.setattr(linkdyn.braiding, "_Z_LIMIT", 4)
        code, out = run(capsys, "oracle", write(A1A1), "--nmax", "2000010")
        assert code == 3
        assert out == (
            "error: 5 diagonal assignments at 2 vertices; "
            "shrink the diagram or the order bound\n"
        )

    @pytest.mark.parametrize(
        "text, nmax",
        [(A1A1, "2000010"), (B2B2, "2000001")],
        ids=["A1xA1", "B2xB2"],
    )
    def test_bound_past_the_limit_answers_as_a_small_one(
        self, write, capsys, text, nmax
    ):
        # only the order that answers is counted, however large the bound
        path = write(text)
        want = run(capsys, "oracle", path, "--nmax", "30")
        assert want[0] == 0
        assert run(capsys, "oracle", path, "--nmax", nmax) == want

    @pytest.mark.parametrize("nmax", ["-3", "0", "4"])
    def test_order_bound_below_five_is_input_error(self, write, capsys, nmax):
        code, out = run(capsys, "oracle", write(A1A1), "--nmax", nmax)
        assert code == 3
        assert out == ""

    def test_unrecognized_component_is_input_error(self, write, capsys):
        # a_12 = -5 makes the first component no Dynkin type
        path = write("vertices 4\nedge 1 2 -5 -1\nedge 3 4 -1 -1\nlink 1 3\n")
        message = (
            "error: component with vertices 1, 2 is not of a recognized "
            "finite type\n"
        )
        for command in ("check", "construct", "oracle"):
            assert run(capsys, command, path) == (3, message)

    def test_witness_rejected_by_verify_is_internal_error(
        self, write, capsys, monkeypatch
    ):
        # verify stays the final word: a screened witness it rejects
        # is a bug to report, never a candidate to skip
        monkeypatch.setattr(
            linkdyn.braiding,
            "verify",
            lambda *args: linkdyn.braiding.VerificationReport(False, ("forced",)),
        )
        code, out = run(capsys, "oracle", write(A1A1))
        assert code == 4
        assert out.startswith("internal error in oracle: RuntimeError: ")
        assert out.endswith("forced\n")

    def test_workers_flag_is_gone(self, write, capsys):
        code, _ = run(capsys, "oracle", write(A2A2), "--workers", "4")
        assert code == 3


class TestDivisorLimit:
    # q - 1 = 2^61 - 2 is above 10^14, the largest number whose divisors
    # are listed; parsing the field lists none
    BIG_GF = "vertices 2\nlink 1 2\nfield gf 2305843009213693951\n"

    def test_big_field_validates_and_check_is_refused(self, write, capsys):
        path = write(self.BIG_GF)
        code, out = run(capsys, "validate", path)
        assert (code, out) == (0, self.BIG_GF + "mode finite\n")
        code, out = run(capsys, "check", path)
        assert code == 3
        assert out == (
            "error: 2305843009213693950 exceeds the divisor limit "
            "100000000000000\n"
        )

    def test_ring_of_thirty_b3_lists_divisors_of_its_genus_gcd(self, write, capsys):
        ring = DiagramFile(circle("B3", 30), FieldSpec("cyclotomic"))
        code, out = run(capsys, "check", write(ring.serialize()))
        assert code == 0
        assert "genus gcd: 1073741823\n" in out


class TestDefaultOrderFailure:
    @pytest.mark.parametrize("command", ["construct", "realize", "present", "sum"])
    def test_no_admissible_divisor_in_the_field(self, write, capsys, command):
        # the B3 ring of 2 has genus gcd 3, and GF(11) has no root of order 3
        path = write(DiagramFile(circle("B3", 2), FieldSpec("gf", q=11)).serialize())
        code, out = run(capsys, command, path)
        assert code == 1
        assert out == "failure: no admissible root order divides the genus gcd 3\n"


class TestRealizeCommand:
    def test_free_realization(self, write, capsys):
        code, out = run(capsys, "realize", write(A1A1))
        assert code == 0
        assert "realized over Z^2" in out
        assert "lambda 1 2: 1" in out

    def test_finite_realization(self, write, capsys):
        code, out = run(capsys, "realize", write(A1A1), "--p", "5")
        assert code == 0
        assert "realized over (Z/5)^2" in out
        assert "factors 5 5" in out

    def test_finite_realization_instantiates_once(self, write, capsys, monkeypatch):
        calls = []
        instantiate = linkdyn.braiding.BraidingMatrix.instantiate

        def counted(matrix, *args, **kwargs):
            calls.append(args)
            return instantiate(matrix, *args, **kwargs)

        monkeypatch.setattr(linkdyn.braiding.BraidingMatrix, "instantiate", counted)
        code, _ = run(capsys, "realize", write(A2A2), "--p", "5")
        assert code == 0
        assert len(calls) == 1

    def test_incompatible_modulus(self, write, capsys):
        code, out = run(capsys, "realize", write(A1A1), "--p", "7")
        assert code == 1
        assert out.startswith("failure:")
        code, out = run(capsys, "realize", write(A1A1), "--p", "1")
        assert code == 1
        assert out == (
            "failure: entry (1,1) = q^1 has order 5, which does not divide 1\n"
        )

    @pytest.mark.parametrize("modulus", ["0", "-5", "five"])
    def test_modulus_must_be_a_positive_integer(self, write, capsys, modulus):
        code, out = run(capsys, "realize", write(A1A1), "--p", modulus)
        assert code == 3
        assert out == ""


class TestA4Command:
    def test_empty_prime(self, capsys):
        code, out = run(capsys, "a4", "--p", "7")
        assert code == 1
        assert "realizable: no" in out
        assert not any(ln.startswith("tuple ") for ln in out.splitlines())
        assert "not recomputed" in out

    def test_solvable_prime(self, capsys):
        code, out = run(capsys, "a4", "--p", "11")
        assert code == 0
        assert "realizable: yes" in out
        assert sum(1 for ln in out.splitlines() if ln.startswith("tuple ")) == 24

    def test_divergent_prime_is_flagged(self, capsys):
        code, out = run(capsys, "a4", "--p", "13")
        assert code == 1
        assert "disagree" in out

    def test_divergent_prime_solves_once(self, capsys, count_calls):
        # the report lines and the tuple listing share one solution, and
        # both routes share one computation of the magic pairs
        scans = count_calls(linkdyn.realization, "_a4_scan")
        closed = count_calls(linkdyn.realization, "_a4_closed_form")
        magic = count_calls(linkdyn.realization, "magic_pairs")
        code, out = run(capsys, "a4", "--p", "13")
        assert code == 1
        assert "disagree" in out
        assert len(scans) == 1
        assert len(closed) == 1
        assert len(magic) == 1

    def test_stdout_for_primes_to_199(self, capsys):
        # sha256 of exit code and stdout of `a4 --p p` for every prime
        # 5..199 in turn, recorded with the routes computing the magic
        # pairs twice
        digest = hashlib.sha256()
        for p in range(5, 200):
            if all(p % q for q in range(2, p)):
                code, out = run(capsys, "a4", "--p", str(p))
                digest.update(f"{code}\n{out}".encode("utf-8"))
        assert digest.hexdigest() == (
            "2e269bddda8d0e9349444e8107c0fbdb681973057419d999d6444dbfc59ac7d0"
        )

    def test_composite_rejected(self, capsys):
        code, out = run(capsys, "a4", "--p", "6")
        assert code == 3
        assert out.startswith("error:")

    def test_prime_past_the_bound_rejected(self, capsys):
        code, out = run(capsys, "a4", "--p", "100003")
        assert code == 3
        assert out == "error: p = 100003 exceeds the rank-four limit 100000\n"


class TestPresentCommand:
    def test_text_form(self, write, capsys):
        code, out = run(capsys, "present", write(A1A1))
        assert code == 0
        assert "a_1 a_2 - q^4 a_2 a_1 = 1 - h_1*h_2" in out
        assert "delta(a_1) = a_1 (x) 1 + h_1 (x) a_1" in out

    def test_machine_form(self, write, capsys):
        code, out = run(capsys, "present", write(A1A1), "--machine")
        assert code == 0
        assert out.splitlines()[0] == "generators 2 2"

    def test_refused_diagram(self, write, capsys):
        code, out = run(capsys, "present", write(a3_circle(3)))
        assert code == 1
        assert out.startswith("failure:")

    def test_root_order_2_pow_46_presents(self, tmp_path):
        # the B3 ring of 46 has root order 2^46 - 1; the Serre coefficients
        # come from integer rows and the q-Lucas rule, so nothing grows
        # with the root order, and a child limited to 1 GiB of address
        # space and 60 s fails fast if that regresses
        path = tmp_path / "b3ring46.dg"
        path.write_text(DiagramFile(circle("B3", 46), FieldSpec()).serialize())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (LINKDYN_SRC, env.get("PYTHONPATH")))
        )

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        child = subprocess.run(
            [sys.executable, "-m", "linkdyn", "present", str(path)],
            capture_output=True,
            env=env,
            timeout=60,
            preexec_fn=limit_memory,
        )
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout.startswith(b"generators: h_1 h_2 ")
        assert b"\nserre relations:\n" in child.stdout


# sha256 of `present` and `present --machine` stdout on rings whose root
# orders are 5 (A3 ring of 16) and 255, 513, 1023 (B3 rings of 8, 9, 10),
# recorded from the dense cyclotomic reduction that the cofactor zero
# test replaced; the B3 ring of 20 (root order 2^20 - 1) was recorded
# from the cofactor zero test that the q-Lucas rule replaced
PRESENT_SHA256 = {
    ("A3", 16): (
        "36c2475a5d9419441ccc3ff0c0152b07936981c1af545dc0429b01a12148c355",
        "8d76cc0cf46ed49d7b71309afe979659ddc75d7d06a0f8a98a6662bf78eb3226",
    ),
    ("B3", 8): (
        "181fe105b470bfd30c40212c72c88311da426ba4fecc57ad29be2447f6db66b4",
        "d240e3a34579d1955fa93ac4d7800a251d224050e378bd875327be36b2713256",
    ),
    ("B3", 9): (
        "fed458cfa8103005596d16dd2d0ba9a4e4f1362e3ee26d9dbb036c8cf02c70c6",
        "ec3bbf0793a8e1673b4933df0a5e2a1ac2cfb04bfe5e430b8c4b7564af940962",
    ),
    ("B3", 10): (
        "e171951cdd8b2bbfbc48296d586a87c6652145ea5b22b38debae9525a79b6e7b",
        "34be6ce69f065f51282a09279fd47940e9a425947ed56a177b01a31b8b33f002",
    ),
    ("B3", 20): (
        "7e4ac0cf78af68557d21d9afc7a6d60351ff8095f0aeba51cdae733620f93348",
        "e4ceaec46ca1226d733354bd0600efedb10fbcab39c3d339af48513baa7f7564",
    ),
}


def refuse_joined_documents(monkeypatch):
    """Make to_text and to_machine raise, so present must write lines as built."""

    def refuse(pres):
        raise AssertionError("present joined the whole document")

    monkeypatch.setattr(HopfPresentation, "to_text", refuse)
    monkeypatch.setattr(HopfPresentation, "to_machine", refuse)


class TestPresentGolden:
    @pytest.mark.parametrize("label, n", sorted(PRESENT_SHA256))
    def test_stdout_digests(self, write, capsys, monkeypatch, label, n):
        path = write(DiagramFile(circle(label, n), FieldSpec()).serialize())
        refuse_joined_documents(monkeypatch)
        digests = []
        for extra in ((), ("--machine",)):
            code, out = run(capsys, "present", path, *extra)
            assert code == 0
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert tuple(digests) == PRESENT_SHA256[(label, n)]

    def test_streamed_chunks_equal_the_joined_documents(self, write, monkeypatch):
        # the A160 chain presents in 51,365 lines; present writes them a
        # row of relations at a time, each row whole lines
        text = "vertices 160\n" + "".join(
            f"edge {i} {i + 1} -1 -1\n" for i in range(1, 160)
        )
        diagram = parse(text).diagram
        pres = emit_presentation(realize_free(construct(diagram), diagram))
        path = write(text)
        for extra, joined in (
            ((), pres.to_text()),
            (("--machine",), pres.to_machine()),
        ):
            out = WriteRecorder()
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["present", path, *extra]) == 0
            monkeypatch.undo()
            assert "".join(out.writes) == joined
            keys = [{row_key(line) for line in w.splitlines()} - {None} for w in out.writes]
            assert all(w.endswith("\n") for w in out.writes)
            assert all(len(k) == 1 for k in keys), extra
            # the header, the commutators of h_1 .. h_159, the mixed
            # relations of h_1 .. h_160, the Serre relations of a_1 .. a_159
            # and the coproduct: one write each
            assert len(out.writes) == 1 + 159 + 160 + 159 + 1
            assert len({frozenset(k) for k in keys}) == len(keys)


class WriteRecorder:
    """A stdout that keeps each write as it comes."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def row_key(line):
    """The row of the presentation a line belongs to, None for a heading.

    A row is the header, the powers of the factors, the commutators or
    the mixed relations of one h_t, the Serre relations of one a_i with
    the later vertices, or the coproduct.
    """
    words = line.split()
    head = words[0].rstrip(":")
    if line.endswith(" relations:"):
        return None
    if head == "generators":
        return (head,)
    if head == "coproduct" or head.startswith("delta("):
        return ("coproduct",)
    if head in ("group", "mixed", "serre"):  # the machine form: kind, numbers
        if words[1] == "power":
            return ("power",)
        return (head, words[2] if words[1] == "comm" else words[1])
    if words[1] == "=":  # h_t^f = 1
        return ("power",)
    kind = "serre" if head.startswith("a_") else "group" if words[1].startswith("h_") else "mixed"
    return (kind, head.split("^")[0])


# sha256 of `construct --machine`, `realize` and `realize --p <root
# order>` stdout, recorded from the RootExpr-based matrices that the
# exponent grids replaced
MATRIX_SHA256 = {
    ("A3", 16, 5): (
        "6b2a998f1d56aaf1b12e5758bd03a42c18b5bea63f0d97899671934e4e8757b2",
        "89cc489d50defff8299750bd44198c5c1f1f43d67d388c9e388f5252f94cd8d5",
        "b2d02c2b81708d4a18f8183bc22b94c0477602bafed2955ec083e7cbb94a4281",
    ),
    ("B3", 8, 255): (
        "c9042179692b401bd4c822add227b3d0549352d4127e0dfd9995db51324962c8",
        "dc9e89fb02d14311390aae6b58f460fe6a808023d223341c8fe4a8c1c7fc80cd",
        "c1b4f73faa19ebb7564c1d3d193e5b6c1fc6683ab54726ce49138bf0dbed2542",
    ),
    ("B3", 9, 513): (
        "2b901f9b60dc8045b1f62ca1cfa20b5b3bfc5a96fe030108a369ad0dcc68b118",
        "e8e38adaa79baad59dd2c4157078d6f016f4ec6e698dd0ffe30a034183c92487",
        "d4ce45c12f02dec9b537f731cd6883d74ce00b8d8f90bc5fb5bd1bc37fa7b7f6",
    ),
    ("B3", 10, 1023): (
        "c74a62ba42615f4ce4c7ea349e26b19ab224dad682580ac8f887c19b2b38609b",
        "30a8eb932fe1bff1d7a1c355bb3f1cecc0886b2903f137e6cea2f4b6f2d54840",
        "93cc368b027d339de7eb00352e9323db837311871bc0f1ec54a1dd62748a14fc",
    ),
}


class TestMatrixGolden:
    @pytest.mark.parametrize("label, n, order", sorted(MATRIX_SHA256))
    def test_stdout_digests(self, write, capsys, label, n, order):
        path = write(DiagramFile(circle(label, n), FieldSpec()).serialize())
        digests = []
        for argv in (
            ("construct", path, "--machine"),
            ("realize", path),
            ("realize", path, "--p", str(order)),
        ):
            code, out = run(capsys, *argv)
            assert code == 0
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert tuple(digests) == MATRIX_SHA256[(label, n, order)]

    def test_corrupted_entry_failures(self, write, capsys, tmp_path):
        # b_31 of the B3 ring of 8 sits in two product identities and in
        # the linking identities of the dotted pair (1,24) at k = 3
        path = write(DiagramFile(circle("B3", 8), FieldSpec()).serialize())
        _, text = run(capsys, "construct", path, "--machine")
        lines = text.splitlines()
        row = lines[3].split()
        assert row[0] == "q^0*z93^1"
        row[0] = "q^7*z93^2"
        lines[3] = " ".join(row)
        matrix = tmp_path / "bad.matrix"
        matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = run(capsys, "verify", path, "--matrix", str(matrix))
        assert code == 1
        assert out == (
            "failure: product identity fails at (1,3): "
            "b_ij*b_ji = q^7*z93^1, b_ii^a_ij = q^0\n"
            "failure: product identity fails at (3,1): "
            "b_ij*b_ji = q^7*z93^1, b_ii^a_ij = q^0\n"
            "failure: linking identity fails for pair (1,24) at k=3: "
            "got q^7*z93^1\n"
            "failure: linking identity fails for pair (24,1) at k=3: "
            "got q^7*z93^1\n"
        )


class TestSelflinkCommand:
    def test_path_genus(self, write, capsys):
        code, out = run(capsys, "selflink", write(SELFLINK_A4))
        assert code == 0
        assert out == "pair 1 4: genus 2\n"

    def test_neighbouring_pair_order_constraint(self, write, capsys):
        text = "vertices 2\nedge 1 2 -2 -1\nlinkable 1 2\nmode selflink\n"
        code, out = run(capsys, "selflink", write(text))
        assert code == 0
        assert out == "pair 1 2: diagonal order divides 5\n"

    def test_unclassified_path(self, write, capsys):
        text = (
            "vertices 4\n"
            "edge 1 2 -2 -1\n"
            "edge 2 3 -2 -1\n"
            "edge 3 4 -1 -1\n"
            "linkable 1 4\n"
            "mode selflink\n"
        )
        code, out = run(capsys, "selflink", write(text))
        assert code == 0
        assert "pair 1 4: unclassified" in out

    @pytest.mark.parametrize(
        "text, line",
        [
            (
                "vertices 3\nedge 1 2 -2 -2\nedge 2 3 -1 -1\n"
                "linkable 1 3\nmode selflink\n",
                "pair 1 3: unclassified (a1affine edge (1,2) on the path)",
            ),
            (
                "vertices 4\nedge 1 2 -2 -1\nedge 2 3 -2 -1\nedge 3 4 -2 -1\n"
                "linkable 1 4\nmode selflink\n",
                "pair 1 4: unclassified (more than two double edges on the path)",
            ),
        ],
        ids=["a1affine-edge", "three-doubles"],
    )
    def test_unclassified_reason(self, write, capsys, text, line):
        code, out = run(capsys, "selflink", write(text))
        assert code == 0
        assert out == line + "\n"

    def test_no_pairs(self, write, capsys):
        code, out = run(capsys, "selflink", write("vertices 2\nedge 1 2 -1 -1\n"))
        assert code == 0
        assert out == "no self-linked pairs\n"


class TestSumCommand:
    def test_combines_blocks(self, write, capsys):
        code, out = run(capsys, "sum", write(A1A1), write(A2A2))
        assert code == 0
        assert "combined: root order 5, 6 vertices" in out

    def test_machine_output(self, write, capsys):
        code, out = run(capsys, "sum", write(A1A1), write(A2A2), "--machine")
        assert code == 0
        assert out.splitlines()[0] == "root_order 5"
        assert len(out.splitlines()) == 7

    # A2 x A1 linked at 2-3 leaves vertex 1 free
    A2A1 = "vertices 3\nedge 1 2 -1 -1\nlink 2 3\n"
    A1A1_ROOTS_7 = A1A1 + "field roots 7\n"
    # exact stdout of sums: a free vertex against a dotted edge, root
    # orders 5 and 7 rebased to 35, and a part construct refuses
    GOLDEN = [
        (
            (A1A1, A2A1),
            ("--machine",),
            0,
            "root_order 5\n"
            "q^1 q^4 q^0*z2^-1 q^0*z3^-1 q^0*z3^1\n"
            "q^1 q^4 q^0*z2^1 q^0*z3^1 q^0*z3^-1\n"
            "q^0*z2^1 q^0*z2^-1 q^1 q^0*z1^1 q^0*z1^-1\n"
            "q^0*z3^1 q^0*z3^-1 q^4*z1^-1 q^1 q^4\n"
            "q^0*z3^-1 q^0*z3^1 q^0*z1^1 q^1 q^4\n",
        ),
        (
            (A2A1, A1A1_ROOTS_7),
            (),
            0,
            "combined: root order 35, 5 vertices\n"
            "root_order 35\n"
            "q^7 q^0*z1^1 q^0*z1^-1 q^0*z2^-1 q^0*z2^1\n"
            "q^28*z1^-1 q^7 q^28 q^0*z3^-1 q^0*z3^1\n"
            "q^0*z1^1 q^7 q^28 q^0*z3^1 q^0*z3^-1\n"
            "q^0*z2^1 q^0*z3^1 q^0*z3^-1 q^5 q^30\n"
            "q^0*z2^-1 q^0*z3^-1 q^0*z3^1 q^5 q^30\n",
        ),
        (
            (A1A1, G2G2),
            (),
            1,
            "failure: existence check says excluded: "
            "the crosswise G2 x G2 shape is decided by the special matrix family\n",
        ),
    ]

    @pytest.mark.parametrize("texts, flags, code, out", GOLDEN)
    def test_stdout_golden(self, write, capsys, texts, flags, code, out):
        files = [write(text) for text in texts]
        assert run(capsys, "sum", *files, *flags) == (code, out)


class TestNoEntryRecords:
    """Commands compute and print from the exponent grid alone."""

    # b_11 holds z1, b_12 b_21 = q^4 against b_ii^0 = 1, and row 1 of
    # both linking identities gives q^4*z1: every identity kind fails
    BAD = "root_order 5\nq^1*z1^1 q^3\nq^1 q^4\n"
    FAILURES = (
        "failure: diagonal b_11 = q^1*z1^1 contains a free parameter\n"
        "failure: product identity fails at (1,2): b_ij*b_ji = q^4, b_ii^a_ij = q^0\n"
        "failure: product identity fails at (2,1): b_ij*b_ji = q^4, b_ii^a_ij = q^0\n"
        "failure: linking identity fails for pair (1,2) at k=1: got q^4*z1^1\n"
        "failure: linking identity fails for pair (2,1) at k=1: got q^4*z1^1\n"
    )

    def test_no_root_expr_is_built(self, write, capsys, monkeypatch, tmp_path):
        created = []
        post_init = linkdyn.braiding.RootExpr.__post_init__

        def counted(value):
            created.append(value)
            post_init(value)

        monkeypatch.setattr(linkdyn.braiding.RootExpr, "__post_init__", counted)
        ring, pair = write(a3_circle(2)), write(A1A1)
        bad = tmp_path / "bad.m"
        bad.write_text(self.BAD, encoding="utf-8")
        for argv in (
            ["check", ring],
            ["construct", ring],
            ["oracle", ring],
            ["present", ring],
            ["sum", ring, pair],
            ["a4", "--p", "11"],
        ):
            assert run(capsys, *argv)[0] == 0, argv
        assert run(capsys, "verify", pair, "--matrix", str(bad)) == (1, self.FAILURES)
        # every entry of the pair's matrix has order 5
        assert run(capsys, "realize", pair, "--p", "7") == (
            1,
            "failure: entry (1,1) = q^1 has order 5, which does not divide 7\n",
        )
        assert created == []


class TestValidateCommand:
    def test_idempotent_normal_form(self, write, capsys):
        code, out = run(capsys, "validate", write("vertices 2\nedge 2 1 -1 -1\n"))
        assert code == 0
        code2, out2 = run(capsys, "validate", write(out))
        assert code2 == 0
        assert out2 == out

    def test_roots_field_normal_form(self, write, capsys):
        text = "vertices 2\nlink 1 2\nfield roots 7,5\n"
        assert run(capsys, "validate", write(text)) == (
            0,
            "vertices 2\nlink 1 2\nfield roots 5,7\nmode finite\n",
        )


class TestDispatchErrors:
    def test_missing_file(self, capsys):
        code, out = run(capsys, "check", "/does/not/exist.dg")
        assert code == 3
        assert out.startswith("error:")

    def test_syntax_error_carries_line(self, write, capsys):
        code, out = run(capsys, "check", write("vertices 2\nedge 1 2 -1 0\n"))
        assert code == 3
        assert "line 2" in out

    @pytest.mark.parametrize(
        "command, message",
        [
            ("check", "existence checks require standard linking mode"),
            ("construct", "construction requires standard linking mode"),
            ("oracle", "the brute-force search requires standard linking mode"),
        ],
    )
    def test_selflink_mode_is_input_error(self, write, capsys, command, message):
        code, out = run(capsys, command, write(SELFLINK_A4))
        assert code == 3
        assert out == f"error: {message}\n"

    def test_undecodable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.dg"
        path.write_bytes(b"vertices 2\n# caf\xe9\n")
        code, out = run(capsys, "check", str(path))
        assert code == 3
        assert out.startswith("error:")

    @pytest.mark.parametrize(
        "error, code, out",
        [
            pytest.param(error, code, out, id=type(error).__name__)
            for error, code, out in [
                (ValueError("boom"), 4, "internal error in selflink: ValueError: boom\n"),
                (NotPrime("x"), 3, "error: x\n"),
                (InadmissibleD("x"), 3, "error: x\n"),
                (OrderMismatch("x"), 1, "failure: x\n"),
                (NoAdmissibleOrder("x"), 1, "failure: x\n"),
                (
                    PathInconsistency("x"),
                    4,
                    "internal error in selflink: PathInconsistency: x\n",
                ),
            ]
        ],
    )
    def test_error_class_decides_exit_code(
        self, write, capsys, monkeypatch, error, code, out
    ):
        def boom(args):
            raise error

        monkeypatch.setattr(linkdyn.cli, "_cmd_selflink", boom)
        assert main(["selflink", write(SELFLINK_A4)]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        if code == 4:
            assert captured.err.startswith("Traceback")
        else:
            assert captured.err == ""

    def test_every_error_has_an_outcome(self):
        bases = {LinkdynError, InputError, DefiniteNo}
        bugs = {UnclassifiedPath}
        classes = [
            value
            for value in vars(linkdyn.errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert NoAdmissibleOrder in classes
        for cls in classes:
            outcomes = issubclass(cls, InputError), issubclass(cls, DefiniteNo)
            if cls in bases | bugs:
                continue
            if cls is NoAdmissibleOrder:
                assert outcomes == (True, True)
            else:
                assert sum(outcomes) == 1, cls.__name__

    def present_into_closed_pipe(self, tmp_path, unbuffered):
        # prism(8) presents to about 320 KB, far over a 64 KiB pipe
        # buffer, so the child is still writing when the pipe closes
        path = tmp_path / "prism8.dg"
        path.write_text(DiagramFile(prism(8), FieldSpec("cyclotomic")).serialize())
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)  # buffering decides where EPIPE shows
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (LINKDYN_SRC, env.get("PYTHONPATH")))
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "linkdyn", "present", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert child.stdout.readline().startswith(b"generators: ")
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        return child.returncode, err

    def test_closed_stdout_exits_quietly(self, tmp_path):
        assert self.present_into_closed_pipe(tmp_path, unbuffered=False) == (141, b"")

    def test_closed_stdout_exits_quietly_when_unbuffered(self, tmp_path):
        # an unbuffered text layer drops what a short raw write leaves
        # over, so without a buffered layer the child would exit 0
        assert self.present_into_closed_pipe(tmp_path, unbuffered=True) == (141, b"")

    def test_unbuffered_stdout_is_restored_and_left_open(
        self, write, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.txt"
        raw = open(path, "wb", buffering=0)
        unbuffered = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", unbuffered)
        assert main(["construct", write(A1A1), "--machine"]) == 0
        assert sys.stdout is unbuffered and not raw.closed
        unbuffered.close()
        assert path.read_text() == "root_order 5\nq^1 q^4\nq^1 q^4\n"

    def test_path_inconsistency_is_internal_error(
        self, write, capsys, monkeypatch
    ):
        def inconsistent(*args, **kwargs):
            raise PathInconsistency("two paths disagree")

        monkeypatch.setattr(linkdyn.cli, "construct", inconsistent)
        code, out = run(capsys, "construct", write(A1A1))
        assert code == 4
        assert out == (
            "internal error in construct: PathInconsistency: "
            "two paths disagree\n"
        )

    def test_usage_errors(self, capsys):
        assert main([]) == 3
        assert main(["bogus"]) == 3
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestDeterminism:
    def test_repeat_runs_match(self, write, capsys):
        source = write(a3_circle(2))
        outs = set()
        for _ in range(2):
            code, out = run(capsys, "check", source)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_subprocess_runs_match(self, write, capsys):
        source = write(A2A2)
        # different hash seeds expose any set or dict order in output
        runs = [
            run_cli("construct", source, "--machine", hash_seed=seed)
            for seed in (0, 1)
        ]
        for proc in runs:
            assert proc.returncode == 0, proc
        results = [proc.stdout for proc in runs]
        assert results[0] == results[1]
        assert results[0].startswith(b"root_order 5")
        # python -m linkdyn prints what the in-process entry point prints
        code, out = run(capsys, "construct", source, "--machine")
        assert code == 0
        assert results[0] == out.encode()
