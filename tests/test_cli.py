import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import logmono.cli
import logmono.principalize
from logmono.cli import build_parser, main
from logmono.frontend import parse_problem

import cli_corpus

EXAMPLE1 = """\
source vars u1 u2 v1 divisor u1 u2
target vars x1 y1 divisor x1
map x1 = (u1*u2)^2
map y1 = u1*u2 + u1^3*u2^3*v1
point 0,0,0
"""

EXAMPLE3 = """\
source vars u1 u2 u3 divisor u1 u2 u3
target vars x1 x2 divisor x1 x2
map x1 = u1*u2^2
map x2 = u2^3*u3^4
point 0,0,0
"""

NOT_QP = """\
source vars u v divisor u
target vars x y divisor x
map x = u^2
map y = v^2
point 0,0
"""

# Divisor and free variables interleaved in chart order, so the log basis
# order (divisor block first) differs from the chart order.
INTERLEAVED = """\
source vars v u w divisor u w
target vars x y divisor x
map x = u^2*w^3
map y = v*u + 3*v^2*w - u*w^2
"""


@pytest.fixture
def example1(tmp_path):
    path = tmp_path / "example1.problem"
    path.write_text(EXAMPLE1)
    return str(path)


@pytest.fixture
def example3(tmp_path):
    path = tmp_path / "example3.problem"
    path.write_text(EXAMPLE3)
    return str(path)


@pytest.fixture
def not_qp(tmp_path):
    path = tmp_path / "not_qp.problem"
    path.write_text(NOT_QP)
    return str(path)


@pytest.fixture
def interleaved(tmp_path):
    path = tmp_path / "interleaved.problem"
    path.write_text(INTERLEAVED)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


def count_calls(monkeypatch, name):
    """Record the arguments of every call of logmono.ideal's function
    ``name``, patched in every logmono module that imported it by name."""
    import logmono.ideal

    calls = []
    original = getattr(logmono.ideal, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("logmono") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestFitting:
    def test_example1_top_fitting(self, capsys, example1):
        code, data = run_json(capsys, "fitting", "--k", "2", example1)
        assert code == 0
        assert data["groebner_basis"] == ["u1^3*u2^3"]

    def test_example3_unit_fitting(self, capsys, example3):
        code, data = run_json(capsys, "fitting", "--k", "2", example3)
        assert code == 0
        assert data["groebner_basis"] == ["1"]

    def test_text_output_shape(self, capsys, example1):
        code, out, _ = run(capsys, "fitting", "--k", "2", example1)
        assert code == 0
        assert out.startswith("command: fitting\n")
        assert "groebner_basis: u1^3*u2^3" in out


class TestRanks:
    def test_logrank_at_origin(self, capsys, example1):
        code, data = run_json(capsys, "logrank", example1)
        assert code == 0 and data["logrank"] == 1

    def test_logrank_at_override_point(self, capsys, example1):
        code, data = run_json(capsys, "logrank", "--at", "1,1,1", example1)
        assert code == 0 and data["logrank"] == 2

    def test_rank_and_grk(self, capsys, example1):
        code, data = run_json(capsys, "rank", example1)
        assert code == 0 and data["rank"] == 0
        code, data = run_json(capsys, "grk", example1)
        assert code == 0 and data["geometric_rank"] == 2

    def test_imagedim(self, capsys, example1):
        code, data = run_json(capsys, "imagedim", example1)
        assert code == 0 and data["image_dimension"] == 2


class TestClassify:
    def test_example1_report(self, capsys, example1):
        code, data = run_json(capsys, "classify", example1)
        assert code == 0
        assert data["pair_condition"] is True
        assert data["quasi_prepared"] is True
        assert data["strongly_prepared_at_point"] is True
        assert data["principal_monomial"] == "u1^3*u2^3"
        assert data["normal_form_case"] == 1

    def test_example3_monomial(self, capsys, example3):
        code, data = run_json(capsys, "classify", example3)
        assert code == 0
        assert data["normal_form_case"] == 3
        assert data["monomial_at_point"] is True

    def test_rejection_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.problem"
        path.write_text(NOT_QP)
        code, data = run_json(capsys, "classify", str(path))
        assert code == 1
        assert data["quasi_prepared"] is False

    def test_large_exponent_is_fast(self, capsys, tmp_path, monkeypatch):
        # The pair condition fails, so the preimage test settles the verdict
        # and no basis is built for the Jacobian minors 3000*u^2999*v and
        # u^3000.
        bases = count_calls(monkeypatch, "reduced_groebner_basis")
        path = tmp_path / "power.problem"
        path.write_text(
            "source vars u v divisor u\n"
            "target vars x divisor x\n"
            "map x = u^3000*v\n"
            "point 0,0\n"
        )
        start = time.perf_counter()
        code, data = run_json(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert data["pair_condition"] is False
        assert data["quasi_prepared"] is False
        assert data["diagnostics"] == [
            "pullback of 'x' vanishes outside the source divisor: u^3000*v",
            "divisor preimage does not equal the source divisor",
        ]
        assert bases == []

    @pytest.mark.parametrize(
        "component, rendered",
        [
            pytest.param(c, r, id=c)
            for c, r in [
                ("7*u^1000*v - 3*v^3 + 2*v^2", "7*u^1000*v - 3*v^3 + 2*v^2"),
                (
                    "7*u^100*v - 3*v^3 + 2*v^2 + 5*u*v^2",
                    "7*u^100*v + 5*u*v^2 - 3*v^3 + 2*v^2",
                ),
                (
                    "7*u^2000*v - 3*v^3 + 2*v^2 + 5*u*v^2",
                    "7*u^2000*v + 5*u*v^2 - 3*v^3 + 2*v^2",
                ),
            ]
        ],
    )
    def test_large_exponent_with_non_unit_coefficients_is_fast(
        self, capsys, tmp_path, monkeypatch, component, rendered
    ):
        # The pair condition fails, so the preimage test settles the verdict
        # and the Jacobian minors, whose radical test builds a basis of
        # about 1000 elements or of fast-growing coefficients, are never
        # examined.  tests/test_ideal.py times that radical test itself.
        bases = count_calls(monkeypatch, "reduced_groebner_basis")
        path = tmp_path / "power.problem"
        path.write_text(
            "source vars u v divisor u\n"
            "target vars x divisor x\n"
            f"map x = {component}\n"
            "point 0,0\n"
        )
        start = time.perf_counter()
        code, data = run_json(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert data["pair_condition"] is False
        assert data["quasi_prepared"] is False
        assert data["diagnostics"] == [
            f"pullback of 'x' vanishes outside the source divisor: {rendered}",
            "divisor preimage does not equal the source divisor",
        ]
        assert bases == []

    def test_empty_target_divisor_large_exponent_is_fast(
        self, capsys, tmp_path, monkeypatch
    ):
        # With no target divisor the pair condition holds, but the preimage
        # of the empty divisor misses u = 0, so again no basis is built.
        bases = count_calls(monkeypatch, "reduced_groebner_basis")
        path = tmp_path / "power.problem"
        path.write_text(
            "source vars u v divisor u\n"
            "target vars x divisor\n"
            "map x = 7*u^2000*v - 3*v^3 + 2*v^2 + 5*u*v^2\n"
            "point 0,0\n"
        )
        start = time.perf_counter()
        code, data = run_json(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert data["pair_condition"] is True
        assert data["quasi_prepared"] is False
        assert data["diagnostics"] == ["divisor preimage does not equal the source divisor"]
        assert bases == []

    def test_verify_monomial(self, capsys, example3):
        code, data = run_json(capsys, "verify-monomial", example3)
        assert code == 0
        assert data["exponent_matrix"] == [[1, 2, 0], [0, 3, 4]]


class TestLogRankAdapted:
    # The first is the accepted case of test_classify.py written as a file;
    # the second also passes the stratum check of its level-1 filtration.
    ACCEPTED = [
        "source vars v1 u1 u2 divisor u1 u2\ntarget vars y1 x1 divisor x1\n"
        "map y1 = v1\nmap x1 = u1*u2\npoint 1,0,0\nfiltration 1:\ntargetideal x1\n",
        "source vars u1 v1 divisor u1\ntarget vars x1 y1 divisor x1\n"
        "map x1 = u1\nmap y1 = u1*v1\npoint 0,0\nfiltration 1: u1\ntargetideal x1\n",
    ]
    V2_DROP = (
        "source vars u1 v1 v2 divisor u1\ntarget vars x1 y1 divisor\n"
        "map x1 = u1^2*v2 - 3\nmap y1 = -3*u1*v1*v2 + 2*v2^2\npoint 0,0,0\n"
        "filtration 1: u1\ntargetideal x1\n"
    )

    @pytest.mark.parametrize("text", ACCEPTED)
    def test_accepted_exit_0(self, capsys, tmp_path, text):
        path = tmp_path / "adapted.problem"
        path.write_text(text)
        code, data = run_json(capsys, "lradapted", str(path))
        assert code == 0
        assert data == {"command": "lradapted", "ok": True, "log_rank_adapted": True}

    def test_drop_on_free_variable_exit_1(self, capsys, tmp_path):
        path = tmp_path / "drop.problem"
        path.write_text(self.V2_DROP)
        code, data = run_json(capsys, "lradapted", str(path))
        assert code == 1 and data["log_rank_adapted"] is False
        assert data["diagnostics"] == [
            "component 1 is not a monomial in divisor variables",
            "log-rank drops below 1 on the stratum of u1 at level 1, "
            "where the 1-minors at u1 = 0 vanish: (4*v2)",
        ]

    def test_seed_flag_is_gone(self, capsys, tmp_path):
        path = tmp_path / "drop.problem"
        path.write_text(self.V2_DROP)
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "0", "lradapted", str(path)])
        assert exc.value.code == 2
        assert not capsys.readouterr().out


class TestBlowupCommands:
    def test_blowup_charts(self, capsys, example1):
        code, data = run_json(capsys, "blowup", "--center", "u1,u2", example1)
        assert code == 0
        assert data["chart_u1_map_x1"] == "u1^4*u2^2"
        assert data["chart_u2_map_x1"] == "u1^2*u2^4"

    def test_principalize_example1(self, capsys, example1):
        code, data = run_json(capsys, "principalize", example1)
        assert code == 0
        assert data["blowup_steps"] == 0
        assert data["leaf_0_principal_generator"] == "u1^3*u2^3"

    def test_monomialize_example3(self, capsys, example3):
        code, data = run_json(capsys, "monomialize", example3)
        assert code == 0
        assert data["leaf_count"] == 1

    def test_monomialize_rejects_non_monomial(self, capsys, example1):
        code, _, err = run(capsys, "monomialize", example1)
        assert code == 2
        assert "monomial" in err

    # Principalizing (v^600 + w) * u takes 600 blowups along one branch.
    DEEP = """\
source vars u v w divisor u v w
target vars x y divisor x
map x = u
map y = v^600 + w
"""

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["--max-depth", "1000"], 0, "depth: 600\n"),
            ([], 2, "error: blowup depth exceeded 64\n"),
        ],
        ids=["max-depth-1000", "default-max-depth"],
    )
    def test_deep_tree_depth(self, capsys, tmp_path, argv, code, line):
        # The tree's depth is read without recursion, so a tree deeper
        # than the interpreter's recursion limit still reports.
        path = tmp_path / "deep.problem"
        path.write_text(self.DEEP)
        got, out, err = run(capsys, *argv, "principalize", str(path))
        assert got == code
        assert line in (out if code == 0 else err)


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fitting", "--k", "2", "/nonexistent.problem")
        assert code == 2 and err.startswith("error:")

    def test_non_utf8_byte_exits_2_with_the_codec_message(self, capsys, tmp_path):
        # The byte sits past the first 8 KiB: its position is in the file.
        head = (EXAMPLE1 + "#" * 9000 + "\n").encode()
        path = tmp_path / "latin1.problem"
        path.write_bytes(head + b"# caf\xe9\n")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: 'utf-8' codec can't decode byte 0xe9 in position {len(head) + 5}: "
            "invalid continuation byte\n"
        )

    @pytest.mark.parametrize("name", ["missing.problem", "."])
    def test_unreadable_path_exits_2_with_the_os_error(self, capsys, tmp_path, name):
        path = str(tmp_path / name)
        with pytest.raises(OSError) as e:
            open(path, "rb")
        assert run(capsys, "classify", path) == (2, "", f"error: {e.value}\n")

    @pytest.mark.parametrize(
        "argv", [["classify"], ["--json", "classify"], ["fitting", "--k", "2"], ["grk"]]
    )
    @pytest.mark.parametrize("extra", ["", "map x1 = u1\n"])
    def test_crlf_file_prints_what_its_lf_twin_prints(self, capsys, tmp_path, argv, extra):
        # With a repeated map line the twins fail alike, at the same line.
        text = EXAMPLE1 + extra
        lf, crlf = tmp_path / "lf.problem", tmp_path / "crlf.problem"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        got = run(capsys, *argv, str(crlf))
        assert got == run(capsys, *argv, str(lf))
        assert got[0] == (2 if extra else 0)

    def test_empty_file_is_missing_its_source(self, capsys, tmp_path):
        path = tmp_path / "empty.problem"
        path.write_bytes(b"")
        assert run(capsys, "classify", str(path)) == (
            2,
            "",
            "error: line 1, column 1: missing source declaration\n",
        )

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.problem"
        path.write_text("source vars u divisor u\n")
        code, _, err = run(capsys, "grk", str(path))
        assert code == 2 and "missing target" in err

    @pytest.mark.parametrize(
        "expression, column", [("٣*v", 1), ("v + ٣", 5), ("v^٣", 3)]
    )
    @pytest.mark.parametrize("command", ["grk", "classify"])
    def test_literal_digits_are_ascii(self, capsys, tmp_path, command, expression, column):
        # U+0663 is ARABIC-INDIC DIGIT THREE, which int() reads as 3.  A
        # literal's digits are ASCII, as in a point coordinate.
        path = tmp_path / "digit.problem"
        path.write_text(NOT_QP.replace("map y = v^2", f"map y = {expression}"))
        assert run(capsys, command, str(path)) == (
            2, "", f"error: line 4, column {column}: unexpected character '٣'\n"
        )

    @pytest.mark.parametrize(
        "point, message",
        [
            ("1/0,0,0", "bad rational '1/0'"),
            ("0,a,0", "bad rational 'a'"),
            ("0,0,1.5.2", "bad rational '1.5.2'"),
            # Only signed ASCII integers and <int>/<int>: no decimal,
            # exponent, underscore or other script's digit.
            ("0,0,1e3", "bad rational '1e3'"),
            ("0.5,0,0", "bad rational '0.5'"),
            ("0,\u0663,0", "bad rational '\u0663'"),
            ("1_0,0,0", "bad rational '1_0'"),
            ("0,-1/-2,0", "bad rational '-1/-2'"),
            ("0,0", "point has 2 coordinates for 3 variables"),
            ("0,0,0,0", "point has 4 coordinates for 3 variables"),
        ],
    )
    def test_at_and_point_line_share_messages(self, capsys, tmp_path, example1, point, message):
        path = tmp_path / "point.problem"
        path.write_text(EXAMPLE1.replace("point 0,0,0", f"point {point}"))
        assert run(capsys, "logrank", "--at", point, example1) == (2, "", f"error: {message}\n")
        assert run(capsys, "logrank", str(path)) == (2, "", f"error: line 5, column 1: {message}\n")

    @pytest.mark.parametrize("command", ["logrank", "rank", "verify-monomial", "lradapted"])
    def test_empty_at_is_refused(self, capsys, tmp_path, command):
        # An empty --at is a bad point, not a missing one: the file's point
        # is not used instead.
        path = tmp_path / "adapted.problem"
        path.write_text(EXAMPLE1 + "filtration 1: u1\ntargetideal x1\n")
        assert run(capsys, command, "--at", "", str(path)) == (2, "", "error: bad rational ''\n")

    @pytest.mark.parametrize("point", ["1,1,1", "1/2,-3,0", "2 , 0,3/1", "+1,-0,007/14"])
    @pytest.mark.parametrize("command", ["logrank", "rank", "verify-monomial"])
    def test_at_and_point_line_give_equal_reports(self, capsys, tmp_path, example1, command, point):
        path = tmp_path / "point.problem"
        path.write_text(EXAMPLE1.replace("point 0,0,0", f"point {point}"))
        assert run(capsys, command, "--at", point, example1) == run(capsys, command, str(path))

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["logrank", "rank", "lradapted", "verify-monomial"])
    def test_negative_at_value_follows_its_option(self, capsys, tmp_path, command, fmt):
        # A value that starts with "-" is the option's value, in either
        # spelling; argparse refused "--at -1,0" ("expected one argument").
        path = tmp_path / "negative.problem"
        path.write_text(TestLogRankAdapted.ACCEPTED[1])
        spaced = run(capsys, *fmt, command, "--at", "-1,0", str(path))
        assert spaced == run(capsys, *fmt, command, "--at=-1,0", str(path))
        assert spaced[0] in (0, 1) and spaced[2] == ""
        if command in ("logrank", "rank"):
            assert "-1" in spaced[1]

    def test_missing_point(self, capsys, tmp_path):
        path = tmp_path / "nopoint.problem"
        path.write_text(
            "source vars u divisor u\ntarget vars x divisor x\nmap x = u\n"
        )
        code, _, err = run(capsys, "logrank", str(path))
        assert code == 2 and "point" in err

    def test_deep_nesting_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.problem"
        path.write_text(EXAMPLE1.replace("(u1*u2)", "(" * 5000 + "u1*u2" + ")" * 5000))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert "line 3" in err and "nested deeper than" in err

    def test_term_budget_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.problem"
        path.write_text(NOT_QP.replace("map y = v^2", "map y = (u+v+1)^400"))
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert "line 4" in err and "budget of MAX_TERMS" in err

    @pytest.mark.parametrize(
        "expr", ["3^4000000*u", "(" + "7" * 1000 + "*u + 1)^100"]
    )
    def test_coefficient_budget_exit_2(self, capsys, tmp_path, expr):
        path = tmp_path / "huge.problem"
        path.write_text(NOT_QP.replace("map y = v^2", f"map y = {expr}"))
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and not out
        assert "line 4" in err and "budget of MAX_COEFFICIENT_BITS" in err

    @pytest.mark.parametrize("expr", ["1/0", "u1/2"])
    def test_bad_rational_literal_exit_2(self, capsys, tmp_path, expr):
        path = tmp_path / "rational.problem"
        path.write_text(EXAMPLE1.replace("(u1*u2)^2", expr))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert err.startswith("error: line 3, column ")

    def test_rational_coefficients_round_trip(self, capsys, tmp_path):
        path = tmp_path / "rational.problem"
        path.write_text(EXAMPLE1.replace("u1*u2 + ", "1/2*u1*u2 + 3/2*"))
        code, data = run_json(capsys, "fitting", "--k", "1", str(path))
        assert code == 0
        path.write_text(parse_problem(path.read_text()).render())
        assert run_json(capsys, "fitting", "--k", "1", str(path)) == (code, data)

    @pytest.mark.parametrize("command", ["classify", "quasiprepared"])
    def test_curve_to_surface_exit_2(self, capsys, tmp_path, command):
        # The dimension check runs before any Fitting ideal is formed, whose
        # own error ("form degree 2 out of range 1..1") would hide it.
        path = tmp_path / "curve.problem"
        path.write_text(
            "source vars u divisor u\ntarget vars x y divisor\n"
            "map x = u\nmap y = u^2\npoint 0\n"
        )
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and not out
        assert err == "error: source dimension below target dimension\n"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("point 0,0,0\n", "point 0,0,0\npoint 1,1,1\n"),
            ("divisor u1 u2\n", "divisor u1 u2 u2\n"),
            ("divisor x1\n", "divisor x1 x1\n"),
        ],
    )
    def test_repeated_line_or_divisor_name_exit_2(self, capsys, tmp_path, old, new):
        path = tmp_path / "repeated.problem"
        path.write_text(EXAMPLE1.replace(old, new))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert err.startswith("error: line ") and "duplicate" in err

    @pytest.mark.parametrize("name", ["u-1", "2u"])
    def test_chart_name_not_an_identifier_exit_2(self, capsys, tmp_path, name):
        # No expression can reference such a name: u-1 reads as u minus 1.
        path = tmp_path / "name.problem"
        path.write_text(f"source vars {name} v divisor v\ntarget vars x divisor\nmap x = v\n")
        code, out, err = run(capsys, "grk", str(path))
        assert code == 2 and not out
        assert err == f"error: line 1, column 1: variable name {name!r} is not an identifier\n"

    @pytest.mark.parametrize(
        "lines, line, message",
        [
            ("filtration one: u1\n", 6, "filtration level must be an integer"),
            ("filtration 1 u1\n", 6, "expected ':' in filtration line"),
            ("filtration 1: u1 u2\nfiltration 3: u1\n", 7,
             "filtration levels must be 1-based and consecutive"),
            ("filtration 1: u1 v1\n", 6, "filtration variable 'v1' is not a source divisor variable"),
            ("filtration 1: u1\nfiltration 2: u2\n", 7, "filtration levels are not nested"),
            # Levels are matched by number, not by line: level 2 comes first.
            ("filtration 2: u1 u2\nfiltration 1: u1\n", 6, "filtration levels are not nested"),
        ],
    )
    def test_filtration_errors_name_their_line(self, capsys, tmp_path, lines, line, message):
        path = tmp_path / "filtration.problem"
        path.write_text(EXAMPLE1 + lines + "targetideal x1\n")
        assert run(capsys, "lradapted", str(path)) == (
            2, "", f"error: line {line}, column 1: {message}\n"
        )

    def test_bad_center(self, capsys, example1):
        code, _, err = run(capsys, "blowup", "--center", "u1", example1)
        assert code == 2

    def test_lradapted_requires_sections(self, capsys, example1, tmp_path):
        code, _, err = run(capsys, "lradapted", example1)
        assert code == 2 and "filtration" in err
        path = tmp_path / "no_ideal.problem"
        path.write_text(EXAMPLE1 + "filtration 1: u1\n")
        assert run(capsys, "lradapted", str(path)) == (
            2, "", "error: lradapted needs a targetideal in the problem file\n"
        )


def test_classify_decides_quasi_prepared_once(capsys, example1, monkeypatch):
    bases = count_calls(monkeypatch, "_minimal_records")
    code, _, _ = run(capsys, "classify", example1)
    assert code == 0
    # A generator of the top log-Fitting ideal is a monomial on the divisor,
    # so the singular-locus radical test needs no Groebner basis; the pair
    # and preimage checks use no ideal.
    assert len(bases) == 0


def test_monomial_top_fitting_ideal_needs_no_basis(capsys, tmp_path, monkeypatch):
    # F_2 = (-4*u1^3*u2^2*v1^2, 2*u1^3*u2^2*v1): every generator is a single
    # term and each involves v1, off the divisor, so u1*u2 is not in its
    # radical, read off the supports with no basis.
    bases = count_calls(monkeypatch, "_minimal_records")
    path = tmp_path / "v1sq.problem"
    path.write_text(
        "source vars u1 u2 v1 divisor u1 u2\n"
        "target vars x1 y1 divisor x1\n"
        "map x1 = u1*u2^2\n"
        "map y1 = u1^3*u2^2*v1^2 - 2*u1*u2^2\n"
        "point 0,0,0\n"
    )
    code, data = run_json(capsys, "classify", str(path))
    assert code == 1
    assert data["pair_condition"] is True
    assert data["quasi_prepared"] is False
    assert data["diagnostics"] == ["singular locus not contained in the divisor"]
    assert bases == []


def test_reports_are_deterministic(capsys, example1):
    _, first = run_json(capsys, "classify", example1)
    _, second = run_json(capsys, "classify", example1)
    assert first == second


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("example1", "fitting --k 2"),
        ("example1", "logrank"),
        ("example1", "rank"),
        ("example1", "grk"),
        ("example1", "imagedim"),
        ("example1", "classify"),
        ("not_qp", "classify"),
        ("example1", "quasiprepared"),
        ("not_qp", "quasiprepared"),
        ("example1", "blowup --center u1,u2"),
        ("example1", "principalize"),
        ("example3", "monomialize"),
        ("example3", "verify-monomial"),
        ("example1", "verify-monomial"),
    ],
)
def test_exit_code_follows_json_ok(capsys, request, fixture, argv):
    code, data = run_json(capsys, *argv.split(), request.getfixturevalue(fixture))
    assert code in (0, 1)
    assert (code == 0) == data["ok"]


def test_parser_is_built_once(capsys, example1):
    assert build_parser() is build_parser()
    first = run(capsys, "classify", example1)
    second = run(capsys, "classify", example1)
    assert first == second


def test_internal_error_exit_3(capsys, example1, monkeypatch):
    def broken(phi):
        raise RuntimeError("boom")

    monkeypatch.setattr(logmono.cli, "geometric_rank", broken)
    code, out, err = run(capsys, "grk", example1)
    assert code == 3 and not out
    assert err == "internal error: RuntimeError: boom\n"


def test_termination_measure_failure_exit_3(capsys, tmp_path, monkeypatch):
    # A measure that does not decrease breaks the proof that the blowup
    # loop ends: an internal error, not malformed input.
    path = tmp_path / "steps.problem"
    path.write_text(
        "source vars u v w divisor u v w\ntarget vars x y divisor x\n"
        "map x = u\nmap y = v^2 + w\n"
    )
    assert run(capsys, "principalize", str(path))[0] == 0
    monkeypatch.setattr(logmono.principalize, "termination_measure", lambda ideal: (0,))
    code, out, err = run(capsys, "principalize", str(path))
    assert code == 3 and not out
    assert err.startswith("internal error: TerminationMeasureError: measure did not decrease")


# Full reports pinned byte for byte: refactors below the CLI must not move
# a single character of what a user sees.
PINNED_TEXT = {
    ("example1", "blowup --center u1,u2"): """\
command: blowup
center: u1, u2
chart_u1_divisor: u1, u2
chart_u1_map_x1: u1^4*u2^2
chart_u1_map_y1: u1^6*u2^3*v1 + u1^2*u2
chart_u2_divisor: u1, u2
chart_u2_map_x1: u1^2*u2^4
chart_u2_map_y1: u1^3*u2^6*v1 + u1*u2^2
""",
    ("example1", "principalize"): """\
command: principalize
blowup_steps: 0
depth: 0
leaf_count: 1
leaf_0_divisor: u1, u2
leaf_0_principal_generator: u1^3*u2^3
""",
    ("example1", "fitting --k 2"): """\
command: fitting
k: 2
generators: 2*u1^3*u2^3
groebner_basis: u1^3*u2^3
""",
    ("interleaved", "fitting --k 1"): """\
command: fitting
k: 1
generators: 6*v*w + u, -u*w^2 + v*u, 3*v^2*w - 2*u*w^2, 2
groebner_basis: 1
""",
    ("interleaved", "fitting --k 2"): """\
command: fitting
k: 2
generators: 12*v*w + 2*u, 6*v^2*w - u*w^2 - 3*v*u
groebner_basis: v*w + 1/6*u, u*w^2 + 4*v*u, v^2*u - 1/24*u^2*w
""",
    ("example1", "classify"): """\
command: classify
pair_condition: True
quasi_prepared: True
strongly_prepared_at_point: True
principal_monomial: u1^3*u2^3
normal_form_case: 1
monomial_at_point: False
""",
    ("example3", "monomialize"): """\
command: monomialize
blowup_steps: 0
depth: 0
leaf_count: 1
leaf_0_divisor: u1, u2, u3
leaf_0_principal_generator: 1
""",
    ("example3", "blowup --center u1,u2,u3"): """\
command: blowup
center: u1, u2, u3
chart_u1_divisor: u1, u2, u3
chart_u1_map_x1: u1^3*u2^2
chart_u1_map_x2: u1^7*u2^3*u3^4
chart_u2_divisor: u1, u2, u3
chart_u2_map_x1: u1*u2^3
chart_u2_map_x2: u2^7*u3^4
chart_u3_divisor: u1, u2, u3
chart_u3_map_x1: u1*u2^2*u3^3
chart_u3_map_x2: u2^3*u3^7
""",
}

PINNED_JSON = {
    ("example1", "blowup --center u1,u2"): """\
{
  "center": [
    "u1",
    "u2"
  ],
  "chart_u1_divisor": [
    "u1",
    "u2"
  ],
  "chart_u1_map_x1": "u1^4*u2^2",
  "chart_u1_map_y1": "u1^6*u2^3*v1 + u1^2*u2",
  "chart_u2_divisor": [
    "u1",
    "u2"
  ],
  "chart_u2_map_x1": "u1^2*u2^4",
  "chart_u2_map_y1": "u1^3*u2^6*v1 + u1*u2^2",
  "command": "blowup",
  "ok": true
}
""",
    ("example1", "principalize"): """\
{
  "blowup_steps": 0,
  "command": "principalize",
  "depth": 0,
  "leaf_0_divisor": [
    "u1",
    "u2"
  ],
  "leaf_0_principal_generator": "u1^3*u2^3",
  "leaf_count": 1,
  "ok": true
}
""",
    ("example1", "fitting --k 2"): """\
{
  "command": "fitting",
  "generators": [
    "2*u1^3*u2^3"
  ],
  "groebner_basis": [
    "u1^3*u2^3"
  ],
  "k": 2,
  "ok": true
}
""",
    ("interleaved", "fitting --k 1"): """\
{
  "command": "fitting",
  "generators": [
    "6*v*w + u",
    "-u*w^2 + v*u",
    "3*v^2*w - 2*u*w^2",
    "2"
  ],
  "groebner_basis": [
    "1"
  ],
  "k": 1,
  "ok": true
}
""",
    ("interleaved", "fitting --k 2"): """\
{
  "command": "fitting",
  "generators": [
    "12*v*w + 2*u",
    "6*v^2*w - u*w^2 - 3*v*u"
  ],
  "groebner_basis": [
    "v*w + 1/6*u",
    "u*w^2 + 4*v*u",
    "v^2*u - 1/24*u^2*w"
  ],
  "k": 2,
  "ok": true
}
""",
    ("example1", "classify"): """\
{
  "command": "classify",
  "monomial_at_point": false,
  "normal_form_case": 1,
  "ok": true,
  "pair_condition": true,
  "principal_monomial": "u1^3*u2^3",
  "quasi_prepared": true,
  "strongly_prepared_at_point": true
}
""",
    ("example3", "monomialize"): """\
{
  "blowup_steps": 0,
  "command": "monomialize",
  "depth": 0,
  "leaf_0_divisor": [
    "u1",
    "u2",
    "u3"
  ],
  "leaf_0_principal_generator": "1",
  "leaf_count": 1,
  "ok": true
}
""",
    ("example3", "blowup --center u1,u2,u3"): """\
{
  "center": [
    "u1",
    "u2",
    "u3"
  ],
  "chart_u1_divisor": [
    "u1",
    "u2",
    "u3"
  ],
  "chart_u1_map_x1": "u1^3*u2^2",
  "chart_u1_map_x2": "u1^7*u2^3*u3^4",
  "chart_u2_divisor": [
    "u1",
    "u2",
    "u3"
  ],
  "chart_u2_map_x1": "u1*u2^3",
  "chart_u2_map_x2": "u2^7*u3^4",
  "chart_u3_divisor": [
    "u1",
    "u2",
    "u3"
  ],
  "chart_u3_map_x1": "u1*u2^2*u3^3",
  "chart_u3_map_x2": "u2^3*u3^7",
  "command": "blowup",
  "ok": true
}
""",
}


@pytest.mark.parametrize("fixture, argv", sorted(PINNED_TEXT))
def test_pinned_reports(capsys, request, fixture, argv):
    path = request.getfixturevalue(fixture)
    assert run(capsys, *argv.split(), path) == (0, PINNED_TEXT[fixture, argv], "")
    assert run(capsys, "--json", *argv.split(), path) == (0, PINNED_JSON[fixture, argv], "")


def test_readme_outputs(capsys, tmp_path, monkeypatch):
    """The README's problem file and its two printed sessions, byte for byte."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```\n")[1::2]
    (problem,) = [b for b in blocks if b.startswith("# surface.problem\n")]
    (session,) = [b for b in blocks if b.startswith("$ logmono ")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "surface.problem").write_text(problem)
    commands = session.split("\n\n")
    assert len(commands) == 2
    for block in commands:
        prompt, _, expected = block.partition("\n")
        argv = prompt.removeprefix("$ logmono ").split()
        assert run(capsys, *argv) == (0, expected.rstrip("\n") + "\n", "")


# The whole output of the subcommands in cli_corpus.COMMANDS over the 509
# corpus morphisms, in text and JSON.  A change that moves a byte of it
# re-pins the digest and says which subcommands moved and why.
CORPUS_DIGEST = "672487131aae406824a54a577a3309e34ed6352a3843289c4f589d2058540587"
CORPUS_EXITS = {
    "blowup": {0: 946, 2: 72},
    "principalize": {0: 230, 2: 788},
    "monomialize": {0: 116, 2: 902},
}


def test_corpus_outputs_are_pinned(tmp_path):
    phis = cli_corpus.corpus_morphisms()
    assert len(phis) == 509
    digest, exits = cli_corpus.run_commands(phis, cli_corpus.write_problems(phis, tmp_path))
    assert not any(counts[3] for counts in exits.values())
    assert exits == CORPUS_EXITS
    assert digest == CORPUS_DIGEST


# The same for cli_corpus.GROEBNER_COMMANDS, whose output rests on the
# Groebner kernel: reduced bases, radical tests and eliminations.
GROEBNER_DIGEST = "fbcefab98adcc391117343b6b1cd8faac830773401d13c1ed41bfe2ea181fe9e"
GROEBNER_EXITS = {
    "grk": {0: 1018},
    "imagedim": {0: 1018},
    "quasiprepared": {0: 196, 1: 742, 2: 80},
    "fitting --k 1": {0: 694, 2: 324},
    "fitting --k top": {0: 694, 2: 324},
}


def test_groebner_outputs_are_pinned(tmp_path):
    phis = cli_corpus.corpus_morphisms()
    paths = cli_corpus.write_problems(phis, tmp_path)
    digest, exits = cli_corpus.run_commands(phis, paths, cli_corpus.GROEBNER_COMMANDS)
    assert exits == GROEBNER_EXITS
    assert digest == GROEBNER_DIGEST


# The same for cli_corpus.POINT_COMMANDS, which read each problem's point
# line (the origin): classify, logrank, rank and verify-monomial.
POINT_DIGEST = "e78d8e8d2000740b2376fec34e0d605239e5fafca83cd1e3bf1db66ccfbd15ec"
POINT_EXITS = {
    "classify": {0: 196, 1: 742, 2: 80},
    "logrank": {0: 694, 2: 324},
    "rank": {0: 1018},
    "verify-monomial": {0: 324, 1: 694},
}


def test_point_outputs_are_pinned(tmp_path):
    phis = cli_corpus.corpus_morphisms()
    paths = cli_corpus.write_problems(phis, tmp_path)
    digest, exits = cli_corpus.run_commands(phis, paths, cli_corpus.POINT_COMMANDS)
    assert exits == POINT_EXITS
    assert digest == POINT_DIGEST


# The same for cli_corpus.LRADAPTED_COMMANDS: lradapted off the origin, over
# each morphism once per filtration of its source divisor, with the ideal of
# its target divisor variables.
LRADAPTED_DIGEST = "c897e8536a24a3476b94a5d1f0e9301a21f917614c86742962b39d4f75c28f0b"
LRADAPTED_EXITS = {"lradapted": {0: 300, 1: 1610, 2: 686}}


def test_lradapted_outputs_are_pinned(tmp_path):
    phis, paths = cli_corpus.write_lradapted_problems(cli_corpus.corpus_morphisms(), tmp_path)
    assert len(paths) == 1298
    digest, exits = cli_corpus.run_commands(phis, paths, cli_corpus.LRADAPTED_COMMANDS)
    assert exits == LRADAPTED_EXITS
    assert digest == LRADAPTED_DIGEST


# The same for cli_corpus.OFF_ORIGIN_COMMANDS: logrank, rank and
# verify-monomial at lradapted's point, given with --at over each file's
# point line.
OFF_ORIGIN_DIGEST = "32c38d118e89412819ee8b94069f78789b232af58ad73a31821f12692c673160"
OFF_ORIGIN_EXITS = {
    "logrank": {0: 694, 2: 324},
    "rank": {0: 1018},
    "verify-monomial": {0: 136, 1: 882},
}


def test_off_origin_outputs_are_pinned(tmp_path):
    phis = cli_corpus.corpus_morphisms()
    paths = cli_corpus.write_problems(phis, tmp_path)
    digest, exits = cli_corpus.run_commands(phis, paths, cli_corpus.OFF_ORIGIN_COMMANDS)
    assert exits == OFF_ORIGIN_EXITS
    assert digest == OFF_ORIGIN_DIGEST


# classify alone over the same files, as written by ProblemFile.render.
CLASSIFY_DIGEST = "18e38767f2a7cad48aeac173cf96dd8b09d3a9ab64576c0874e32c555b986c86"


def test_classify_ignores_line_ends_comments_blanks_and_tabs(tmp_path):
    """Each corpus file rewritten with CRLF line ends, a blank line between
    lines, a comment after every line and a tab after each keyword gives
    the digest of the rendered files."""
    phis = cli_corpus.corpus_morphisms()
    paths = cli_corpus.write_problems(phis, tmp_path)
    for path in paths:
        lines = [line.replace(" ", "\t", 1) + " # note" for line in path.read_text().splitlines()]
        path.write_bytes(("\r\n\r\n".join(lines) + "\r\n").encode())
    classify = {"classify": cli_corpus.POINT_COMMANDS["classify"]}
    digest, exits = cli_corpus.run_commands(phis, paths, classify)
    assert exits == {"classify": POINT_EXITS["classify"]}
    assert digest == CLASSIFY_DIGEST


# Fuzzing: valid problem files with a few random splices.  Most results no
# longer parse; the rest are valid problems of about the same size.
FUZZ_SEEDS = [EXAMPLE1, EXAMPLE3, NOT_QP, EXAMPLE1 + "filtration 1: u1\ntargetideal x1\n"]
FUZZ_TOKENS = [
    "map ", "source ", "target ", "vars ", "divisor ", "point ", "filtration ",
    "targetideal ", "x1", "u1", "1/0", "1/2", "-1", "^0", "((", "))",
]
FUZZ_COMMANDS = [
    "classify", "quasiprepared", "grk", "imagedim", "principalize", "monomialize",
    "fitting --k 1", "lradapted", "verify-monomial", "logrank", "rank",
    "blowup --center u1,u2",
]


@st.composite
def spliced_problems(draw):
    text = draw(st.sampled_from(FUZZ_SEEDS))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        piece = draw(
            st.one_of(st.text("uvxy0123^*+-/(),=:#. \n", max_size=4), st.sampled_from(FUZZ_TOKENS))
        )
        text = text[:i] + piece + text[j:]
    return text


@settings(max_examples=200, deadline=None)
@given(spliced_problems(), st.sampled_from(FUZZ_COMMANDS))
def test_fuzzed_problem_files_exit_0_1_or_2(text, command):
    """Malformed input is a verdict or an input error (exit 0, 1 or 2),
    never an internal error (exit 3), and it fails fast."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.problem"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command.split(), str(path)])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), err.getvalue()
    assert elapsed < 2.0, f"{command} took {elapsed:.2f} s on {text!r}"
