import json
import time
from fractions import Fraction

import pytest

from logmono.frontend import (
    MAX_NESTING,
    MAX_TERMS,
    ProblemSyntaxError,
    Report,
    parse_expression,
    parse_problem,
)
from logmono.poly import Polynomial

from helpers import P

EXAMPLE = """\
# surface example
source vars u1 u2 v1 divisor u1 u2
target vars x1 y1 divisor x1
map x1 = (u1*u2)^2
map y1 = u1*u2 + u1^3*u2^3*v1
point 0,0,0
"""


class TestExpressionParser:
    def test_precedence(self):
        amb = ("x", "y")
        assert parse_expression("x + y*x^2", amb) == P("x + x^2*y", amb)
        assert parse_expression("(x + y)^2", amb) == P("x^2 + 2*x*y + y^2", amb)
        assert parse_expression("-x*y + 2", amb) == P("2 - x*y", amb)

    def test_undeclared_variable(self):
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression("x + w", ("x", "y"))
        assert "w" in str(e.value)

    def test_bad_exponent(self):
        with pytest.raises(ProblemSyntaxError):
            parse_expression("x^y", ("x", "y"))

    def test_unbalanced_parens(self):
        with pytest.raises(ProblemSyntaxError):
            parse_expression("(x + y", ("x", "y"))

    def test_nesting_depth_capped(self):
        amb = ("x",)
        at_cap = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(at_cap, amb) == P("x", amb)
        deep = "(" * 5000 + "x" + ")" * 5000
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression(deep, amb)
        assert "nested deeper than" in str(e.value)
        assert e.value.column == MAX_NESTING + 1

    def test_term_budget(self):
        amb = ("u", "v")
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression("(u+v+1)^400", amb)
        assert f"power may have 80601 terms, over the budget of MAX_TERMS = {MAX_TERMS}" in str(e.value)
        assert e.value.column == 8
        # A product is charged t1*t2 terms before it is computed.
        wide = "(" + "+".join(f"u^{i}" for i in range(MAX_TERMS // 2)) + ")"
        assert len(parse_expression(wide + "*(v+1)", amb).terms) == 2 * (MAX_TERMS // 2)
        with pytest.raises(ProblemSyntaxError, match="product may have"):
            parse_expression(wide + "*(v^2+v+1)", amb)
        # Powers of a monomial have one term whatever the exponent.
        assert parse_expression("u^100000", amb).total_degree == 100000

    def test_long_sum_parses_in_linear_time(self):
        amb = ("u", "v")
        for sign in "+-":
            text = f" {sign} ".join(f"u^{i}" for i in range(1, 3001))
            start = time.perf_counter()
            p = parse_expression(text, amb)
            assert time.perf_counter() - start < 1.0
            expected = Polynomial(
                {(i, 0): Fraction(1 if sign == "+" or i == 1 else -1) for i in range(1, 3001)},
                amb,
            )
            assert p == expected
        # Terms that cancel drop out and may come back.
        assert parse_expression("u - u + v + u - 2*v", amb) == P("u - v", amb)

    def test_stray_character(self):
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression("x % y", ("x", "y"))
        assert "'%'" in str(e.value)


class TestProblemParser:
    def test_full_example(self):
        prob = parse_problem(EXAMPLE)
        phi = prob.morphism
        assert phi.source.variables == ("u1", "u2", "v1")
        assert phi.source.divisor_vars == ("u1", "u2")
        assert phi.target.divisor_vars == ("x1",)
        amb = phi.source.variables
        assert phi.components["x1"] == P("u1^2*u2^2", amb)
        assert prob.point is not None
        assert prob.point.coordinates == (0, 0, 0)

    def test_round_trip(self):
        prob = parse_problem(EXAMPLE)
        again = parse_problem(prob.render())
        assert again.morphism.components == prob.morphism.components
        assert again.morphism.source == prob.morphism.source
        assert again.morphism.target == prob.morphism.target
        assert again.point == prob.point
        assert again.render() == prob.render()

    def test_empty_file(self):
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem("")
        assert "missing source" in str(e.value)

    def test_missing_map(self):
        text = "source vars u divisor u\ntarget vars x divisor x\n"
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert "missing map" in str(e.value)

    def test_undeclared_map_variable(self):
        text = (
            "source vars u divisor u\ntarget vars x divisor x\n"
            "map x = u\nmap z = u\n"
        )
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert "'z'" in str(e.value)

    def test_undeclared_variable_in_map(self):
        text = "source vars u divisor u\ntarget vars x divisor x\nmap x = w\n"
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert "'w'" in str(e.value)

    def test_duplicate_declaration(self):
        text = (
            "source vars u divisor u\nsource vars v divisor\n"
            "target vars x divisor\nmap x = u\n"
        )
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert "duplicate source" in str(e.value)

    def test_point_length_mismatch(self):
        text = EXAMPLE.replace("point 0,0,0", "point 0,0")
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    def test_rational_point_coordinates(self):
        text = EXAMPLE.replace("point 0,0,0", "point 1/2,-3,0")
        prob = parse_problem(text)
        from fractions import Fraction

        assert prob.point.coordinates == (Fraction(1, 2), Fraction(-3), 0)

    def test_filtration_and_target_ideal(self):
        text = EXAMPLE + "filtration 1: u1 u2\nfiltration 2: u1\ntargetideal x1, x1*y1\n"
        prob = parse_problem(text)
        assert prob.filtration.levels == [("u1", "u2"), ("u1",)]
        assert len(prob.target_ideal.generators) == 2

    def test_filtration_gap_rejected(self):
        text = EXAMPLE + "filtration 2: u1\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    def test_filtration_outside_divisor_rejected(self):
        text = EXAMPLE + "filtration 1: v1\n"
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)


class TestReport:
    def test_text_rendering(self):
        r = Report("fitting")
        r.add("k", 2)
        r.add("generators", ["u1", "u2"])
        assert r.render_text() == "command: fitting\nk: 2\ngenerators: u1, u2\n"

    def test_json_rendering(self):
        r = Report("fitting", ok=False)
        r.add("k", 2)
        data = json.loads(r.render_json())
        assert data == {"command": "fitting", "ok": False, "k": 2}

    def test_deterministic_output(self):
        def build():
            r = Report("classify")
            r.add("verdict", True)
            return r.render_json()

        assert build() == build()
