import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logmono.chart import ChartedPair, MorphismOfPairs, RationalPoint
from logmono.classify import DivisorFiltration
from logmono.frontend import (
    MAX_NESTING,
    MAX_TERMS,
    ProblemFile,
    ProblemSyntaxError,
    Report,
    parse_expression,
    parse_problem,
)
from logmono.ideal import IdealPresentation
from logmono.poly import Polynomial

from helpers import P, assert_canonical, reference_parse_expression

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

    def test_rational_literals(self):
        amb = ("u", "v")
        p = parse_expression("1/2*u*v + 3/2 - 2/4*v", amb)
        assert p == Polynomial(
            {(1, 1): Fraction(1, 2), (0, 0): Fraction(3, 2), (0, 1): Fraction(-1, 2)},
            amb,
        )
        # A literal is one atom: ^ applies to the whole fraction.
        assert parse_expression("1/2^2", amb) == Polynomial.constant(Fraction(1, 4), amb)
        assert parse_expression("-3/2", amb) == Polynomial.constant(Fraction(-3, 2), amb)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "zero denominator in '1/0'"),
            ("u/2", "unexpected character '/'"),
            ("2/u", "unexpected character '/'"),
            ("1/2/3", "unexpected character '/'"),
            ("u^1/2", "exponent must be an integer"),
        ],
    )
    def test_bad_rational_literals(self, text, message):
        with pytest.raises(ProblemSyntaxError, match=message):
            parse_expression(text, ("u", "v"))

    def test_stray_character(self):
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression("x % y", ("x", "y"))
        assert "'%'" in str(e.value)

    def test_stray_character_column_skips_blanks(self):
        # The column is that of the character, not of the blanks before it.
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression("1 / 2", ("x", "y"))
        assert e.value.column == 3
        assert "column 3: unexpected character '/'" in str(e.value)

    @pytest.mark.parametrize(
        "text, column",
        [
            # A power that would take minutes, and a literal over int()'s
            # 4300-digit limit: the stray is reported before either is read.
            ("3^99999999 $", 12),
            ("7" * 5000 + " $", 5002),
            ("3^99999999 _", 12),
            ("3^99999999*u2/3", 14),
        ],
    )
    def test_stray_character_before_arithmetic(self, text, column):
        with pytest.raises(ProblemSyntaxError) as e:
            parse_expression(text, ("u", "v"), 4)
        stray = text[column - 1]
        assert str(e.value) == f"line 4, column {column}: unexpected character {stray!r}"


EXPR_AMBIENT = ("u", "v", "w_1")
LITERALS = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 6)),
)
SPACES = st.sampled_from(["", " ", "  "])


def sums(atoms):
    """Sums of products of powers of ``atoms``, with an optional leading
    sign, written with varying blanks."""
    factor = st.builds(
        lambda a, k: a if k is None else f"{a}^{k}", atoms, st.none() | st.integers(0, 3)
    )
    product = st.lists(factor, min_size=1, max_size=3).map("*".join)
    rest = st.lists(st.tuples(SPACES, st.sampled_from("+-"), SPACES, product), max_size=3)
    return st.builds(
        lambda sign, first, rest: sign + first + "".join("".join(r) for r in rest),
        st.sampled_from(["", "-", "+", "- "]),
        product,
        rest,
    )


LEAVES = st.one_of(LITERALS, st.sampled_from(EXPR_AMBIENT))
EXPRESSIONS = st.recursive(
    sums(LEAVES),
    lambda inner: sums(st.one_of(LEAVES, inner.map("({})".format))),
    max_leaves=8,
)
CANCELLING = st.one_of(
    st.sampled_from(["u - u", "(u+1)^2 - (u+1)^2", "2*u*v - v*u*2 + 0"]),
    EXPRESSIONS.map(lambda s: f"({s}) - ({s})"),
    st.builds(lambda s, k: f"({s})^{k} - ({s})^{k}", EXPRESSIONS, st.integers(0, 2)),
)
GARBAGE = st.one_of(
    st.text("uvwx_019/^*+-() \t%.,=", min_size=1, max_size=4),
    st.sampled_from(["1/0", "^u", "((", ")", "--", "2u", "u^", "é", "\u0663"]),
)


def parse_outcome(parse, text):
    try:
        return parse(text, EXPR_AMBIENT, 3)
    except ProblemSyntaxError as e:
        return ("error", str(e), e.column)


class TestParserAgainstReference:
    """The term-building parser against the Polynomial-arithmetic parser it
    replaced (``helpers.reference_parse_expression``)."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(EXPRESSIONS, CANCELLING))
    def test_same_polynomial_in_canonical_form(self, text):
        # A large power may exceed MAX_TERMS; both must then say so alike.
        got = parse_outcome(parse_expression, text)
        assert got == parse_outcome(reference_parse_expression, text)
        if isinstance(got, Polynomial):
            assert got.ambient == EXPR_AMBIENT
            assert_canonical(got)

    @settings(max_examples=200, deadline=None)
    @given(EXPRESSIONS, GARBAGE, st.data())
    def test_same_error_on_spliced_garbage(self, text, garbage, data):
        at = data.draw(st.integers(0, len(text)))
        spliced = text[:at] + garbage + text[at:]
        got = parse_outcome(parse_expression, spliced)
        assert got == parse_outcome(reference_parse_expression, spliced)

    @pytest.mark.parametrize(
        "text",
        ["", "u +", "u^", "(u", "u)", "* u", "u ^ v", "u^2^3", "--u", "2u", "x", "1/0", "u @ v"],
    )
    def test_same_error_on_known_bad_input(self, text):
        got = parse_outcome(parse_expression, text)
        assert got[0] == "error"
        assert got == parse_outcome(reference_parse_expression, text)


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

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("point 1,1,1\n", "line 7, column 1: duplicate point declaration"),
            (
                "targetideal x1\ntargetideal y1\n",
                "line 8, column 1: duplicate targetideal declaration",
            ),
        ],
    )
    def test_repeated_optional_line_rejected(self, extra, message):
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(EXAMPLE + extra)
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "line, repeated",
        [
            ("source vars u1 u2 v1 divisor u1 u2", "u2"),
            ("target vars x1 y1 divisor x1", "x1"),
        ],
    )
    def test_repeated_divisor_name_rejected(self, line, repeated):
        text = EXAMPLE.replace(line, f"{line} {repeated}")
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert f"duplicate divisor variable {repeated!r}" in str(e.value)

    @pytest.mark.parametrize(
        "line, lineno, bad",
        [
            ("source vars u1 u2 v1 divisor u1 u2", 2, "u-1"),
            ("source vars u1 u2 v1 divisor u1 u2", 2, "2u"),
            ("target vars x1 y1 divisor x1", 3, "x.1"),
        ],
    )
    def test_chart_name_must_be_an_identifier(self, line, lineno, bad):
        # No expression could refer to such a name: u-1 reads as u minus 1.
        text = EXAMPLE.replace(line, line.replace(" divisor", f" {bad} divisor"))
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert str(e.value) == f"line {lineno}, column 1: variable name {bad!r} is not an identifier"

    @pytest.mark.parametrize(
        "rest, message",
        [
            ("", "expected 'vars'"),
            ("u1 u2 v1 divisor u1", "expected 'vars'"),
            ("u1 vars u2 v1 divisor", "expected 'vars' after the chart keyword"),
            ("vars u1 u2 v1", "expected 'divisor'"),
            ("vars divisor u1", "chart needs at least one variable"),
            ("vars u1 u-2 v1 divisor", "variable name 'u-2' is not an identifier"),
            ("vars u1 u1 divisor", "duplicate variable declaration"),
            ("vars u1 u2 divisor w", "divisor variable 'w' not declared"),
        ],
    )
    def test_chart_line_diagnostics(self, rest, message):
        line = f"source {rest}".rstrip()
        text = EXAMPLE.replace("source vars u1 u2 v1 divisor u1 u2", line)
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert str(e.value) == f"line 2, column 1: {message}"

    @pytest.mark.parametrize(
        "keyword", ["source", "target", "map", "point", "filtration", "targetideal"]
    )
    def test_tab_after_keyword(self, keyword):
        # The keyword ends at its first whitespace character, a tab
        # included, as every later word of a line does.
        text = EXAMPLE + "filtration 1: u1\ntargetideal x1, y1\n"
        tabbed = text.replace(f"\n{keyword} ", f"\n{keyword}\t")
        assert tabbed != text
        assert parse_problem(tabbed).render() == parse_problem(text).render()

    def test_point_length_mismatch(self):
        text = EXAMPLE.replace("point 0,0,0", "point 0,0")
        with pytest.raises(ProblemSyntaxError):
            parse_problem(text)

    def test_rational_point_coordinates(self):
        text = EXAMPLE.replace("point 0,0,0", "point 1/2,-3,0")
        prob = parse_problem(text)
        from fractions import Fraction

        assert prob.point.coordinates == (Fraction(1, 2), Fraction(-3), 0)
        text = EXAMPLE.replace("point 0,0,0", "point 7 , 0,3/1")
        coords = parse_problem(text).point.coordinates
        assert coords == (7, 0, 3)
        assert all(type(c) is Fraction for c in coords)

    @pytest.mark.parametrize("bad", ["1/0", "x", "1.5.2", "٣x", "²"])
    def test_bad_rational_point_coordinate(self, bad):
        text = EXAMPLE.replace("point 0,0,0", f"point 0, {bad} ,0")
        with pytest.raises(ProblemSyntaxError) as e:
            parse_problem(text)
        assert str(e.value).endswith(f"column 1: bad rational {bad!r}")

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


NAMES = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,3}", fullmatch=True).filter(
    lambda name: name not in ("vars", "divisor")
)
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def polynomials(ambient):
    exps = st.tuples(*(st.integers(0, 3) for _ in ambient))
    terms = st.dictionaries(exps, RATIONALS.filter(bool), max_size=6)
    return terms.map(lambda t: Polynomial(t, ambient))


@st.composite
def problem_files(draw):
    """Random problems: non-keyword names, rational-coefficient maps well
    within MAX_TERMS, an optional point, filtration and target ideal."""

    def chart(max_size):
        names = tuple(draw(st.lists(NAMES, min_size=1, max_size=max_size, unique=True)))
        return ChartedPair(names, tuple(v for v in names if draw(st.booleans())))

    src, tgt = chart(3), chart(2)
    phi = MorphismOfPairs(
        src, tgt, {x: draw(polynomials(src.variables)) for x in tgt.variables}
    )
    point = draw(st.none() | st.tuples(*(RATIONALS for _ in src.variables)).map(RationalPoint))
    filtration = None
    if src.divisor_vars and draw(st.booleans()):
        order = draw(st.permutations(src.divisor_vars))
        sizes = draw(st.lists(st.integers(1, len(order)), min_size=1, max_size=3, unique=True))
        filtration = DivisorFiltration([tuple(order[:k]) for k in sorted(sizes, reverse=True)])
    target_ideal = draw(
        st.none()
        | st.lists(polynomials(tgt.variables), max_size=3).map(
            lambda gens: IdealPresentation(gens, tgt.variables)
        )
    )
    return ProblemFile(phi, point, filtration, target_ideal)


@settings(max_examples=150, deadline=None)
@given(problem_files())
def test_render_parse_round_trip(pf):
    text = pf.render()
    again = parse_problem(text)
    assert again.render() == text
    assert again.morphism.components == pf.morphism.components


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
