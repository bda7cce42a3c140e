"""Problem-file parsing and structured reports.

File grammar (line oriented, ``#`` comments):

    source vars <name>+ divisor <name>*
    target vars <name>+ divisor <name>*
    map <target-var> = <expression>        one per target variable
    point <rational>(,<rational>)*         optional, at most once
    filtration <level>: <name>*            optional, nested, 1-based
    targetideal <expression>(,<expression>)*   optional, at most once

A line's keyword ends at its first whitespace character, a tab as well as
a space, and the rest of a line splits on any whitespace.
Each ``source``/``target`` line appears once and names each variable once,
in ``vars`` and in ``divisor``.  A name is an identifier (``IDENTIFIER``: a
letter, then letters, digits and ``_``), the same pattern expressions use,
so every declared variable can be referenced.  The names are checked by
``ChartedPair`` and the point by ``parse_point``, which also reads the
command line's ``--at``; their messages get the line here.

Expressions use integer literals of ASCII digits ``0-9`` (``int`` alone
would also read other scripts' digits), rational literals ``<int>/<int>``
(one token with no spaces and a nonzero denominator, such as ``3/2``),
declared identifiers, ``+ - * ^`` and parentheses; ``^`` binds tightest,
then ``*``, then ``+``/``-``.  A rational literal is one atom, so ``1/2*u`` is half of
``u`` and ``1/2^2`` is ``1/4``; ``/`` is not an operator, so ``u/2`` is an
error.  This is how ``ProblemFile.render`` writes coefficients.  A point
coordinate is such an integer or rational literal with an optional sign.

An expression is scanned once (``_TOKEN.findall``); a token's first
character tells its kind.  One loop (``_sum``) builds each sum of products
straight to terms: a single term stays an exponent tuple and a coefficient,
so a product or power of single terms is one exponent addition or scaling.
The loop recurses only into parentheses, which alone make several terms;
those are multiplied with ``Polynomial`` arithmetic, and the finished term
dict becomes one ``Polynomial._trusted``.  Nesting depth and the
``MAX_TERMS`` and ``MAX_COEFFICIENT_BITS`` budgets are checked before
anything is computed.  Only a failed parse scans again
(``_SCAN.finditer``) for its column.  A stray character, one outside every
token, is reported before anything is computed: the tokens then fall short
of the expression's non-blank text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add
from string import ascii_letters
from typing import Optional

from .chart import ChartedPair, MorphismOfPairs, RationalPoint
from .classify import DivisorFiltration
from .ideal import IdealPresentation
from .poly import Polynomial, add_terms, canonicalise_terms


class ProblemSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Expression parser

# A variable name: what a chart line may declare and an expression may use.
IDENTIFIER = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

# The digits of every literal, in an expression and in a point coordinate:
# ASCII only, though ``int`` and ``\d`` take other scripts' digits too.
_DIGITS = "[0-9]+"

# One scan of the whole expression: a rational literal, an integer literal,
# a name, or an operator.  A token's first character tells its kind.
_TOKEN = re.compile(rf"{_DIGITS}(?:/{_DIGITS})?|{IDENTIFIER.pattern}|[-+*^()]")
# The same scan with any other non-blank character as a token of its own:
# one that begins with none of ``_TOKEN_START`` is a stray character, an
# error at its own column.
_SCAN = re.compile(rf"{_TOKEN.pattern}|\S")
_LITERAL_START = frozenset("0123456789")
_TOKEN_START = _LITERAL_START | frozenset(ascii_letters + "+-*^()")

# Each parenthesis level costs one stack frame of the parser; the cap keeps
# deep nesting well inside Python's recursion limit.
MAX_NESTING = 100

# A product or power is refused, before it is computed, when its result
# could have more terms than this: t1*t2 for a product of a t1-term and a
# t2-term polynomial, and comb(t + k - 1, k) for the k-th power of a t-term
# one.  The worst power the cap admits, (u+1)^499, takes under a second.
MAX_TERMS = 500

# A power is refused, before it is computed, when a coefficient of its
# result could need more bits than this (``_check_bits``); ``str`` of an
# int stops at 4300 digits, about 14000 bits.  The worst power both caps
# admit, (524287*u + 524287)^499, takes under 2 s.
MAX_COEFFICIENT_BITS = 10_000


@lru_cache(maxsize=64)
def _unit_exponents(ambient: tuple[str, ...]):
    """The exponent tuple of each ambient variable that is a name, and of
    the constant 1."""
    n = len(ambient)
    units = {
        v: (0,) * i + (1,) + (0,) * (n - i - 1)
        for i, v in enumerate(ambient)
        if IDENTIFIER.fullmatch(v)
    }
    return units, (0,) * n


class _Fail(Exception):
    """A syntax error: (message, index of the token it is reported at)."""


def _wrap(terms: dict, ambient: tuple[str, ...]) -> Polynomial:
    # ``terms`` is a dict the parser built; integral products and sums of
    # Fractions become ints in place.
    return Polynomial._trusted(canonicalise_terms(terms), ambient)


def _polynomial(value, ambient: tuple[str, ...]) -> Polynomial:
    return _wrap(dict((value,)), ambient) if type(value) is tuple else value


def _count(value) -> int:
    return 1 if type(value) is tuple else len(value.terms)


def _check_terms(what: str, bound: int, at: int) -> None:
    if bound > MAX_TERMS:
        message = f"{what} may have {bound} terms, over the budget of MAX_TERMS = {MAX_TERMS}"
        raise _Fail(message, at)


def _check_bits(coefficients, k: int, at: int) -> None:
    """Refuse the k-th power of a base with these coefficients when its
    coefficients could need more than MAX_COEFFICIENT_BITS bits.  With L
    the lcm of the denominators and h the larger of L and L times the sum
    of the |coefficients|, the power is a polynomial with integer
    coefficients of at most h^k, over L^k, so no numerator or denominator
    exceeds h^k."""
    L = lcm(*[c.denominator for c in coefficients])
    h = max(L, sum([abs(c.numerator) * (L // c.denominator) for c in coefficients]))
    bits = k * (h - 1).bit_length()
    if bits > MAX_COEFFICIENT_BITS:
        message = f"power may have a coefficient of {bits} bits, over the budget of"
        raise _Fail(f"{message} MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS}", at)


def _sum(tokens: list[str], i: int, depth: int, units: dict, one: tuple, ambient: tuple):
    """The sum of products that starts at token i, as a term dict, and the
    index of the token after it.

    A factor is one nonzero term ``(exponents, coefficient)``, whose
    coefficient is an ``int`` or a ``Fraction``, or a ``Polynomial`` for
    zero and for several terms.  Products and powers of single terms add
    and scale exponent tuples; only parentheses, the one place this
    recurses, make several terms, and those go through
    ``Polynomial.__mul__`` and ``__pow__``.  The terms of the finished
    products, signed, are added into one dict at the end (``poly.add_terms``):
    adding Polynomials would copy the running sum on every sign and make
    parsing quadratic in the term count.
    """
    terms: list = []
    tok = tokens[i]
    negate = tok == "-"
    if negate or tok == "+":
        i += 1
    p = None  # the product so far
    while True:
        tok = tokens[i]
        i += 1
        q = units.get(tok)
        if q is not None:
            q = (q, 1)
        elif tok[:1] in _LITERAL_START:
            if "/" in tok:
                num, den = map(int, tok.split("/"))
                if not den:
                    raise _Fail(f"zero denominator in {tok!r}", i - 1)
                c = Fraction(num, den)
            else:
                c = int(tok)
            q = (one, c) if c else _wrap({}, ambient)
        elif tok == "(":
            if depth == MAX_NESTING:
                raise _Fail(f"parentheses nested deeper than {MAX_NESTING}", i - 1)
            inner, i = _sum(tokens, i, depth + 1, units, one, ambient)
            if tokens[i] != ")":
                raise _Fail("expected ')'", i)
            i += 1
            q = next(iter(inner.items())) if len(inner) == 1 else _wrap(inner, ambient)
        elif IDENTIFIER.match(tok):
            raise _Fail(f"undeclared variable {tok!r}", i - 1)
        else:
            raise _Fail(f"unexpected token {tok!r}", i - 1)
        tok = tokens[i]
        if tok == "^":
            k = tokens[i + 1]
            if not (k.isascii() and k.isdigit()):
                raise _Fail("exponent must be an integer", i + 1)
            k = int(k)
            if type(q) is tuple:
                # A power of one term is one term: within any term budget.
                # Its coefficient grows unless it is 1, as for a variable.
                c = q[1]
                if c != 1:
                    _check_bits((c,), k, i)
                q = (tuple([e * k for e in q[0]]), c**k)
            else:
                t = len(q.terms)
                if k:
                    # The count is at least t; skip computing it for huge bases.
                    _check_terms("power", comb(t + k - 1, k) if t <= MAX_TERMS else t, i)
                    _check_bits(q.terms.values(), k, i)
                q = q**k
            i += 2
            tok = tokens[i]
        if p is None:
            p = q
        elif type(p) is tuple and type(q) is tuple:
            # One term times one term: within any budget.
            p = (tuple(map(add, p[0], q[0])), p[1] * q[1])
        else:
            _check_terms("product", _count(p) * _count(q), star)
            p = _polynomial(p, ambient) * _polynomial(q, ambient)
        if tok == "*":
            star = i
            i += 1
            continue
        if type(p) is tuple:
            terms.append((p[0], -p[1]) if negate else p)
        else:
            terms += [(e, -c) for e, c in p.terms.items()] if negate else p.terms.items()
        if tok != "+" and tok != "-":
            return add_terms({}, terms), i
        negate = tok == "-"
        i += 1
        p = None


def _syntax_error(text: str, line: int, message: str, at: int) -> ProblemSyntaxError:
    """The error for a parse that failed at token ``at``, with its column
    from a second scan.  A stray character anywhere comes first (``at`` is
    -1 when one was found), and a failure past the last token is the end
    of the expression."""
    column = None
    for index, m in enumerate(_SCAN.finditer(text)):
        tok = m.group()
        if tok[0] not in _TOKEN_START:
            return ProblemSyntaxError(f"unexpected character {tok!r}", line, m.start() + 1)
        if index == at:
            column = m.start() + 1
    if column is None:
        return ProblemSyntaxError("unexpected end of expression", line)
    return ProblemSyntaxError(message, line, column)


def parse_expression(text: str, ambient: tuple[str, ...], line: int = 1) -> Polynomial:
    ambient = tuple(ambient)
    units, one = _unit_exponents(ambient)
    tokens = _TOKEN.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        # A non-blank character outside every token: a stray, reported
        # before anything is computed.
        raise _syntax_error(text, line, "", -1)
    tokens.append("")  # past the last token; no token is empty
    try:
        terms, i = _sum(tokens, 0, 0, units, one, ambient)
        if tokens[i]:
            raise _Fail(f"unexpected token {tokens[i]!r}", i)
    except _Fail as e:
        raise _syntax_error(text, line, *e.args) from None
    return _wrap(terms, ambient)


# ---------------------------------------------------------------------------
# Problem files


@dataclass
class ProblemFile:
    morphism: MorphismOfPairs
    point: Optional[RationalPoint] = None
    filtration: Optional[DivisorFiltration] = None
    target_ideal: Optional[IdealPresentation] = None

    def render(self) -> str:
        src = self.morphism.source
        tgt = self.morphism.target
        lines = [
            "source vars "
            + " ".join(src.variables)
            + (" divisor " + " ".join(src.divisor_vars) if src.divisor_vars else " divisor"),
            "target vars "
            + " ".join(tgt.variables)
            + (" divisor " + " ".join(tgt.divisor_vars) if tgt.divisor_vars else " divisor"),
        ]
        for x in tgt.variables:
            lines.append(f"map {x} = {self.morphism.components[x]}")
        if self.point is not None:
            lines.append("point " + ",".join(str(c) for c in self.point.coordinates))
        if self.filtration is not None:
            for k, level in enumerate(self.filtration.levels, start=1):
                lines.append(f"filtration {k}: " + " ".join(level))
        if self.target_ideal is not None:
            lines.append(
                "targetideal " + ", ".join(str(g) for g in self.target_ideal.generators)
            )
        return "\n".join(lines) + "\n"


# A point coordinate: an optional sign, then the digits of an expression
# literal, optionally over more of them.  No decimals, exponents,
# underscores or other scripts' digits, which ``Fraction(str)`` would take.
_POINT_COORDINATE = re.compile(rf"([-+]?{_DIGITS})(?:/({_DIGITS}))?")


def parse_point(text: str, n: int) -> RationalPoint:
    """A point of an n-variable chart: comma separated signed integers or
    ``<int>/<int>`` rationals with a nonzero denominator, as on a
    ``point`` line or after ``--at``.  Raises ValueError;
    ``parse_problem`` adds the line."""
    coords = []
    for c in text.split(","):
        c = c.strip()
        lit = _POINT_COORDINATE.fullmatch(c)
        if lit is None or lit[2] and not int(lit[2]):
            raise ValueError(f"bad rational {c!r}")
        num, den = lit.groups()
        coords.append(Fraction(int(num), int(den)) if den else Fraction(int(num)))
    if len(coords) != n:
        raise ValueError(f"point has {len(coords)} coordinates for {n} variables")
    return RationalPoint._trusted(tuple(coords))


def _parse_chart_line(rest: str, line: int) -> ChartedPair:
    """The syntax of a chart line; ``ChartedPair`` checks the names."""
    words = rest.split()
    if "vars" not in words:
        raise ProblemSyntaxError("expected 'vars'", line)
    if words[0] != "vars":
        raise ProblemSyntaxError("expected 'vars' after the chart keyword", line)
    if "divisor" not in words:
        raise ProblemSyntaxError("expected 'divisor'", line)
    div_at = words.index("divisor")
    names = words[1:div_at]
    if not names:
        raise ProblemSyntaxError("chart needs at least one variable", line)
    for name in names:
        if not IDENTIFIER.fullmatch(name):
            raise ProblemSyntaxError(f"variable name {name!r} is not an identifier", line)
    try:
        return ChartedPair(tuple(names), tuple(words[div_at + 1 :]))
    except ValueError as e:
        raise ProblemSyntaxError(str(e), line)


def parse_problem(text: str) -> ProblemFile:
    source: Optional[ChartedPair] = None
    target: Optional[ChartedPair] = None
    maps: dict[str, tuple[str, int]] = {}
    point_line: Optional[tuple[str, int]] = None
    filtration_lines: list[tuple[int, str, int]] = []
    target_ideal_line: Optional[tuple[str, int]] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        lineup = raw.strip()
        if not lineup:
            continue
        keyword = lineup.split(None, 1)[0]
        rest = lineup[len(keyword) + 1 :]
        if keyword == "source":
            if source is not None:
                raise ProblemSyntaxError("duplicate source declaration", lineno)
            source = _parse_chart_line(rest, lineno)
        elif keyword == "target":
            if target is not None:
                raise ProblemSyntaxError("duplicate target declaration", lineno)
            target = _parse_chart_line(rest, lineno)
        elif keyword == "map":
            name, eq, expr = rest.partition("=")
            name = name.strip()
            if not eq:
                raise ProblemSyntaxError("expected '=' in map line", lineno)
            if name in maps:
                raise ProblemSyntaxError(f"duplicate map for {name!r}", lineno)
            maps[name] = (expr.strip(), lineno)
        elif keyword == "point":
            if point_line is not None:
                raise ProblemSyntaxError("duplicate point declaration", lineno)
            point_line = (rest, lineno)
        elif keyword == "filtration":
            level_txt, colon, names = rest.partition(":")
            if not colon:
                raise ProblemSyntaxError("expected ':' in filtration line", lineno)
            try:
                level = int(level_txt.strip())
            except ValueError:
                raise ProblemSyntaxError("filtration level must be an integer", lineno)
            filtration_lines.append((level, names.strip(), lineno))
        elif keyword == "targetideal":
            if target_ideal_line is not None:
                raise ProblemSyntaxError("duplicate targetideal declaration", lineno)
            target_ideal_line = (rest, lineno)
        else:
            raise ProblemSyntaxError(f"unknown keyword {keyword!r}", lineno)

    if source is None:
        raise ProblemSyntaxError("missing source declaration", 1)
    if target is None:
        raise ProblemSyntaxError("missing target declaration", 1)

    components = {}
    for x in target.variables:
        if x not in maps:
            raise ProblemSyntaxError(f"missing map for target variable {x!r}", 1)
        expr, lineno = maps[x]
        components[x] = parse_expression(expr, source.variables, lineno)
    for name, (_, lineno) in maps.items():
        if name not in target.variables:
            raise ProblemSyntaxError(f"map for undeclared variable {name!r}", lineno)

    morphism = MorphismOfPairs(source, target, components)

    point = None
    if point_line is not None:
        rest, lineno = point_line
        try:
            point = parse_point(rest, len(source.variables))
        except ValueError as e:
            raise ProblemSyntaxError(str(e), lineno)

    filtration = None
    if filtration_lines:
        filtration_lines.sort()
        levels = []
        for expected, (level, names, lineno) in enumerate(filtration_lines, start=1):
            if level != expected:
                raise ProblemSyntaxError(
                    "filtration levels must be 1-based and consecutive", lineno
                )
            vars_ = tuple(names.split())
            for v in vars_:
                if v not in source.divisor_vars:
                    raise ProblemSyntaxError(
                        f"filtration variable {v!r} is not a source divisor variable",
                        lineno,
                    )
            if levels and not set(vars_) <= set(levels[-1]):
                raise ProblemSyntaxError("filtration levels are not nested", lineno)
            levels.append(vars_)
        filtration = DivisorFiltration(levels)

    target_ideal = None
    if target_ideal_line is not None:
        rest, lineno = target_ideal_line
        gens = [
            parse_expression(part, target.variables, lineno)
            for part in rest.split(",")
            if part.strip()
        ]
        target_ideal = IdealPresentation(gens, target.variables)

    return ProblemFile(morphism, point, filtration, target_ideal)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class Report:
    """Deterministic line-oriented report with a JSON rendering."""

    command: str
    fields: list[tuple[str, object]] = field(default_factory=list)
    ok: bool = True

    def add(self, key: str, value: object):
        self.fields.append((key, value))

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.fields:
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        def clean(v):
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, (int, bool, str, float)) or v is None:
                return v
            return str(v)

        payload = {"command": self.command, "ok": self.ok}
        payload.update({k: clean(v) for k, v in self.fields})
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
