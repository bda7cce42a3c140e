"""Logarithmic differential forms in adapted coordinates.

The degree-1 log basis of a chart is du_i/u_i for each divisor variable
and dv_j for each free variable, in chart order.  A log k-form stores one
polynomial coefficient per basis index pair (I, J) with I a sorted subset
of divisor variables and J a sorted subset of free variables.

Pullbacks along a morphism of pairs are wedges of rows of its log
Jacobian.  A row is a log differential: the Euler operator u*d/du scales
each term by its exponent of u in a divisor column, and d/dv differentiates
in a free column.  Under the pair condition a divisorial component is
c*u^a, so its row is the integer exponent vector a, kept as the
component's exponent tuple of ints (``log_jacobian``).  The
coefficient of dx_I/x_I ^ dy_J in a wedge is the maximal minor on the
columns I + J, in that order: taking the divisor block first supplies the
sign of the shuffle, and no division happens.  Every minor comes from one
determinant kernel (``_det``) whose entries are ints or polynomials: an
int entry scales its cofactor, and a minor of integer rows alone is one
int.  A log-Fitting ideal is generated by the minors of one log Jacobian.
Over a chart with an empty divisor every column is free and the log basis
is dv_1, ..., dv_n, so the wedge of the rows of the ordinary Jacobian has
its maximal minors as coefficients: these cut out the singular locus
(``classify.singular_locus_ideal``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .chart import ChartedPair, MorphismOfPairs, validate_pair_condition
from .poly import Polynomial, canonicalise_terms


class NotAMorphismOfPairsError(ValueError):
    """The pair condition fails: a divisorial component vanishes outside
    the source divisor, so log forms do not pull back to log forms."""


class LogKForm:
    """Mapping from (I, J) basis indices to polynomial coefficients."""

    def __init__(
        self,
        degree: int,
        chart: ChartedPair,
        coefficients: dict[tuple[tuple[str, ...], tuple[str, ...]], Polynomial],
    ):
        self.degree = degree
        self.chart = chart
        clean = {}
        divisor = set(chart.divisor_vars)
        free = set(chart.free_vars)
        for (I, J), p in coefficients.items():
            if len(I) + len(J) != degree:
                raise ValueError(f"index ({I}, {J}) has wrong degree")
            if not (set(I) <= divisor and set(J) <= free):
                raise ValueError(f"index ({I}, {J}) not split into divisor/free blocks")
            if not p.is_zero():
                clean[(tuple(I), tuple(J))] = p
        self.coefficients = clean

    @classmethod
    def _trusted(
        cls,
        degree: int,
        chart: ChartedPair,
        coefficients: dict[tuple[tuple[str, ...], tuple[str, ...]], Polynomial],
    ) -> "LogKForm":
        """Wrap nonzero coefficients whose (I, J) keys are tuples split
        from the chart's own variables, without checking them again."""
        form = object.__new__(cls)
        form.degree = degree
        form.chart = chart
        form.coefficients = coefficients
        return form

    def coefficient(self, I: Sequence[str], J: Sequence[str]) -> Polynomial:
        return self.coefficients.get(
            (tuple(I), tuple(J)), Polynomial.zero(self.chart.variables)
        )

    def is_zero(self) -> bool:
        return not self.coefficients

    def __repr__(self):
        parts = []
        for (I, J), p in sorted(self.coefficients.items()):
            basis = [f"d{u}/{u}" for u in I] + [f"d{v}" for v in J]
            parts.append(f"({p})*" + "^".join(basis))
        return " + ".join(parts) if parts else "0"


def _log_row(f: Polynomial, chart: ChartedPair) -> list[Polynomial]:
    """df over the chart's log basis, in chart order: u*df/du (each term
    scaled by its exponent of u) for divisor variables, df/dv for free
    variables."""
    if f.ambient != chart.variables:
        raise ValueError("polynomial not in chart variables")
    row = []
    for i, v in enumerate(chart.variables):
        if v in chart.divisor_vars:
            # Scaling by a positive integer keeps the terms apart, but can
            # make a Fraction coefficient integral.
            terms = {e: c * e[i] for e, c in f.terms.items() if e[i]}
            row.append(Polynomial._trusted(canonicalise_terms(terms), f.ambient))
        else:
            row.append(f.partial_derivative(v))
    return row


def log_differential(f: Polynomial, chart: ChartedPair) -> LogKForm:
    """df expressed in the log basis: u*df/du against du/u, df/dv against dv."""
    return wedge_rows([_log_row(f, chart)], chart)


def wedge_rows(rows: Sequence[Sequence[int | Polynomial]], chart: ChartedPair) -> LogKForm:
    """Wedge of degree-1 forms given as coefficient rows over the chart's
    log basis (chart order); entries are ints or polynomials (``_det``).

    Each basis subset, in ``itertools.combinations`` order of the chart,
    splits into (I, J) with the divisor block first; its coefficient is the
    minor on the columns I + J in that order, so the column order carries
    the sign of the shuffle.
    """
    names = chart.variables
    divisor = chart.positions[0]
    coeffs = {}
    for cols in combinations(range(len(names)), len(rows)):
        I = [j for j in cols if j in divisor]
        J = [j for j in cols if j not in divisor]
        minor = _det([[row[j] for j in I + J] for row in rows])
        if _is_zero(minor):
            continue
        if type(minor) is int:
            minor = Polynomial.constant(minor, names)
        coeffs[(tuple(names[j] for j in I), tuple(names[j] for j in J))] = minor
    return LogKForm._trusted(len(rows), chart, coeffs)


def _is_zero(x: int | Polynomial) -> bool:
    return not x if type(x) is int else not x.terms


def _plus(a: int | Polynomial, b: int | Polynomial) -> int | Polynomial:
    """a + b for ints and polynomials over one ambient."""
    if type(a) is int:
        if type(b) is int:
            return a + b
        a, b = b, a
    if type(b) is int:
        return a + Polynomial.constant(b, a.ambient) if b else a
    return a + b


def _det(matrix: list[list[int | Polynomial]]) -> int | Polynomial:
    """Determinant by cofactor expansion along the first column.

    Entries are ints or polynomials over one ambient.  A zero entry or
    cofactor is skipped, an int entry or cofactor scales the other factor,
    and a matrix of ints alone gives one int.
    """
    k = len(matrix)
    if k == 0:
        raise ValueError("empty determinant")
    if k == 1:
        return matrix[0][0]
    total = 0
    for i, row in enumerate(matrix):
        entry = row[0]
        if _is_zero(entry):
            continue
        cofactor = _det([r[1:] for r in matrix[:i] + matrix[i + 1 :]])
        if _is_zero(cofactor):
            continue
        if i % 2:
            if type(entry) is int:
                entry = -entry
            else:
                cofactor = -cofactor
        total = _plus(total, entry * cofactor)
    return total


def pullback_basis_form(
    phi: MorphismOfPairs,
    I_target: Sequence[str],
    J_target: Sequence[str],
) -> LogKForm:
    """Pullback of the target log basis k-form dx_I/x_I ^ dy_J.

    It is the wedge of the log-Jacobian rows of I_target, then J_target:
    each coefficient is a maximal minor of those rows, and no division
    happens.  Raises NotAMorphismOfPairsError when the pair condition fails.
    """
    I_target = tuple(I_target)
    J_target = tuple(J_target)
    if not set(I_target) <= set(phi.target.divisor_vars):
        raise ValueError("I_target must consist of target divisor variables")
    if not set(J_target) <= set(phi.target.free_vars):
        raise ValueError("J_target must consist of target free variables")
    if not I_target + J_target:
        raise ValueError("form degree must be at least 1")
    rows = dict(zip(phi.target.variables, log_jacobian(phi)))
    return wedge_rows([rows[x] for x in I_target + J_target], phi.source)


def log_jacobian(phi: MorphismOfPairs) -> list[tuple[int, ...] | list[Polynomial]]:
    """One row per target variable (target chart order) over the source log
    basis (source chart order): the pullback of dx/x or dy.

    Under the pair condition a divisorial component is c*u^a, so dx/x pulls
    back to sum a_i du_i/u_i and its row is the exponent tuple a of ints.
    A free component's row is its log differential.  Raises
    NotAMorphismOfPairsError when the pair condition fails."""
    ok, diags = validate_pair_condition(phi)
    if not ok:
        raise NotAMorphismOfPairsError("; ".join(diags))
    chart = phi.source
    rows = []
    for x in phi.target.variables:
        comp = phi.components[x]
        if x in phi.target.divisor_vars:
            (exps,) = comp.terms
            rows.append(exps)
        else:
            rows.append(_log_row(comp, chart))
    return rows
