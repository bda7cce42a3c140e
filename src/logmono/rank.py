"""Rank invariants: pointwise rank, geometric rank, log-rank, and the
image-dimension computation through elimination ideals."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .chart import ChartedPair, MorphismOfPairs, RationalPoint
from .ideal import IdealPresentation, dimension, elimination
from .logdiff import log_jacobian
from .poly import Polynomial, exact_divide


def jacobian(phi: MorphismOfPairs) -> list[list[Polynomial]]:
    """Rows per target variable, columns per source variable."""
    return [
        [phi.components[x].partial_derivative(v) for v in phi.source.variables]
        for x in phi.target.variables
    ]


def rational_matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over the rationals, by fraction-free integer elimination.

    Scaling a row by a nonzero number keeps the rank, so each row is first
    multiplied by the lcm of its entries' denominators (1 for an int).  The
    integer matrix is then eliminated as in Bareiss (Math. Comp. 1968):
    after each pivot every entry below it is a minor of the input, so
    dividing by the previous pivot is exact and the entries stay the size
    of those minors.
    """
    m = [_cleared_row(r) for r in rows]
    rank = 0
    prev = 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[col]
        for r in range(rank + 1, len(m)):
            low = m[r]
            a = low[col]
            for c in range(col + 1, len(top)):
                low[c] = (pv * low[c] - a * top[c]) // prev
            low[col] = 0
        prev = pv
        rank += 1
        if rank == len(m):
            break
    return rank


def _cleared_row(row: Sequence[int | Fraction]) -> list[int]:
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row]


def symbolic_matrix_rank(rows: list[list[Polynomial]]) -> int:
    """Rank over the fraction field via Bareiss fraction-free elimination.

    The pivot is a nonzero entry of lowest total degree, the first in
    (row, column) order; the rank does not depend on the choice, and all
    divisions are exact.  The first step has no previous pivot, so it
    divides by nothing.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    amb = m[0][0].ambient
    prev = None
    rank = 0
    rows_left = list(range(len(m)))
    cols_left = list(range(len(m[0])))
    while rows_left and cols_left:
        candidates = [
            (r, c) for r in rows_left for c in cols_left if not m[r][c].is_zero()
        ]
        if not candidates:
            break
        pr, pc = min(candidates, key=lambda rc: m[rc[0]][rc[1]].total_degree)
        pivot = m[pr][pc]
        rank += 1
        rows_left.remove(pr)
        cols_left.remove(pc)
        for r in rows_left:
            for c in cols_left:
                q = m[r][c] * pivot - m[r][pc] * m[pr][c]
                if prev is not None:
                    q = exact_divide(q, prev)
                    assert q is not None, "Bareiss division must be exact"
                m[r][c] = q
            m[r][pc] = Polynomial.zero(amb)
        prev = pivot
    return rank


def rank_at_point(phi: MorphismOfPairs, a: RationalPoint) -> int:
    pt = a.coordinates
    return rational_matrix_rank(
        [[e.evaluate(pt) for e in row] for row in jacobian(phi)]
    )


def geometric_rank(phi: MorphismOfPairs) -> int:
    return symbolic_matrix_rank(jacobian(phi))


def log_rank_at_point(phi: MorphismOfPairs, a: RationalPoint) -> int:
    # A divisorial row is already an integer tuple; only free rows are evaluated.
    pt = a.coordinates
    return rational_matrix_rank(
        [r if type(r) is tuple else [e.evaluate(pt) for e in r] for r in log_jacobian(phi)]
    )


def restrict_morphism(phi: MorphismOfPairs, D: Sequence[str]) -> MorphismOfPairs:
    """Restrict to the stratum where the variables in D vanish."""
    D = tuple(D)
    for v in D:
        if v not in phi.source.divisor_vars:
            raise ValueError(f"{v!r} is not a source divisor variable")
    remaining = tuple(v for v in phi.source.variables if v not in set(D))
    sub = {}
    for v in phi.source.variables:
        if v in set(D):
            sub[v] = Polynomial.zero(remaining)
        else:
            sub[v] = Polynomial.variable(v, remaining)
    new_source = ChartedPair(
        remaining, tuple(v for v in phi.source.divisor_vars if v not in set(D))
    )
    comps = {x: p.substitute(sub) for x, p in phi.components.items()}
    return MorphismOfPairs(new_source, phi.target, comps)


def restricted_geometric_rank(phi: MorphismOfPairs, D: Sequence[str]) -> int:
    if not D:
        return geometric_rank(phi)
    return geometric_rank(restrict_morphism(phi, D))


def graph_ideal(phi: MorphismOfPairs) -> tuple[IdealPresentation, tuple[str, ...]]:
    """Ideal of the graph in source x target coordinates.

    Target variables are renamed when they collide with source names.
    Returns the ideal and the (possibly renamed) target variable tuple.
    """
    src = phi.source.variables
    tgt = []
    for x in phi.target.variables:
        name = x
        while name in src or name in tgt:
            name = name + "_img"
        tgt.append(name)
    tgt = tuple(tgt)
    amb = src + tgt
    # y_k - f as one term dict: the unit of y_k, then f's exponents padded
    # with zeros on the target block, where y_k is the only term.
    pad = (0,) * len(tgt)
    gens = []
    for k, x in enumerate(phi.target.variables):
        terms = {(0,) * len(src) + pad[:k] + (1,) + pad[k + 1:]: 1}
        for e, c in phi.components[x].terms.items():
            terms[e + pad] = -c
        gens.append(Polynomial._trusted(terms, amb))
    return IdealPresentation(gens, amb), tgt


def image_closure_dimension(phi: MorphismOfPairs) -> int:
    """Dimension of the Zariski closure of the image, by eliminating the
    source variables from the graph ideal."""
    gideal, tgt = graph_ideal(phi)
    return dimension(elimination(gideal, tgt))
