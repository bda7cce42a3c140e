"""Rank invariants: pointwise rank, geometric rank, log-rank, and the
image-dimension computation through elimination ideals.

One fraction-free Bareiss kernel (``_bareiss_rank``) gives every rank: the
pointwise and log ranks eliminate an integer matrix (each rational row
with its denominators cleared), the geometric rank a polynomial one.
``jacobian_at`` evaluates the Jacobian at a point straight from the
components' terms, with no partial-derivative polynomials.

The geometric rank is certified at one fixed point first.  The rank of
the Jacobian at a point is a lower bound for its generic rank: a k x k
minor that is nonzero at the point is a nonzero polynomial.  No rank
exceeds min(n, N), the smaller side of the N x n matrix, so a point at
which the rank reaches min(n, N) proves that the generic rank is exactly
min(n, N).  ``geometric_rank`` evaluates at the first n primes
(``probe_point``); where the rank there falls short, which happens when
the generic rank does or when the point lies on the zero set of every
maximal minor, it runs the exact polynomial kernel.  So every answer is
exact: the point either proves the rank or is not used, and nothing is
sampled.  The probe is skipped, for the polynomial kernel, when a power
of a probe coordinate could need more than ``PROBE_MAX_BITS`` bits: the
kernel keeps an exponent as a number, where the probe would expand
3^(10^9) into a 200 MB int."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
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


def jacobian_at(
    phi: MorphismOfPairs, point: Sequence[int | Fraction]
) -> list[list[int | Fraction]]:
    """The Jacobian at ``point``, rows per target variable and columns per
    source variable, read off the components' term dicts: entry (x, v) is
    the sum, over the terms c*s^e of component x with e_v > 0, of
    c * e_v * prod_i p_i^(e_i - [i = v]).  Int coefficients at an int
    point give ints; nothing is converted to ``Fraction``."""
    n = len(phi.source.variables)
    if len(point) != n:
        raise ValueError(f"point of length {len(point)} for ambient of length {n}")
    matrix = []
    for x in phi.target.variables:
        row = [0] * n
        for e, c in phi.components[x].terms.items():
            for v, k in enumerate(e):
                if k:
                    t = c * k
                    for i, ei in enumerate(e):
                        if i == v:
                            ei -= 1
                        if ei:
                            t *= point[i] ** ei
                    row[v] += t
        matrix.append(row)
    return matrix


# The largest power, in bits, that ``geometric_rank`` evaluates at its
# probe point: the parser's budget for a coefficient
# (``frontend.MAX_COEFFICIENT_BITS``), so the probe's entries are no larger
# than the numbers a problem may spell out.
PROBE_MAX_BITS = 10_000


@cache
def probe_point(n: int) -> tuple[int, ...]:
    """The first n primes: the one point at which ``geometric_rank`` tries
    to certify the generic rank (see the module docstring)."""
    primes: list[int] = []
    q = 2
    while len(primes) < n:
        if all(q % p for p in primes):
            primes.append(q)
        q += 1
    return tuple(primes)


def _degree(x: int | Polynomial) -> int:
    """Total degree of a matrix entry, -1 for zero; an int has degree 0."""
    if type(x) is int:
        return 0 if x else -1
    return x.total_degree


def _bareiss_rank(m: list[list[int | Polynomial]]) -> int:
    """Rank of a matrix of ints, or of polynomials over one ambient, by
    Bareiss's fraction-free elimination (Math. Comp. 1968); ``m`` is
    consumed.

    The pivot is a nonzero entry of lowest total degree, the first in
    (row, column) order; the rank does not depend on the choice.  After
    each step every entry left is a minor of the input, so dividing by the
    previous pivot is exact (``//`` for ints, ``exact_divide`` for
    polynomials) and the entries stay the size of those minors.  The first
    step has no previous pivot, so it divides by nothing.
    """
    rows = list(range(len(m)))
    cols = list(range(len(m[0]) if m else 0))
    prev = None
    rank = 0
    while rows and cols:
        nonzero = [(d, r, c) for r in rows for c in cols if (d := _degree(m[r][c])) >= 0]
        if not nonzero:
            break
        _, pr, pc = min(nonzero)
        top = m[pr]
        pivot = top[pc]
        rows.remove(pr)
        cols.remove(pc)
        for r in rows:
            low = m[r]
            a = low[pc]
            for c in cols:
                q = low[c] * pivot - a * top[c]
                if prev is not None:
                    q = q // prev if type(q) is int else exact_divide(q, prev)
                    assert q is not None, "Bareiss division must be exact"
                low[c] = q
        prev = pivot
        rank += 1
    return rank


def rational_matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over the rationals.  Scaling a row by a nonzero number keeps
    the rank, so each row is first multiplied by the lcm of its entries'
    denominators (1 for an int) and the integer matrix is eliminated."""
    return _bareiss_rank([_cleared_row(r) for r in rows])


def _cleared_row(row: Sequence[int | Fraction]) -> list[int]:
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row]


def symbolic_matrix_rank(rows: list[list[Polynomial]]) -> int:
    """Rank over the fraction field of the polynomial ring."""
    return _bareiss_rank([list(r) for r in rows])


def rank_at_point(phi: MorphismOfPairs, a: RationalPoint) -> int:
    return rational_matrix_rank(jacobian_at(phi, a.coordinates))


def geometric_rank(phi: MorphismOfPairs) -> int:
    """The Jacobian's rank over the fraction field: min(n, N) when the
    rank at ``probe_point(n)`` reaches it, which proves it, and otherwise
    the polynomial kernel's answer.  A monomial of total degree d is at
    most d * b bits at the probe point, b the bit length of its largest
    coordinate; a map with d * b over ``PROBE_MAX_BITS`` is not probed."""
    n = len(phi.source.variables)
    top = min(n, len(phi.target.variables))
    if not top:
        return 0
    point = probe_point(n)
    degree = max([p.total_degree for p in phi.components.values()])
    if (
        degree * point[-1].bit_length() <= PROBE_MAX_BITS
        and rational_matrix_rank(jacobian_at(phi, point)) == top
    ):
        return top
    return symbolic_matrix_rank(jacobian(phi))


def log_rank_at_point(phi: MorphismOfPairs, a: RationalPoint) -> int:
    # A divisorial row is already an integer tuple; only free rows are evaluated.
    pt = a.coordinates
    return rational_matrix_rank(
        [r if type(r) is tuple else [e.evaluate(pt) for e in r] for r in log_jacobian(phi)]
    )


def restrict_morphism(phi: MorphismOfPairs, D: Sequence[str]) -> MorphismOfPairs:
    """Restrict to the stratum where the variables in D vanish: a term with
    a positive exponent on one of them vanishes, and every other term drops
    its exponents on them, all zero, so distinct terms stay distinct."""
    D = tuple(D)
    for v in D:
        if v not in phi.source.divisor_vars:
            raise ValueError(f"{v!r} is not a source divisor variable")
    amb = phi.source.variables
    keep = [i for i, v in enumerate(amb) if v not in D]
    drop = [i for i, v in enumerate(amb) if v in D]
    rest = tuple(amb[i] for i in keep)
    new_source = ChartedPair(rest, tuple(v for v in phi.source.divisor_vars if v not in D))
    comps = {}
    for x, p in phi.components.items():
        kept = (e for e in p.terms if not any(e[i] for i in drop))
        comps[x] = Polynomial._trusted({tuple(e[i] for i in keep): p.terms[e] for e in kept}, rest)
    return MorphismOfPairs._trusted(new_source, phi.target, comps)


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
