"""Combinatorial principalization of monomial ideals by coordinate
blowups, and the monomialisation driver for monomial morphisms onto a
surface.

A monomial ideal is its antichain of minimal exponent tuples, checked
once where they enter (``MonomialIdeal.from_exponents`` and the root of
``goward_principalize``), and every step works on those tuples.  One pass
over the generator pairs gives the termination measure and the center; a
pair whose weight already exceeds the best one's is not counted.  The
chart action works on positions: each step reads the center's two
positions once, and a child's tuples are the parent's with one entry
absorbing the other.  That map is unimodular, hence injective, so the new
tuples need a sort and the minimal-element filter but no dedupe.  Leaf
certificates wrap the checked tuples without revalidating them.  The
blowup tree's child charts are built trusted from their validated
parents, and all leaf certificates of one tree share one residual
witness, the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import index, le, sub
from typing import Iterable, Sequence

from .blowup import BlowupTree, transform_morphism
from .chart import ChartedPair, MorphismOfPairs, RationalPoint
from .classify import is_monomial_morphism_at, is_quasi_prepared, top_fitting_ideal
from .ideal import IdealPresentation, PrincipalMonomialCertificate, is_principal_monomial_at
from .poly import Monomial, Polynomial


class DepthLimitError(RuntimeError):
    """Blowup tree exceeded the configured depth cap."""


class TerminationMeasureError(AssertionError):
    """The termination measure failed to decrease on a blowup step."""


class NonMonomialInputError(ValueError):
    """Input outside the monomial subclass handled combinatorially."""


_PRINCIPAL_SCAN = (0, None, None, None)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators over a fixed variable tuple.

    ``generators`` is an antichain under divisibility in lex order:
    ``from_exponents`` and ``transform`` reduce to one, and the dataclass
    constructor trusts its caller to pass one.  Two generators of an
    antichain are incomparable, so their difference vector has a positive
    and a negative entry; the pair scan relies on this.  Frozen, so the
    pair scan is computed once, when the ideal is built."""

    variables: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]

    @classmethod
    def from_exponents(
        cls, variables: Sequence[str], exponents: Sequence[Sequence[int]]
    ) -> "MonomialIdeal":
        """The ideal of the given exponent tuples, each checked to hold one
        non-negative int per variable (ValueError naming the tuple)."""
        variables = tuple(variables)
        n = len(variables)
        return cls(variables, _antichain(_checked(e, n) for e in exponents))

    def is_principal(self) -> bool:
        return len(self.generators) <= 1

    def __post_init__(self):
        """Set ``_pair_scan`` to (number of generator pairs, their minimal
        Euclidean weight, the target pair, its difference vector), from one
        pass over the pairs; a principal ideal gives (0, None, None, None).
        A plain attribute, set once here, is read without the lock that
        ``functools.cached_property`` takes on first access.

        The target pair has the minimal weight, ties going to the pair
        first in lex order, which is the order of the scan.  Each
        difference d is computed once.  In an antichain max(d) is the
        largest positive entry a and min(d) the negative entry -b of
        largest magnitude, and the weight is (a + b, number of entries
        equal to a or -b); a pair whose a + b exceeds the best weight's
        cannot win, so its entries are not counted.  Blowing up the center
        pairing an entry at a with one at -b replaces that entry by a value
        strictly inside (-b, a), so in each chart the replaced entry leaves
        its extremal class and never joins the other one: the weight
        strictly lex-decreases unless the pair turns comparable.
        """
        gens = self.generators
        n = len(gens)
        if n < 2:
            object.__setattr__(self, "_pair_scan", _PRINCIPAL_SCAN)
            return
        weight = pair = diff = None
        for g, h in combinations(gens, 2):
            d = list(map(sub, g, h))
            a = max(d)
            b = min(d)
            if weight is not None and a - b > weight[0]:
                continue
            key = (a - b, d.count(a) + d.count(b))
            if weight is None or key < weight:
                weight, pair, diff = key, (g, h), d
        object.__setattr__(self, "_pair_scan", (n * (n - 1) // 2, weight, pair, diff))

    def transform(self, c: int, j: int) -> "MonomialIdeal":
        """The ideal in chart c of the blowup at the center of positions
        c and j: exponent c absorbs exponent j.  The chart map is
        unimodular, so it is injective on exponent vectors and the images
        of distinct generators are distinct; they are sorted and go
        straight to the minimal-element filter."""
        new = [e[:c] + (e[c] + e[j],) + e[c + 1:] for e in self.generators]
        new.sort()
        return MonomialIdeal(self.variables, _minimal(new))


def _checked(e: Iterable[int], n: int) -> tuple[int, ...]:
    """e as a tuple of n non-negative ints; ValueError naming e if it is
    not one."""
    try:
        exps = tuple(map(index, e))
    except TypeError:
        raise ValueError(f"non-integral exponent in {e}") from None
    if len(exps) != n:
        raise ValueError(f"exponent tuple {exps} has length {len(exps)}, not {n}")
    if n and min(exps) < 0:
        raise ValueError(f"negative exponent in {exps}")
    return exps


def _antichain(gens: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The minimal exponents under divisibility, in lex order."""
    return _minimal(sorted(set(gens)))


def _minimal(ordered: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The minimal elements of distinct exponents in lex order.

    A proper divisor precedes its multiples in lex order, and dividing is
    transitive, so a candidate is tested only against the minima kept
    before it."""
    keep = []
    for g in ordered:
        for h in keep:
            if all(map(le, h, g)):
                break
        else:
            keep.append(g)
    return tuple(keep)


# ---------------------------------------------------------------------------
# Center selection and the termination measure


def choose_center(ideal: MonomialIdeal, divisor_vars: Sequence[str]) -> tuple[int, int]:
    """Codimension-two center resolving the target pair, as the positions
    of its two variables.

    For the target pair with difference vector d, take the coordinate of
    maximal positive difference against the coordinate of maximal
    negative difference (the pair's largest non-principality defect,
    ties to the earliest variable).  The pair's Euclidean weight drops
    in every chart, and a comparable pair stays comparable under the
    chart transforms, which makes the strategy terminate.  d is the one
    the pair scan kept.
    """
    d = ideal._pair_scan[3]
    assert d, "principal ideal needs no center"
    names = ideal.variables
    divisor = set(divisor_vars)
    off = [k for k, x in enumerate(d) if x and names[k] not in divisor]
    if off:
        # Name the first positive entry off the divisor, else the first
        # negative one.
        k = min(off, key=lambda k: (d[k] < 0, k))
        raise NonMonomialInputError(
            f"generators differ on non-divisor variable {names[k]!r}"
        )
    return d.index(max(d)), d.index(min(d))


def termination_measure(ideal: MonomialIdeal) -> tuple:
    """Well-founded measure: (number of incomparable generator pairs,
    minimal Euclidean weight of a pair difference).  Principal ideals
    measure (0,).

    The pair count never increases (comparability of a generator pair is
    preserved by the monotone chart transforms), and the attacked pair
    either turns comparable or strictly drops its weight, so the minimal
    weight falls whenever the count does not.
    """
    count, weight = ideal._pair_scan[:2]
    return (count, weight) if count else (0,)


# ---------------------------------------------------------------------------
# Principalization


def goward_principalize(
    ideal: MonomialIdeal,
    chart: ChartedPair,
    max_depth: int = 64,
) -> BlowupTree:
    """Blow up codimension-two coordinate centers until the transform of
    the ideal is principal in every chart.

    The ideal's generators must be an antichain (see ``MonomialIdeal``).
    The root loop checks that each holds one non-negative int per
    variable, which the dataclass constructor does not, and only divisor
    variables.  The termination measure must strictly decrease on every
    non-principal child; a violation raises TerminationMeasureError.  Each
    expanded chart's ideal is measured once: a non-principal child when it
    is compared with its parent, and that value is its ``before`` when it
    is expanded in turn; only the root is measured when it is expanded.
    The zero ideal has no generator to certify and raises ValueError.

    Each step reads the center's positions once, from ``choose_center``,
    and transforms both children by position (``MonomialIdeal.transform``);
    the names are looked up only for ``BlowupTree.expand``.  A leaf's
    certificate wraps its generator tuple, which the root loop checked
    and the chart maps kept non-negative ints of the same length, in a
    ``Monomial`` without revalidating it.  Every leaf certificate holds
    the same witness, one constant 1 built per call, and every child
    chart is built trusted from its validated parent
    (``blowup.blowup_chart``).
    """
    names = chart.variables
    if ideal.variables != names:
        raise ValueError("ideal variables must match the chart")
    divisor = set(chart.divisor_vars)
    for e in ideal.generators:
        for v, x in zip(names, _checked(e, len(names))):
            if x and v not in divisor:
                raise NonMonomialInputError(
                    f"generator exponent on non-divisor variable {v!r}"
                )
    if not ideal.generators:
        raise ValueError("zero ideal cannot be principalized")
    # Every chart has the root's names and polynomials are immutable, so
    # all leaves share one residual witness.
    witness = Polynomial.constant(1, names)
    tree = BlowupTree(chart, ideal)
    worklist = [(tree.root, 0, None)]
    while worklist:
        node, depth, before = worklist.pop()
        current: MonomialIdeal = node.payload
        gens = current.generators
        if len(gens) < 2:
            monomial = Monomial.__new__(Monomial)
            monomial.exponents = gens[0]
            node.certificate = PrincipalMonomialCertificate(monomial, witness)
            continue
        if depth >= max_depth:
            raise DepthLimitError(f"blowup depth exceeded {max_depth}")
        i, j = choose_center(current, node.chart.divisor_vars)
        if before is None:
            before = termination_measure(current)
        # The children come in center order: chart i absorbs j, and back.
        center = names[i], names[j]
        for child, (c, k) in zip(tree.expand(node, center), ((i, j), (j, i))):
            child.payload = transformed = current.transform(c, k)
            after = None
            if len(transformed.generators) > 1:
                after = termination_measure(transformed)
                if not after < before:
                    raise TerminationMeasureError(
                        f"measure did not decrease: {before} -> {after} "
                        f"(center {center[0]},{center[1]})"
                    )
            worklist.append((child, depth + 1, after))
    return tree


# ---------------------------------------------------------------------------
# Monomialisation driver


@dataclass
class LeafCertificate(PrincipalMonomialCertificate):
    """The leaf's re-checked principal certificate, with the exponent
    matrix of its monomial morphism."""

    exponent_matrix: list[tuple[int, ...]]


def monomial_ideal_from_presentation(
    I: IdealPresentation, chart: ChartedPair
) -> MonomialIdeal:
    """Extract the monomial ideal of single-term generators; a nonzero
    constant generator yields the unit ideal."""
    exps = []
    for g in I.generators:
        if len(g.terms) != 1:
            raise NonMonomialInputError(f"generator {g} is not a single term")
        ((e, _),) = g.terms.items()
        exps.append(e)
    if not exps:
        raise ValueError("zero ideal cannot be principalized")
    return MonomialIdeal.from_exponents(chart.variables, exps)


def monomialize_monomial_morphism(
    phi: MorphismOfPairs, max_depth: int = 64
) -> BlowupTree:
    """Principalize the top log-Fitting ideal of a monomial morphism onto a
    surface by coordinate blowups, certifying every leaf strongly prepared
    and monomial of full exponent rank.

    Each leaf is certified once, at the origin of its chart.  The input
    components are single terms and coordinate blowups map monomials to
    monomials, so every leaf component and every top-Fitting generator is
    a single term.  Both unit-at-point tests (the principal re-check and
    the monomial check) then give the same answer at every point of the
    chart, and the origin, where every variable vanishes, decides them
    all."""
    if len(phi.target.variables) != 2:
        raise ValueError("driver requires a surface target")
    for x, p in phi.components.items():
        if len(p.terms) != 1:
            raise NonMonomialInputError(
                f"component {x!r} is not monomial; the general pipeline is "
                "out of scope"
            )
    ok, diags = is_quasi_prepared(phi)
    if not ok:
        raise ValueError("not quasi-prepared: " + "; ".join(diags))

    fitting = top_fitting_ideal(phi)
    ideal = monomial_ideal_from_presentation(fitting, phi.source)
    tree = goward_principalize(ideal, phi.source, max_depth=max_depth)

    for leaf in tree.leaves():
        leaf_phi = transform_morphism(phi, leaf)
        origin = RationalPoint((Fraction(0),) * len(leaf.chart.variables))
        # Independent re-verification of the principal certificate.
        cert = is_principal_monomial_at(
            top_fitting_ideal(leaf_phi), origin.coordinates, leaf.chart.divisor_vars
        )
        if cert is None:
            raise AssertionError(
                f"leaf failed the principal monomial re-check at {origin}"
            )
        matrix = is_monomial_morphism_at(leaf_phi, origin)
        if matrix is None:
            raise AssertionError(f"leaf not monomial at {origin}")
        leaf.certificate = LeafCertificate(
            cert.generator_monomial, cert.residual_witness, matrix
        )
    return tree
