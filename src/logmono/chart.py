"""Charted pairs: affine charts with SNC divisors, points, and morphisms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .ideal import IdealPresentation
from .poly import Polynomial


class DegenerateMorphismError(ValueError):
    """A divisor variable pulls back to the zero polynomial."""


def split_positions(
    variables: tuple[str, ...], members: Sequence[str]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions in ``variables`` of the names in ``members`` and of
    every other name, each in the order of ``variables``."""
    inside = set(members)
    flags = [v in inside for v in variables]
    return (
        tuple(i for i, f in enumerate(flags) if f),
        tuple(i for i, f in enumerate(flags) if not f),
    )


@dataclass(frozen=True)
class ChartedPair:
    """An affine chart with a subset of coordinates cutting the divisor.

    The one chart validator: the variable names are distinct, and each
    divisor name is declared and listed once (``frontend`` reports the same
    messages at the chart's line).
    """

    variables: tuple[str, ...]
    divisor_vars: tuple[str, ...]

    def __post_init__(self):
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise ValueError("duplicate variable declaration")
        divisor = set(self.divisor_vars)
        if len(divisor) != len(self.divisor_vars) or not divisor <= names:
            # Name the first bad divisor entry in listing order.
            seen = set()
            for d in self.divisor_vars:
                if d not in names:
                    raise ValueError(f"divisor variable {d!r} not declared")
                if d in seen:
                    raise ValueError(f"duplicate divisor variable {d!r}")
                seen.add(d)
        # Keep divisor variables in chart order for determinism.
        object.__setattr__(
            self,
            "divisor_vars",
            tuple(filter(divisor.__contains__, self.variables)),
        )

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], divisor_vars: tuple[str, ...]
    ) -> "ChartedPair":
        """Wrap fields that already pass the validator, with the divisor
        already in chart order, without checking them (the model is
        ``Polynomial._trusted``).  ``blowup.blowup_chart`` builds each child
        chart this way from its validated parent."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "variables", variables)
        object.__setattr__(pair, "divisor_vars", divisor_vars)
        return pair

    # (divisor positions, free positions) in ``variables``, computed on
    # first use and kept: most charts built by blowups never ask.
    # (``cached_property`` writes the instance dict directly, which a
    # frozen dataclass allows.)
    @cached_property
    def positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return split_positions(self.variables, self.divisor_vars)

    @property
    def free_vars(self) -> tuple[str, ...]:
        return tuple(self.variables[i] for i in self.positions[1])

    def divisor_product(self) -> Polynomial:
        exps = tuple(int(v in self.divisor_vars) for v in self.variables)
        return Polynomial._trusted({exps: 1}, self.variables)

    def is_divisor_monomial(self, p: Polynomial) -> bool:
        """Whether p is c*u^a with a supported on the divisor variables (a
        nonzero constant included): one term whose exponents vanish off the
        divisor, so p vanishes only on the divisor."""
        if len(p.terms) != 1:
            return False
        (exps,) = p.terms
        return not any(exps[i] for i in self.positions[1])


@dataclass(frozen=True)
class RationalPoint:
    coordinates: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "coordinates",
            tuple(c if type(c) is Fraction else Fraction(c) for c in self.coordinates),
        )

    @classmethod
    def _trusted(cls, coordinates: tuple[Fraction, ...]) -> "RationalPoint":
        """Wrap a tuple of ``Fraction``s without the coercion pass (the
        model is ``ChartedPair._trusted``).  ``frontend.parse_point`` builds
        each coordinate as a ``Fraction`` itself."""
        point = object.__new__(cls)
        object.__setattr__(point, "coordinates", coordinates)
        return point

    def __len__(self):
        return len(self.coordinates)


class MorphismOfPairs:
    """Source and target charts plus one polynomial per target variable."""

    def __init__(
        self,
        source: ChartedPair,
        target: ChartedPair,
        components: Mapping[str, Polynomial],
    ):
        if set(components) != set(target.variables):
            raise ValueError("components must cover exactly the target variables")
        for name, p in components.items():
            if p.ambient != source.variables:
                raise ValueError(
                    f"component {name!r} has ambient {p.ambient}, "
                    f"expected {source.variables}"
                )
        self._fields(source, target, {v: components[v] for v in target.variables})

    @classmethod
    def _trusted(
        cls, source: ChartedPair, target: ChartedPair, components: dict[str, Polynomial]
    ) -> "MorphismOfPairs":
        """Wrap components that already cover exactly the target variables,
        in their order, each over the source's ambient, without checking
        them (the model is ``ChartedPair._trusted``).  ``parse_problem``,
        ``blowup.transform_morphism`` and ``rank.restrict_morphism`` build
        their morphisms this way."""
        phi = object.__new__(cls)
        phi._fields(source, target, components)
        return phi

    def _fields(self, source, target, components) -> None:
        self.source = source
        self.target = target
        self.components = components
        # Two caches: classify.is_quasi_prepared keeps its verdict in
        # _quasi_prepared, and fitting.log_fitting_ideal keeps each form
        # degree's ideal (with its Groebner basis cache) in _log_fitting.
        # Nothing reassigns the three fields above after construction, so
        # neither cache can go stale.
        self._quasi_prepared: Optional[tuple[bool, tuple[str, ...]]] = None
        self._log_fitting: dict[int, IdealPresentation] = {}

    def component_list(self) -> list[Polynomial]:
        return [self.components[v] for v in self.target.variables]

    def pullback(self, f: Polynomial) -> Polynomial:
        """Substitute the components into a polynomial in target variables."""
        return f.substitute(self.components)

    def with_empty_target_divisor(self) -> "MorphismOfPairs":
        return MorphismOfPairs(
            self.source,
            ChartedPair(self.target.variables, ()),
            self.components,
        )

    def __repr__(self):
        parts = ", ".join(f"{v}={p}" for v, p in self.components.items())
        return f"MorphismOfPairs({parts})"


def stratum_of_point(chart: ChartedPair, point: RationalPoint) -> tuple[str, ...]:
    """The divisor variables vanishing at the point; its size is the s of
    the s-point."""
    if len(point) != len(chart.variables):
        raise ValueError("point length does not match chart")
    coords = dict(zip(chart.variables, point.coordinates))
    return tuple(v for v in chart.divisor_vars if coords[v] == 0)


def validate_pair_condition(phi: MorphismOfPairs) -> tuple[bool, list[str]]:
    """Each divisorial component must vanish only on the source divisor.

    Over the algebraic closure this is the containment of the reduced
    preimage of the target divisor in the source divisor.  By the
    Nullstellensatz a component f satisfies it exactly when f divides a
    power of the product of the source divisor variables, and in a UFD the
    divisors of a monomial are a constant times a monomial.  So the
    condition holds exactly when f = c*u^a with a supported on the source
    divisor variables (``ChartedPair.is_divisor_monomial``).
    """
    diagnostics: list[str] = []
    ok = True
    for x in phi.target.divisor_vars:
        comp = phi.components[x]
        if comp.is_zero():
            raise DegenerateMorphismError(
                f"divisor variable {x!r} pulls back to zero"
            )
        if not phi.source.is_divisor_monomial(comp):
            ok = False
            diagnostics.append(
                f"pullback of {x!r} vanishes outside the source divisor: {comp}"
            )
    return ok, diagnostics


def preimage_equality_check(phi: MorphismOfPairs) -> bool:
    """Whether the reduced preimage of the target divisor equals the source
    divisor.  False whenever the pair condition fails, so a True answer
    also certifies the pair condition.

    Under the pair condition the product of the divisorial components is
    c*u^s, with s the sum of their exponent vectors, and its reduced zero
    set is the union of the hyperplanes u = 0 with a positive entry in s.
    """
    ok, _ = validate_pair_condition(phi)
    if not ok:
        return False
    vectors = [(0,) * len(phi.source.variables)]
    for x in phi.target.divisor_vars:
        (exps,) = phi.components[x].terms
        vectors.append(exps)
    total = tuple(map(sum, zip(*vectors)))
    return all(total[i] > 0 for i in phi.source.positions[0])
