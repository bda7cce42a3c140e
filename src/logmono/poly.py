"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent tuples to nonzero coefficients,
together with an ordered tuple of variable names (the ambient).  All
operations are pure; values are treated as immutable after construction.

A coefficient is canonical when it is an ``int`` for an integral value and
a ``Fraction`` with denominator greater than 1 otherwise.  Integer inputs
then stay in ``int`` arithmetic, and only results with a ``Fraction``
operand are checked for an integral value (``canonical_coefficient``,
``canonicalise_terms``).  ``str``, ``==`` and ``hash`` agree on ``n`` and
``Fraction(n)``, so printing and comparison do not see the difference.

``Polynomial(terms, ambient)`` validates: it coerces every coefficient
through ``Fraction`` to its canonical form and every exponent through
``operator.index`` (a non-integral exponent such as ``1.5`` is a
``ValueError``, never truncated), drops zero coefficients and checks
exponent lengths.  It is for input from
outside logmono, such as tests and callers' term dicts.  Every polynomial
logmono builds itself goes through ``Polynomial._trusted``, which stores
its arguments as given: the arithmetic's results, ``variable``,
``constant`` and ``zero`` (after their own checks), the expression parser
in ``frontend`` and the blowup substitutions.  It is called only where the
result is already canonical: ``terms`` is a dict whose keys are tuples of
ints of the ambient's length and whose values are nonzero canonical
coefficients, and ``ambient`` is a tuple.  The dict passed in is owned by
the result and must not be mutated afterwards.

Each rule is written once.  ``add_terms`` adds terms into a term dict and
drops the zero sums, for ``+``, ``*``, ``substitute`` and the expression
parser's sums; ``_factors`` writes a monomial for ``Monomial.as_string``
and ``str``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, ge, index, sub
from typing import Iterable, Mapping, Sequence


class AmbientMismatchError(ValueError):
    """Two polynomials live over different variable lists."""


def _exponent_tuple(exponents: Iterable[int]) -> tuple[int, ...]:
    """Exponents as a tuple of ints; a value that is not an integer (a
    float or a ``Fraction``, say) is rejected, not truncated."""
    exps = tuple(exponents)
    try:
        return tuple(map(index, exps))
    except TypeError:
        raise ValueError(f"non-integral exponent in {exps}") from None


def canonical_coefficient(c):
    """An ``int`` or ``Fraction`` as its canonical coefficient: the
    ``int`` when the value is integral, else ``c`` itself."""
    return c.numerator if c.denominator == 1 else c


def add_terms(out: dict, items: Iterable) -> dict:
    """Add each ``(exponents, coefficient)`` of ``items`` into the term
    dict ``out``, in place, dropping a term whose sum is zero; returns
    ``out``.  The one rule behind every sum of terms: ``+``, ``*``,
    ``substitute`` and the expression parser's sums."""
    get = out.get
    for e, c in items:
        s = get(e)
        if s is None:
            out[e] = c
        else:
            s += c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def canonicalise_terms(terms: dict) -> dict:
    """Turn the integral ``Fraction`` values of ``terms`` into ``int``s, in
    place.  Values that are already ``int`` are not looked at one by one:
    a term dict without a ``Fraction`` is left after one scan."""
    if Fraction in map(type, terms.values()):
        for e, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[e] = c.numerator
    return terms


class Monomial:
    """An exponent vector aligned with an ambient variable list."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        exps = _exponent_tuple(exponents)
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        self.exponents = exps

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial({self.exponents})"

    def as_string(self, ambient: Sequence[str]) -> str:
        return _factors(ambient, self.exponents) or "1"


def _factors(ambient: Sequence[str], exps: tuple[int, ...]) -> str:
    """The monomial with exponent tuple ``exps`` written ``v*w^2``, empty
    for the constant 1."""
    return "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(ambient, exps) if e > 0])


def grevlex_key(exps: tuple[int, ...]):
    # Graded reverse lexicographic: higher key = larger monomial.
    return (sum(exps), tuple(-e for e in reversed(exps)))


def grevlex_heap_key(exps: tuple[int, ...]):
    # The other way round: ascending heap keys list exponents in
    # descending grevlex order, higher total degree first, then the
    # smaller last exponent.
    return (-sum(exps), exps[::-1])


class Polynomial:
    """Sparse polynomial with rational coefficients, canonical form.

    ``terms`` maps exponent tuples to nonzero coefficients, each an ``int``
    when integral and a ``Fraction`` with denominator > 1 otherwise; the
    zero polynomial has an empty term mapping.
    """

    __slots__ = ("terms", "ambient")

    def __init__(self, terms: Mapping[tuple[int, ...], Fraction], ambient: Sequence[str]):
        amb = tuple(ambient)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = _exponent_tuple(exps)
            if len(exps) != len(amb):
                raise ValueError(f"exponent tuple {exps} does not match ambient {amb}")
            clean[exps] = c.numerator if c.denominator == 1 else c
        self.terms = clean
        self.ambient = amb

    @classmethod
    def _trusted(
        cls, terms: dict[tuple[int, ...], int | Fraction], ambient: tuple[str, ...]
    ) -> "Polynomial":
        """Wrap an already canonical term dict without copying or checking
        it (see the module docstring for the invariant)."""
        p = object.__new__(cls)
        p.terms = terms
        p.ambient = ambient
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ambient: Sequence[str]) -> "Polynomial":
        return cls._trusted({}, tuple(ambient))

    @classmethod
    def constant(cls, c, ambient: Sequence[str]) -> "Polynomial":
        amb = tuple(ambient)
        if type(c) is not int:
            c = canonical_coefficient(Fraction(c))
        return cls._trusted({(0,) * len(amb): c} if c else {}, amb)

    @classmethod
    def variable(cls, name: str, ambient: Sequence[str]) -> "Polynomial":
        amb = tuple(ambient)
        if name not in amb:
            raise ValueError(f"unknown variable {name!r} in ambient {amb}")
        i = amb.index(name)
        exps = (0,) * i + (1,) + (0,) * (len(amb) - i - 1)
        return cls._trusted({exps: 1}, amb)

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def _check_ambient(self, other: "Polynomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ambient(other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return Polynomial._trusted(canonicalise_terms(terms), self.ambient)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({e: -c for e, c in self.terms.items()}, self.ambient)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._trusted({}, self.ambient)
            return Polynomial._trusted(
                canonicalise_terms({e: c * other for e, c in self.terms.items()}),
                self.ambient,
            )
        self._check_ambient(other)
        right = other.terms.items()
        out = add_terms(
            {}, ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in right)
        )
        return Polynomial._trusted(canonicalise_terms(out), self.ambient)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        """Binary powering seeded with the power of the lowest set bit of
        ``k``: floor(log2 k) squarings and one product per further set
        bit, none of them by the constant 1.  ``p**1`` is ``p`` itself and
        ``p**0`` the constant 1."""
        if k < 0:
            raise ValueError("negative power")
        if not k:
            return Polynomial.constant(1, self.ambient)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    # -- calculus and evaluation ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        if var not in self.ambient:
            raise ValueError(f"unknown variable {var!r}")
        i = self.ambient.index(var)
        # Lowering exponent i is injective on the terms where it is
        # positive, so no two terms land on one key.
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k:
                out[exps[:i] + (k - 1,) + exps[i + 1 :]] = c * k
        return Polynomial._trusted(canonicalise_terms(out), self.ambient)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.ambient):
            raise ValueError(
                f"point of length {len(point)} for ambient of length {len(self.ambient)}"
            )
        pt = [x if type(x) is Fraction else Fraction(x) for x in point]
        # A term with a positive exponent on a zero coordinate vanishes.
        zeros = [i for i, x in enumerate(pt) if not x]
        total = Fraction(0)
        for exps, c in self.terms.items():
            if any(exps[i] for i in zeros):
                continue
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def substitute(self, values: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism sending each ambient variable to a polynomial.

        Every ambient variable must be mapped; all images must share one
        ambient, which becomes the ambient of the result.
        """
        images = [values[v] for v in self.ambient]
        target = images[0].ambient if images else ()
        one = (0,) * len(target)
        # One dict for the whole sum: adding term by term would copy the
        # running sum for every term.
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            term = None
            for img, e in zip(images, exps):
                if e:
                    f = img**e
                    term = f if term is None else term * f
            items = ((one, 1),) if term is None else term.terms.items()
            add_terms(out, [(te, tc * c) for te, tc in items])
        return Polynomial._trusted(canonicalise_terms(out), target)

    # -- monomial structure ---------------------------------------------

    def monomial_content(self) -> tuple[int, ...]:
        """The exponent tuple of the largest monomial dividing every term."""
        if not self.terms:
            raise ValueError("monomial content of the zero polynomial")
        exps = None
        for e in self.terms:
            exps = e if exps is None else tuple(min(a, b) for a, b in zip(exps, e))
        return exps

    def divide_by_monomial(self, m: tuple[int, ...]) -> "Polynomial":
        """The quotient by the monomial with exponent tuple m, which must
        divide every term."""
        out = {}
        for exps, c in self.terms.items():
            if not all(map(ge, exps, m)):
                raise ValueError(f"monomial {m} does not divide all terms")
            out[tuple(map(sub, exps, m))] = c
        return Polynomial._trusted(out, self.ambient)

    def leading_term(self) -> tuple[tuple[int, ...], int | Fraction]:
        """The grevlex-largest exponent tuple and its coefficient."""
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term()
        return self * Fraction(1, c)

    # -- ambient surgery ------------------------------------------------

    def extend_ambient(self, new_ambient: Sequence[str]) -> "Polynomial":
        """Re-express over a larger ambient containing the current one;
        the same ambient returns ``self``."""
        new = tuple(new_ambient)
        if new == self.ambient:
            return self
        pos = [new.index(v) for v in self.ambient]
        out = {}
        for exps, c in self.terms.items():
            e = [0] * len(new)
            for p, x in zip(pos, exps):
                e[p] = x
            out[tuple(e)] = c
        return Polynomial._trusted(out, new)

    # -- printing -------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exps]
            factors = _factors(self.ambient, exps)
            if not factors:
                body = str(c)
            elif c == 1:
                body = factors
            elif c == -1:
                body = "-" + factors
            else:
                body = str(c) + "*" + factors
            parts.append(body)
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s


def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """Exact quotient p / q, or None if q does not divide p.

    Single-divisor multivariate division with grevlex leading terms; the
    quotient is returned only when the remainder vanishes, and None as
    soon as a leading term of the remainder is not divisible by q's.

    One pass over one working dict: each term is keyed once, when it
    first enters, and popped from a heap largest first.  A step writes
    only terms below the one it removes, so a popped exponent never comes
    back; a term that cancels stays at zero and is skipped when its entry
    surfaces.  Each quotient term is written once.
    """
    p._check_ambient(q)
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    qe = min(q.terms, key=grevlex_heap_key)
    qc = q.terms[qe]
    tail = [(e, c) for e, c in q.terms.items() if e != qe]
    work = dict(p.terms)
    heap = [(grevlex_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    quotient: dict[tuple[int, ...], int | Fraction] = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        if not all(map(ge, e, qe)):
            return None
        c = canonical_coefficient(Fraction(c, qc))
        shift = tuple(map(sub, e, qe))
        quotient[shift] = c
        for te, tc in tail:
            ne = tuple(map(add, te, shift))
            s = work.get(ne)
            if s is None:
                work[ne] = -c * tc
                heapq.heappush(heap, (grevlex_heap_key(ne), ne))
            else:
                work[ne] = s - c * tc
    return Polynomial._trusted(quotient, p.ambient)
