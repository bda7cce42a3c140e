"""Ideal-theoretic engine: Groebner bases and derived decision procedures.

Buchberger's algorithm over the rationals with sugar selection and
Gebauer-Moeller pair installation (Gebauer & Moeller, "On an installation
of Buchberger's algorithm", JSC 1988): the B, M and F criteria and the
coprime-leading-term criterion are applied once per new basis element.
Installing an element computes its leading exponent tuple and degree
once, and each new pair's lcm (packed inline) and whether its two leading
terms share a variable once; the B pass runs only while a pair is
pending, and the M/F pass only when an active element can pair with the
new one.  An input enters packed straight from its term dict, with one
guard test for all its terms.
Reduction queues each term once and pops terms from a heap, largest first.
On top of it: membership, radical membership by unique factorization, by
the supports of a monomial ideal's generators (its radical is generated by
the square-free monomials on them, Herzog & Hibi, Monomial Ideals, Prop.
1.2.4) or by the Rabinowitsch trick, elimination by block orders, Krull
dimension from the leading-term ideal, and the locally-principal-monomial
test with the one "unit at the point" rule (``local_monomial``).

The kernel is fraction-free, after Bareiss's integer-preserving
elimination (Math. Comp. 1968): basis elements are primitive integer
polynomials, and a reduction step scales the working polynomial by an
integer instead of dividing by a leading coefficient.  A remainder is M
times the rational one, for an integer multiplier M that the reduction
returns with it, so rationals appear only in outputs: the monic reduced
basis and ``normal_form`` divide each coefficient once.  Leading terms,
sugars, pair order and criteria are those of monic rational reduction, so
every basis is the same term for term.

Buchberger's loop (``_minimal_records``) and the final interreduction
(``_interreduced``) are two steps of one kernel.  ``elimination`` runs
the second on the kept block only: under a block order the elements of a
Groebner basis whose leading term is free of the eliminated variables are
free of them in every term and generate the elimination ideal, and a
leading term that involves an eliminated variable divides no term of
theirs, so the other elements would be reduced only to be thrown away.

Inside the kernel a monomial is one int, its packed exponent vector
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  A ``MonomialOrder`` is a 0/1
weight matrix, and the int of an exponent tuple e over n variables has
2n fields of B bits: from the lowest, e_0, ..., e_(n-1), and then the
weighted sums of e, the matrix's top row highest.  The top bit of each
field is a guard that no packed monomial sets.  Packing is linear, so a
product of monomials is the sum of their ints; the weight fields make int
order the monomial order, so the heap holds plain ints; and x^lt divides
x^e iff P(e) - P(lt) sets no guard bit (the lowest field that goes
negative borrows into its guard), the difference being the shift
P(e - lt).  B is the narrowest of 8, 16, 32, ... bits whose fields hold
four times the input's largest degree.  Every sum of exponents is checked
against the guard bits; one that sets any abandons the computation, which
reruns from its inputs at twice the width, so results are exact for any
exponent.  Exponent tuples appear only at the boundary: the inputs are
packed, the outputs unpacked, and each basis element's leading exponent
is also kept as a tuple for the lcms of its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import mul, or_
from typing import Sequence

from .poly import (
    AmbientMismatchError,
    Monomial,
    Polynomial,
    grevlex_key,
)


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder:
    """A total order on exponent tuples: grevlex within each of two blocks
    of variables, the first ``split`` variables and the rest, and the
    first block compared first.

    ``key`` sorts ascending: a larger key is a larger monomial.
    ``weights(n)`` is the same order on n variables as a 0/1 weight
    matrix, top row first: per block [lo, hi), its degree and then the
    partial sums e_lo + ... + e_(k-1) for k = hi - 1 down to lo + 1.  Two
    exponent tuples compare as their vectors of weighted sums,
    lexicographically.
    """

    def __init__(self, key, split: int):
        self.key = key
        self.split = split

    def weights(self, n: int) -> list[tuple[int, ...]]:
        rows = []
        for lo, hi in ((0, self.split), (self.split, n)):
            rows += [tuple(int(lo <= i < k) for i in range(n)) for k in range(hi, lo, -1)]
        return rows


def grevlex_order() -> MonomialOrder:
    return MonomialOrder(grevlex_key, 0)


@cache
def block_order(n_eliminated: int) -> MonomialOrder:
    """Eliminated block (the first ``n_eliminated`` variables) dominates."""

    def key(exps):
        return (grevlex_key(exps[:n_eliminated]), grevlex_key(exps[n_eliminated:]))

    return MonomialOrder(key, n_eliminated)
# ---------------------------------------------------------------------------
# Presentation


class EmptyVarietyError(ValueError):
    """Operation undefined on the unit ideal."""


@dataclass
class PrincipalMonomialCertificate:
    generator_monomial: Monomial
    residual_witness: Polynomial


class IdealPresentation:
    """A generator list over a fixed ambient, with its reduced grevlex
    basis, computed on first use and cached."""

    def __init__(self, generators: Sequence[Polynomial], ambient: Sequence[str]):
        amb = tuple(ambient)
        gens = []
        for g in generators:
            if g.ambient != amb:
                raise AmbientMismatchError(
                    f"generator ambient {g.ambient} does not match {amb}"
                )
            if not g.is_zero():
                gens.append(g)
        self.generators = gens
        self.ambient = amb
        self._basis: list[Polynomial] | None = None

    @classmethod
    def _from_basis(cls, basis: list[Polynomial], ambient: tuple[str, ...]) -> "IdealPresentation":
        """The ideal generated by its own reduced grevlex basis, whose
        elements are nonzero and over ``ambient``; nothing is checked."""
        out = object.__new__(cls)
        out.generators = list(basis)
        out.ambient = ambient
        out._basis = basis
        return out

    def __repr__(self):
        return f"IdealPresentation([{', '.join(map(str, self.generators))}])"

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def basis(self) -> list[Polynomial]:
        if self._basis is None:
            self._basis = reduced_groebner_basis(self.generators, grevlex_order())
        return self._basis


# ---------------------------------------------------------------------------
# Packed exponent vectors (see the module docstring)


class _Overflow(Exception):
    """A sum of exponents outgrew the packing's fields."""


class _Packing:
    """Exponent tuples over n variables, packed for an order with fields
    of ``width`` bits: the int of e is ``sum(map(mul, e, units))``."""

    def __init__(self, order: MonomialOrder, n: int, width: int):
        rows = order.weights(n)
        top = n + len(rows)
        self.units = tuple(
            (1 << i * width) + sum(row[i] << (top - 1 - r) * width for r, row in enumerate(rows))
            for i in range(n)
        )
        self.guard = sum(1 << (f + 1) * width - 1 for f in range(top))
        self.n = n
        self.width = width
        self.unpackers = {}
        self.unpack = self.unpacker(0)

    def pack(self, exps) -> int:
        """The int of ``exps``, checked against the guard bits.  The check
        is exact while every field stays below 2^width, as it does for an
        input (``_packed_run`` picks the width from their largest degree)
        and for the lcm of two packed monomials (each of its fields is at
        most the sum of theirs).  The kernel inlines this sum and test."""
        p = sum(map(mul, exps, self.units))
        if p & self.guard:
            raise _Overflow
        return p

    def unpacker(self, cut: int):
        """The map from a packed monomial to its exponents of the variables
        from the ``cut``-th on."""
        unpack = self.unpackers.get(cut)
        if unpack is None:
            n, width = self.n, self.width
            mask = (1 << width) - 1
            shifts = range(cut * width, n * width, width)
            unpack = lambda p: tuple([p >> s & mask for s in shifts])
            self.unpackers[cut] = unpack
        return unpack


# One packing per order split, variable count and width, built on first use.
_PACKINGS: dict[tuple[int, int, int], _Packing] = {}


def _packed_run(run, order: MonomialOrder, n: int, polys: Sequence[Polynomial]):
    """``run(packing)`` at the narrowest width for ``polys``, widened until
    no sum of exponents overflows."""
    degree = max([max(map(sum, p.terms)) for p in polys], default=0)
    width = 8
    while degree >> width - 3:
        width *= 2
    while True:
        packing = _PACKINGS.get((order.split, n, width))
        if packing is None:
            packing = _PACKINGS[order.split, n, width] = _Packing(order, n, width)
        try:
            return run(packing)
        except _Overflow:
            width *= 2


# ---------------------------------------------------------------------------
# Core Buchberger machinery
#
# A divisor record (lt, lc, tail) stands for the primitive integer
# polynomial lc*x^lt + tail: lt is packed, lc > 0, tail is a list of
# (packed exponent, int) pairs below lt, and the coefficients have no
# common factor.  Records are integer throughout.  ``_reduce`` returns a
# remainder together with the multiplier M it carries: the remainder is M
# times the one that monic rational division takes through the same
# steps.  Rationals appear only in outputs, one division by M (and by
# what was cleared from the input) per coefficient.


def _packed(terms: dict, packing: _Packing) -> tuple[dict, int]:
    """``terms`` times the lcm D of their denominators, as ints keyed by
    packed exponents, and D.  One guard test covers every term: the or of
    their ints sets a guard bit iff one of them does.  (``_packed_run``
    picks a width whose fields hold any input's weighted sums, so the
    test does not fire for inputs.)"""
    units = packing.units
    d = lcm(*[c.denominator for c in terms.values()])
    if d == 1:
        out = {sum(map(mul, e, units)): c for e, c in terms.items()}
    else:
        out = {
            sum(map(mul, e, units)): c.numerator * (d // c.denominator)
            for e, c in terms.items()
        }
    if reduce(or_, out) & packing.guard:
        raise _Overflow
    return out, d


def _unpacked(terms: dict, d: int, unpack) -> dict:
    """The int ``terms`` divided by d > 0, with canonical coefficients and
    keyed by exponent tuples."""
    if d == 1:
        return {unpack(e): c for e, c in terms.items()}
    return {unpack(e): c // d if not c % d else Fraction(c, d) for e, c in terms.items()}


def _primitive_record(lt, terms: dict) -> tuple:
    """The record of the int ``terms`` (consumed) with leading exponent
    ``lt``: divided by their content, signed so that the leading
    coefficient is positive."""
    content = gcd(*terms.values())
    lc = terms.pop(lt)
    if lc < 0:
        content = -content
    return lt, lc // content, [(e, c // content) for e, c in terms.items()]


def _record(g: Polynomial, packing: _Packing) -> tuple:
    terms = _packed(g.terms, packing)[0]
    return _primitive_record(max(terms), terms)


def _reduce(work: dict, divisors: Sequence, guard: int) -> tuple[dict, int]:
    """Fully reduce the int term dict ``work`` (consumed) by the divisor
    records; return the remainder, largest term first, and its
    multiplier M.

    Each term of ``work`` is queued once, when it first enters, on a heap
    that pops the largest first.  A step that removes the term c*x^e with
    the record (lt, a, tail) sets work to
    (a/g)*work - (c/g)*x^(e-lt)*tail, g = gcd(a, c), and multiplies M by
    a/g.  It writes only terms below e, so a popped exponent never comes
    back.  A term that cancels stays in ``work`` at zero and is skipped
    when its entry surfaces.  A remainder term is stored with the
    multiplier of its time and scaled up to the final M at the end."""
    heap = [-e for e in work]
    heapify(heap)
    out = []
    m = 1
    while heap:
        e = -heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        for lt, a, tail in divisors:
            shift = e - lt
            if not shift & guard:
                if a != 1:
                    g = gcd(a, c)
                    c //= g
                    if g != a:
                        f = a // g
                        m *= f
                        for k, v in work.items():
                            work[k] = v * f
                for te, tc in tail:
                    ne = te + shift
                    if ne & guard:
                        raise _Overflow
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -c * tc
                        heappush(heap, -ne)
                    else:
                        work[ne] = s - c * tc
                break
        else:
            out.append((e, c, m))
    return {e: c if k == m else c * (m // k) for e, c, k in out}, m


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full remainder of f on division by ``basis`` under ``order``; each
    term is reduced by the first basis element whose leading term divides
    it."""
    if f.is_zero() or not basis:
        return f

    def run(packing):
        divisors = [_record(g, packing) for g in basis]
        work, d = _packed(f.terms, packing)
        rem, m = _reduce(work, divisors, packing.guard)
        return Polynomial._trusted(_unpacked(rem, m * d, packing.unpack), f.ambient)

    return _packed_run(run, order, len(f.ambient), [f, *basis])


def reduced_groebner_basis(
    generators: Sequence[Polynomial], order: MonomialOrder
) -> list[Polynomial]:
    """Reduced Groebner basis; empty list for the zero ideal."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    ambient = gens[0].ambient

    def run(packing):
        return _interreduced(_minimal_records(gens, packing), packing, ambient)

    return _packed_run(run, order, len(ambient), gens)


def _minimal_records(gens: Sequence[Polynomial], packing: _Packing) -> list:
    """The records of a minimal Groebner basis of the nonzero ``gens``,
    sorted by the packing's order, smallest leading term first.

    Buchberger's algorithm with sugar selection and the Gebauer-Moeller
    installation: each new element prunes the pending pairs (criterion B)
    and its own new pairs (criteria M and F, and coprime leading terms)
    once, when it enters the basis."""
    guard = packing.guard
    units = packing.units
    unpack = packing.unpack
    # Per element: packed leading exponent, the same as a tuple (for lcms
    # and supports), its degree, primitive record and sugar.  Every record
    # reduces, oldest first.  New pairs are formed only with the active
    # elements, those whose leading term no later element's leading term
    # divides.
    lts: list[int] = []
    exps: list[tuple[int, ...]] = []
    degrees: list[int] = []
    records: list = []
    sugars: list[int] = []
    active: list[int] = []
    # Pending pairs (i, j), i > j, mapped to the lcm of their leading terms,
    # packed and as a tuple.  The heap pops them in (sugar, (i, j)) order;
    # a pair deleted from ``live`` is skipped when it surfaces.
    live: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    pairs: list = []

    def install(record, sugar):
        lt = record[0]
        e = unpack(lt)
        degree = sum(e)
        k = len(lts)
        lts.append(lt)
        exps.append(e)
        degrees.append(degree)
        records.append(record)
        sugars.append(sugar)
        # B: drop a pending pair whose lcm lt divides, unless lt shares
        # that lcm with one of the pair's elements.
        if live:
            for (i, j), (l, le) in list(live.items()):
                if (
                    not (l - lt) & guard
                    and tuple(map(max, exps[i], e)) != le
                    and tuple(map(max, exps[j], e)) != le
                ):
                    del live[i, j]
        if not active:
            active.append(k)
            return
        # M and F: of the new pairs, keep one per minimal lcm, preferring a
        # coprime pair; then drop the coprime ones, whose S-polynomials
        # reduce to zero.  A new pair is (packed lcm, lcm, m, whether the
        # leading terms share a variable).  Each field of a packed lcm is
        # at most the sum of the two leading terms', so its guard test is
        # exact.
        new = []
        for m in active:
            em = exps[m]
            le = tuple(map(max, em, e))
            l = sum(map(mul, le, units))
            if l & guard:
                raise _Overflow
            new.append((l, le, m, any(map(min, em, e))))
        kept = []
        while new:
            pair = new.pop()
            if pair[3]:
                l = pair[0]
                for other in new + kept:
                    if not (l - other[0]) & guard:
                        break
                else:
                    kept.append(pair)
            else:
                kept.append(pair)
        for l, le, m, shared in kept:
            if shared:
                d = sum(le)
                live[k, m] = l, le
                heappush(
                    pairs, (max(sugar + d - degree, sugars[m] + d - degrees[m]), (k, m))
                )
        active[:] = [m for m in active if (lts[m] - lt) & guard]
        active.append(k)

    for g in gens:
        install(_record(g, packing), max(map(sum, g.terms)))

    while pairs:
        sugar, (i, j) = heappop(pairs)
        pair = live.pop((i, j), None)
        if pair is None:
            continue
        # With cofactors lc_j/g and lc_i/g, g = gcd(lc_i, lc_j), the
        # leading terms cancel, so the S-polynomial is the difference of
        # the two scaled tails, each shifted up to the lcm.
        l = pair[0]
        _, ai, tail_i = records[i]
        _, aj, tail_j = records[j]
        g = gcd(ai, aj)
        ci, cj = aj // g, ai // g
        si = l - lts[i]
        work = {te + si: ci * tc for te, tc in tail_i}
        sj = l - lts[j]
        for te, tc in tail_j:
            ne = te + sj
            work[ne] = work.get(ne, 0) - cj * tc
        if reduce(or_, work, 0) & guard:
            raise _Overflow
        rem, _ = _reduce(work, records, guard)
        if rem:
            install(_primitive_record(next(iter(rem)), rem), sugar)

    # Minimalize: active leading terms are distinct, so drop each that
    # another divides.
    minimal = []
    for k in active:
        lk = lts[k]
        for m in active:
            if m != k and not (lk - lts[m]) & guard:
                break
        else:
            minimal.append(k)
    minimal.sort(key=lts.__getitem__)
    return [records[k] for k in minimal]


def _interreduced(
    records: list, packing: _Packing, ambient: tuple[str, ...], cut: int = 0
) -> list[Polynomial]:
    """The reduced basis of a minimal one: each record's tail reduced by
    the other records, made monic (a tail coefficient c with multiplier M
    becomes c/(M*lc)) and written over ``ambient``.  ``cut`` drops that
    many leading exponents of every term, which must all be zero there."""
    unpack = packing.unpacker(cut)
    reduced = []
    for k, (lt, lc, tail) in enumerate(records):
        rem, m = _reduce(dict(tail), records[:k] + records[k + 1:], packing.guard)
        terms = {unpack(lt): 1}
        terms.update(_unpacked(rem, m * lc, unpack))
        reduced.append(Polynomial._trusted(terms, ambient))
    return reduced

# ---------------------------------------------------------------------------
# Queries


def ideal_membership(f: Polynomial, I: IdealPresentation) -> bool:
    if f.ambient != I.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {I.ambient}")
    if f.is_zero():
        return True
    return normal_form(f, I.basis(), grevlex_order()).is_zero()


def contains_one(I: IdealPresentation) -> bool:
    basis = I.basis()
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()


def _rabinowitsch(I: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """I + (1 - t*f) over (t,) + the ambient, t a fresh variable.  Its
    variety is the part of V(I) where f does not vanish, and eliminating t
    gives (I : f^infinity).  Its one caller, ``radical_membership``, has
    checked that f and I share an ambient."""
    t, k = "_t", 0
    while t in I.ambient:
        k += 1
        t = f"_t{k}"
    ext = (t,) + I.ambient
    gens = [g.extend_ambient(ext) for g in I.generators]
    tf = Polynomial.variable(t, ext) * f.extend_ambient(ext)
    gens.append(Polynomial.constant(1, ext) - tf)
    return IdealPresentation(gens, ext)


def radical_membership(f: Polynomial, I: IdealPresentation) -> bool:
    """True iff f vanishes on V(I) over the algebraic closure, that is iff
    the Rabinowitsch ideal I + (1 - t*f) is the unit ideal.

    A term f = c*x^b with support S needs no basis when a generator c*x^a
    with supp(a) inside S vanishes only where f does (True), or else when I
    has at most one generator g or only single-term generators (False).
    Q[x] is a UFD, so f^m in (g) makes each irreducible factor of g a
    variable of S, and the zero ideal holds no nonzero f (Cox, Little &
    O'Shea, Ch. 4).  The radical of a monomial ideal is generated by the
    square-free monomials x^supp(a) of its generators (Herzog & Hibi,
    Monomial Ideals, Prop. 1.2.4), and a monomial lies in a monomial ideal
    iff a generator divides it (Cox, Little & O'Shea, Ch. 2 Sec. 4): that
    is the support test.
    Otherwise the answer depends only on V(I), and V(m*g) = V(rad(m)*g)
    for a monomial m, so each generator first drops its monomial content's
    exponents above 1: a generator like u^3000*v costs no more than u*v."""
    if f.ambient != I.ambient:
        raise AmbientMismatchError(f"{f.ambient} vs {I.ambient}")
    if len(f.terms) == 1:
        off = [i for b in f.terms for i, x in enumerate(b) if not x]
        for g in I.generators:
            if len(g.terms) == 1 and not any(a[i] for a in g.terms for i in off):
                return True
        if len(I.generators) <= 1 or all(len(g.terms) == 1 for g in I.generators):
            return False
    gens = []
    for g in I.generators:
        excess = tuple(e - 1 if e > 1 else 0 for e in g.monomial_content())
        gens.append(g.divide_by_monomial(excess) if any(excess) else g)
    return contains_one(_rabinowitsch(IdealPresentation(gens, I.ambient), f))


def elimination(I: IdealPresentation, keep: Sequence[str]) -> IdealPresentation:
    """Generators of I intersected with the subring in the kept variables.

    Under the block order with the eliminated variables first, the basis
    elements whose leading term is free of them form a Groebner basis of
    the elimination ideal (Cox, Little & O'Shea, Ch. 3), and every term of
    such an element is free of them too.  A leading term that involves an
    eliminated variable divides no such term, so only the kept block of
    the minimal basis is interreduced, among itself, and written straight
    into the kept ambient: term for term the kept part of the reduced
    block-order basis."""
    keep = tuple(keep)
    for v in keep:
        if v not in I.ambient:
            raise ValueError(f"kept variable {v!r} not in ambient")
    eliminated = tuple(v for v in I.ambient if v not in keep)
    ext = eliminated + keep
    n = len(eliminated)
    gens = [g.extend_ambient(ext) for g in I.generators]

    def run(packing):
        # The eliminated variables' exponents are the lowest n fields.
        low = (1 << n * packing.width) - 1
        kept = [r for r in _minimal_records(gens, packing) if not r[0] & low]
        return _interreduced(kept, packing, keep, n)

    # The block order restricts to grevlex on the kept variables, so the
    # kept part of the reduced basis is the reduced grevlex basis of the
    # elimination ideal, already in grevlex order.
    return IdealPresentation._from_basis(_packed_run(run, block_order(n), len(ext), gens), keep)


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of the quotient ring, from the leading-term ideal."""
    n = len(I.ambient)
    if I.is_zero_ideal():
        return n
    if contains_one(I):
        raise EmptyVarietyError("empty variety")
    lt_supports = []
    for g in I.basis():
        e, _ = g.leading_term()
        lt_supports.append({I.ambient[i] for i, x in enumerate(e) if x})
    # Largest variable subset containing no leading-term support; the empty
    # set is one, as no leading term is constant (contains_one).
    for size in range(n, -1, -1):
        for S in combinations(I.ambient, size):
            s = set(S)
            if all(not sup <= s for sup in lt_supports):
                return size


def local_monomial(polys: Sequence[Polynomial], point: Sequence[Fraction]) -> tuple[int, ...]:
    """The one "unit at the point" rule of the local predicates: the
    exponent tuple that gives each variable vanishing at the point the
    largest power dividing every polynomial, which is its least exponent
    over all their terms, and every other variable 0.

    Every other factor, a variable that does not vanish at the point
    included, stays in the residual p / m, and p is a unit times m near
    the point exactly when that residual does not vanish there
    (``residual_value``)."""
    if not polys or not all(p.terms for p in polys):
        raise ValueError("local monomial of the zero polynomial")
    terms = [e for p in polys for e in p.terms]
    # Repeating the first term gives min at least two arguments.
    content = map(min, terms[0], *terms)
    return tuple(e if x == 0 else 0 for e, x in zip(content, point))


def residual_value(
    p: Polynomial, m: tuple[int, ...], point: Sequence[Fraction]
) -> int | Fraction:
    """The value at the point of the residual p / m, for the exponent
    tuple m of a local monomial of p (``local_monomial``), read off p's
    terms without dividing.

    m lives on the coordinates that vanish at the point, so a term of p / m
    survives there exactly when its exponents equal m's on them, and it
    contributes its coefficient times the powers of the other
    coordinates."""
    if len(point) != len(p.ambient):
        raise ValueError(
            f"point of length {len(point)} for ambient of length {len(p.ambient)}"
        )
    nonzero = [(i, x) for i, x in enumerate(point) if x]
    zeros = [i for i, x in enumerate(point) if not x]
    total = 0
    for e, c in p.terms.items():
        if all(e[i] == m[i] for i in zeros):
            for i, x in nonzero:
                if e[i]:
                    c *= x ** e[i]
            total += c
    return total


def is_principal_monomial_at(
    I: IdealPresentation,
    point: Sequence[Fraction],
    divisor_vars: Sequence[str],
) -> PrincipalMonomialCertificate | None:
    """Certificate that I is generated, locally at the point, by one
    monomial in the divisor variables.

    Procedure: take the local monomial m of the generators (the variables
    vanishing at the point, see ``local_monomial``), reject if m involves
    a non-divisor variable, and accept iff some generator divided by m is
    a unit at the point; the certificate holds that generator's residual.
    """
    if I.is_zero_ideal():
        raise ValueError("zero ideal has no principal monomial generator")
    if len(point) != len(I.ambient):
        raise ValueError("point length does not match ambient")
    divisor = set(divisor_vars)
    m = local_monomial(I.generators, point)
    for v, e in zip(I.ambient, m):
        if e and v not in divisor:
            return None
    # m divides every generator, so (I : m) is generated by the quotients.
    for g in I.generators:
        if residual_value(g, m, point):
            return PrincipalMonomialCertificate(Monomial(m), g.divide_by_monomial(m))
    return None
