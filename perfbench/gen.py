"""Seeded input generators for the three benchmark workloads.

Everything here is plain integer data and text: no logmono code runs, so no
logmono predicate can filter or label an input.  Labels come from the
oracles in ``oracles.py``.

A polynomial is a dict mapping an exponent tuple to a nonzero integer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, gcd


@dataclass(frozen=True)
class SurfaceProblem:
    """A morphism of charted pairs written as problem-file data."""

    source: tuple[str, ...]
    source_divisor: tuple[str, ...]
    target: tuple[str, ...]
    target_divisor: tuple[str, ...]
    maps: tuple[dict, ...]  # one polynomial per target variable
    kind: str
    with_point: bool = True

    def text(self) -> str:
        lines = [
            "# " + self.kind,
            " ".join(("source vars",) + self.source + ("divisor",) + self.source_divisor),
            " ".join(("target vars",) + self.target + ("divisor",) + self.target_divisor),
        ]
        for x, p in zip(self.target, self.maps):
            lines.append(f"map {x} = {render(p, self.source)}")
        if self.with_point:
            lines.append("point " + ",".join("0" for _ in self.source))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IdealProblem:
    """A monomial ideal on a chart whose coordinates are all divisorial."""

    variables: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]
    kind: str


def render(p: dict, names) -> str:
    """Problem-file expression for an integer polynomial; ``0`` when empty."""
    parts = []
    for e in sorted(p, key=lambda e: (-sum(e), e)):
        c = p[e]
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _add(p: dict, e: tuple, c: int) -> dict:
    out = dict(p)
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    else:
        out.pop(e, None)
    return out


def _coprime_pair(rng):
    while True:
        a = (rng.randint(1, 3), rng.randint(1, 3))
        if gcd(*a) == 1:
            return a


def _series(rng, alpha, pad) -> dict:
    """P(u^alpha) with small support and no constant term, padded with
    ``pad`` zero exponents for the free variables."""
    out: dict = {}
    for j in (1, 2):
        if rng.random() < 0.6:
            out = _add(out, tuple(j * a for a in alpha) + (0,) * pad, rng.choice([-2, -1, 1, 2]))
    return out


def _sparse(rng, nvars, max_terms, max_deg, min_deg=0) -> dict:
    """Random sparse integer polynomial, as in the rank-law test corpus."""
    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            if min_deg <= sum(e) <= max_deg:
                break
        out = _add(out, e, rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


# ---------------------------------------------------------------------------
# verdict: surface morphisms in and around the three normal forms

_U2V = ("u1", "u2", "v1")
_U2 = ("u1", "u2")
_U3 = ("u1", "u2", "u3")
_XY = ("x1", "y1")


def _case1(rng, twist=False):
    alpha = _coprime_pair(rng)
    m = rng.randint(1, 2)
    beta = (rng.randint(0, 3), rng.randint(0, 3))
    x1 = {(alpha[0] * m, alpha[1] * m, 0): 1}
    # twist: v1 enters squared, so the singular locus can leave the divisor
    y1 = _add(_series(rng, alpha, 1), beta + (2 if twist else 1,), 1)
    kind = "singular_v1sq" if twist else "case1"
    return SurfaceProblem(_U2V, _U2, _XY, ("x1",), (x1, y1), kind)


def _case2(rng):
    alpha = _coprime_pair(rng)
    m = rng.randint(1, 2)
    while True:
        beta = (rng.randint(0, 4), rng.randint(0, 4))
        if alpha[0] * beta[1] - alpha[1] * beta[0] != 0:
            break
    x1 = {(alpha[0] * m, alpha[1] * m): 1}
    y1 = _add(_series(rng, alpha, 0), beta, 1)
    return SurfaceProblem(_U2, _U2, _XY, ("x1",), (x1, y1), "case2")


def _case3(rng):
    while True:
        a = (rng.randint(1, 3), rng.randint(0, 3), 0)
        b = (0, rng.randint(0, 3), rng.randint(1, 3))
        if a[1] + b[1]:
            break
    return SurfaceProblem(_U3, _U3, ("x1", "x2"), ("x1", "x2"), ({a: 1}, {b: 1}), "case3")


def _offform(rng):
    y1 = {(1, 1): 1}
    y1 = _add(y1, (rng.randint(2, 4), rng.randint(3, 4)), 1)
    y1 = _add(y1, (rng.randint(3, 4), rng.randint(2, 4)), 1)
    return SurfaceProblem(_U2, _U2, _XY, ("x1",), ({(2, 2): 1}, y1), "offform")


# Divisorial components on source (u, v) with divisor {u}: the malformed
# family of the exact-division contract, plus random perturbations.
_PAIR_TEMPLATES = (
    {(0, 1): 1},
    {(1, 0): 1, (0, 1): 1},
    {(1, 0): 1, (0, 0): 1},
    {(1, 0): 1, (2, 0): 1},
    {(0, 2): 1},
    {(2, 0): 1, (0, 2): 1},
    {(1, 1): 1},
    {(0, 0): 1, (0, 1): 1},
    {(2, 1): 1, (2, 0): -1},
    {(0, 1): 1, (1, 0): -1},
)


def _pair(rng):
    if rng.random() < 0.5:
        x = dict(rng.choice(_PAIR_TEMPLATES))
        if rng.random() < 0.5:
            x = _add(x, (rng.randint(1, 3), 0), rng.choice([-2, -1, 1, 2]))
    else:
        x = _sparse(rng, 2, max_terms=3, max_deg=3)
    if not x:
        x = {(1, 0): 1}
    y = {(0, 1): 1}
    if rng.random() < 0.5:
        y = _add(y, (rng.randint(0, 2), rng.randint(0, 2)), rng.choice([-1, 1]))
    return SurfaceProblem(("u", "v"), ("u",), ("x", "y"), ("x",), (x, y), "pair")


def _singular_plain(rng):
    """Monomial x1 with a sparse y1: the singular locus often leaves the
    divisor."""
    a = (rng.randint(1, 3), rng.randint(0, 3))
    y1 = _sparse(rng, 2, max_terms=3, max_deg=3, min_deg=1)
    return SurfaceProblem(_U2, _U2, _XY, ("x1",), ({a: 1}, y1), "singular_plain")


_VERDICT_KINDS = (
    (_case1, 3),
    (_case2, 3),
    (_case3, 2),
    (_offform, 1),
    (_pair, 2),
    (lambda rng: _case1(rng, twist=True), 1),
    (_singular_plain, 1),
)


def _balanced(rng, classes, count):
    """``count`` draws from ``classes`` in shuffled blocks that hold every
    class once, so the class mix is the same for every seed and only the
    draws within a class vary.  Lazy, so that the first k problems do not
    depend on ``count``."""
    return islice(chain.from_iterable(_shuffled_blocks(rng, classes)), count)


def _shuffled_blocks(rng, classes):
    while True:
        block = list(classes)
        rng.shuffle(block)
        yield block


def verdict_problems(seed: int, count: int) -> list[SurfaceProblem]:
    rng = random.Random(f"verdict/{seed}")
    makers = [f for f, w in _VERDICT_KINDS for _ in range(w)]
    return [make(rng) for make in _balanced(rng, makers, count)]


# ---------------------------------------------------------------------------
# image: plain morphisms, n, N <= 3, degree <= 3, empty divisors


def image_problems(seed: int, count: int) -> list[SurfaceProblem]:
    rng = random.Random(f"image/{seed}")
    out = []
    shapes = [(n, N) for n in (1, 2, 3) for N in (1, 2, 3)]
    for n, N in _balanced(rng, shapes, count):
        max_terms = 2 if max(n, N) == 3 else 3
        # Degree 3 into 3-space gave single eliminations of 3 to 8 s (about
        # 3% of the 2 -> 3 maps), which no run-length can average out.
        max_deg = 2 if N == 3 else 3
        maps = tuple(_sparse(rng, n, max_terms=max_terms, max_deg=max_deg) for _ in range(N))
        out.append(
            SurfaceProblem(
                tuple(f"w{k}" for k in range(n)),
                (),
                tuple(f"x{k}" for k in range(N)),
                (),
                maps,
                f"plain{n}{N}",
                with_point=False,
            )
        )
    return out


# ---------------------------------------------------------------------------
# blowup: monomial ideals for goward_principalize

_ANTICHAIN_MAX_EXP = 8
_ANTICHAIN_SIZES = [comb(_ANTICHAIN_MAX_EXP + 1, k) ** 2 for k in range(1, _ANTICHAIN_MAX_EXP + 2)]


def antichain_family_size() -> int:
    return sum(_ANTICHAIN_SIZES)


def _two_var_antichain(rng) -> tuple[tuple[int, int], ...]:
    """Uniform draw from the antichains {(a_i, b_i)} with a strictly
    increasing, b strictly decreasing and every exponent <= 8."""
    k = rng.choices(range(1, _ANTICHAIN_MAX_EXP + 2), weights=_ANTICHAIN_SIZES)[0]
    vals = range(_ANTICHAIN_MAX_EXP + 1)
    a = sorted(rng.sample(vals, k))
    b = sorted(rng.sample(vals, k), reverse=True)
    return tuple(zip(a, b))


def blowup_problems(seed: int, count: int) -> list[IdealProblem]:
    rng = random.Random(f"blowup/{seed}")
    out = []
    # Half antichains, half three-variable ideals with 2 to 5 generators.
    # Exponents <= 3: at <= 6 a few trees of 100 to 240 steps carried so much
    # of a run's time that its throughput moved by 10% from seed to seed,
    # and at <= 4 the 90th percentile still moved by 10%.
    for k in _balanced(rng, (0, 0, 0, 0, 2, 3, 4, 5), count):
        if k == 0:
            out.append(IdealProblem(("u", "v"), _two_var_antichain(rng), "antichain2"))
        else:
            gens = tuple(tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(k))
            out.append(IdealProblem(("u", "v", "w"), gens, "random3"))
    return out


def all_two_var_antichains(max_exp: int):
    """Exhaustive enumeration of the two-variable family (for self-tests)."""
    vals = range(max_exp + 1)
    for k in range(1, max_exp + 2):
        for a in combinations(vals, k):
            for b in combinations(vals, k):
                yield tuple(zip(a, sorted(b, reverse=True)))
