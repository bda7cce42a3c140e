"""Blowups of charts at coordinate centers and morphism transport.

A blowup at a coordinate subspace produces one chart per center
variable: in the chart distinguished by w_c, every other center variable
w_j is replaced by w_c*w_j, and w_c joins the divisor as the exceptional
coordinate.  Variable names are stable across charts, so a child chart
is built trusted from its validated parent (``blowup_chart``).

Every chart map is a monomial map with coefficient 1, and so is every
composite of them, so a chart is a ``BlowupNode`` holding an n x n
integer matrix: row r gives the exponents of root variable r in the
node's chart.  ``blowup_chart`` gives each child its one-step matrix S,
the identity with S[j][c] = 1 for every other center variable j, rooted
at the chart it blows up; ``BlowupTree.expand`` multiplies the parent's
matrix by S, so a tree node is rooted at the tree's root.  Each S has
determinant 1, and so has every product of them.  ``transform_morphism``
carries a morphism on the root chart to any node by mapping each term's
exponent vector e to e*M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chart import ChartedPair, MorphismOfPairs
from .poly import Polynomial


class TrivialBlowupError(ValueError):
    """Centers must involve at least two variables."""


Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> Matrix:
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def _times(e: Sequence[int], cols: Matrix) -> tuple[int, ...]:
    """The row vector e times the matrix with columns ``cols``."""
    return tuple(sum(x * y for x, y in zip(e, col)) for col in cols)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(_times(row, cols) for row in a)


@dataclass
class BlowupNode:
    """A chart of a blowup tree.  ``matrix`` is the chart map from a root
    chart with the same variable names: root variable r is the monomial
    with exponent row ``matrix[r]`` here.  The rows of a node returned by
    ``blowup_chart`` are rooted at the chart it blew up; those of a
    ``BlowupTree`` node at the tree's root."""

    chart: ChartedPair
    matrix: Matrix
    payload: object = None
    certificate: object = None
    distinguished: Optional[str] = None  # exceptional coordinate of this chart
    center: Optional[tuple[str, ...]] = None  # set once this chart is blown up
    children: list["BlowupNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def substitution(self) -> dict[str, Polynomial]:
        """Each root variable's image in this chart, the monomial of its
        matrix row, built on each access."""
        amb = tuple(self.chart.variables)
        return {v: Polynomial._trusted({row: 1}, amb) for v, row in zip(amb, self.matrix)}


def blowup_chart(chart: ChartedPair, center: Sequence[str]) -> list[BlowupNode]:
    """One child chart per center variable, in center order, each with its
    one-step matrix from ``chart``.

    The center is checked here.  Each child chart is then built trusted
    (``ChartedPair._trusted``): its names are the validated parent's, and
    its divisor is the parent's plus the checked center variable, in chart
    order, so the validator could not fail on it."""
    center = tuple(center)
    if len(center) < 2:
        raise TrivialBlowupError("center must contain at least two variables")
    if len(set(center)) != len(center):
        raise ValueError("center variables must be pairwise distinct")
    for w in center:
        if w not in chart.variables:
            raise ValueError(f"center variable {w!r} not in chart")
    amb = tuple(chart.variables)
    parent_divisor = chart.divisor_vars
    idx = [amb.index(w) for w in center]
    identity = _identity(len(amb))
    children = []
    for c, k in zip(center, idx):
        # Row j of another center variable w_j gains a 1 in column k:
        # w_j becomes w_c*w_j.
        rows = [list(r) for r in identity]
        for j in idx:
            if j != k:
                rows[j][k] = 1
        if c in parent_divisor:
            divisor = parent_divisor
        else:
            divisor = tuple(v for v in amb if v == c or v in parent_divisor)
        child = ChartedPair._trusted(chart.variables, divisor)
        children.append(BlowupNode(child, tuple(map(tuple, rows)), distinguished=c))
    return children


def transform_morphism(phi: MorphismOfPairs, node: BlowupNode) -> MorphismOfPairs:
    """Compose a morphism on the node's root chart with the node's chart
    map: each term's exponent vector e becomes e*M, its coefficient kept.
    M is invertible, so distinct exponents stay distinct and the term
    dict is canonical as built."""
    if node.chart.variables != phi.source.variables:
        raise ValueError("blowup node does not apply to this source chart")
    cols = tuple(zip(*node.matrix))
    comps = {
        x: Polynomial._trusted({_times(e, cols): c for e, c in p.terms.items()}, p.ambient)
        for x, p in phi.components.items()
    }
    return MorphismOfPairs._trusted(node.chart, phi.target, comps)


class BlowupTree:
    """Tree of blowup charts rooted at one chart, with the cumulative
    chart matrix at every node."""

    def __init__(self, root_chart: ChartedPair, payload: object = None):
        self.root = BlowupNode(root_chart, _identity(len(root_chart.variables)), payload)

    def _walk(self):
        """Each node with its depth, in pre-order: a node before its
        children, and children in order."""
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            yield node, d
            stack.extend((child, d + 1) for child in reversed(node.children))

    def leaves(self) -> list[BlowupNode]:
        return [node for node, _ in self._walk() if node.is_leaf]

    def expand(self, node: BlowupNode, center: Sequence[str]) -> list[BlowupNode]:
        """Blow up a leaf at a coordinate center, attaching one child per
        center variable (matrices composed from the root)."""
        if not node.is_leaf:
            raise ValueError("only leaves can be expanded")
        node.children = blowup_chart(node.chart, center)
        node.center = tuple(center)
        for child in node.children:
            child.matrix = _matmul(node.matrix, child.matrix)
        return node.children

    def depth(self) -> int:
        return max(d for _, d in self._walk())

    def step_count(self) -> int:
        """The number of blown-up charts: nodes with children."""
        return sum(1 for node, _ in self._walk() if node.children)
