"""Blowups of charts at coordinate centers and morphism transport.

A blowup at a coordinate subspace produces one chart per center
variable: in the chart distinguished by w_c, every other center variable
w_j is replaced by w_c*w_j, and w_c joins the divisor as the exceptional
coordinate.  Variable names are stable across charts, so a child chart
is built trusted from its validated parent (``blowup_chart``).

Every chart is a ``BlowupNode`` whose substitution maps each variable of
a root chart to its expression in the node's chart.  ``blowup_chart``
returns children rooted at the chart it blows up; ``BlowupTree.expand``
composes them with their parent's substitution, so a tree node is rooted
at the tree's root.  ``transform_morphism`` carries a morphism on the
root chart to any node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Optional, Sequence

from .chart import ChartedPair, MorphismOfPairs
from .poly import Polynomial


class TrivialBlowupError(ValueError):
    """Centers must involve at least two variables."""


@dataclass
class BlowupNode:
    chart: ChartedPair
    substitution: dict[str, Polynomial]  # root variable -> expression here
    payload: object = None
    certificate: object = None
    distinguished: Optional[str] = None  # exceptional coordinate of this chart
    center: Optional[tuple[str, ...]] = None  # set once this chart is blown up
    children: list["BlowupNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def blowup_chart(chart: ChartedPair, center: Sequence[str]) -> list[BlowupNode]:
    """One child chart per center variable, in center order, each with its
    one-step substitution from ``chart``.

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
    n = len(amb)
    unit = {v: (0,) * i + (1,) + (0,) * (n - i - 1) for i, v in enumerate(amb)}
    children = []
    for c in center:
        # Each image is the monomial w_v, or w_c*w_v for another center
        # variable, with coefficient 1: canonical as built.
        ec = unit[c]
        sub = {}
        for v in amb:
            e = unit[v]
            if v in center and v != c:
                e = tuple(map(add, ec, e))
            sub[v] = Polynomial._trusted({e: 1}, amb)
        if c in parent_divisor:
            divisor = parent_divisor
        else:
            divisor = tuple(v for v in amb if v == c or v in parent_divisor)
        child = ChartedPair._trusted(chart.variables, divisor)
        children.append(BlowupNode(child, sub, distinguished=c))
    return children


def transform_morphism(phi: MorphismOfPairs, node: BlowupNode) -> MorphismOfPairs:
    """Compose a morphism on the node's root chart with the node's
    substitution."""
    if node.chart.variables != phi.source.variables:
        raise ValueError("blowup node does not apply to this source chart")
    comps = {x: p.substitute(node.substitution) for x, p in phi.components.items()}
    return MorphismOfPairs(node.chart, phi.target, comps)


class BlowupTree:
    """Tree of blowup charts rooted at one chart, with cumulative
    substitutions at every node."""

    def __init__(self, root_chart: ChartedPair, payload: object = None):
        identity = {
            v: Polynomial.variable(v, root_chart.variables)
            for v in root_chart.variables
        }
        self.root = BlowupNode(root_chart, identity, payload)

    def leaves(self) -> list[BlowupNode]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def expand(self, node: BlowupNode, center: Sequence[str]) -> list[BlowupNode]:
        """Blow up a leaf at a coordinate center, attaching one child per
        center variable (substitutions composed from the root)."""
        if not node.is_leaf:
            raise ValueError("only leaves can be expanded")
        node.children = blowup_chart(node.chart, center)
        node.center = tuple(center)
        for child in node.children:
            child.substitution = {
                v: node.substitution[v].substitute(child.substitution)
                for v in node.chart.variables
            }
        return node.children

    def depth(self) -> int:
        def go(node, d):
            if node.is_leaf:
                return d
            return max(go(c, d + 1) for c in node.children)

        return go(self.root, 0)

    def step_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                count += 1
                stack.extend(node.children)
        return count
