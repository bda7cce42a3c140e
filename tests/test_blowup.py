import random
from itertools import permutations

import pytest

from logmono.blowup import (
    BlowupTree,
    TrivialBlowupError,
    blowup_chart,
    transform_morphism,
)
from logmono.chart import ChartedPair, MorphismOfPairs
from logmono.classify import is_quasi_prepared
from logmono.poly import Polynomial

from helpers import (
    P,
    assert_canonical,
    empty_divisor_corpus,
    monomial_surface_corpus,
    normal_form_corpus,
    pair_condition_corpus,
    random_sparse_poly,
    rank_law_corpus,
    reference_det,
    reference_expand,
)
from test_fitting import surface_case1


def transport(p, chart, node):
    """The one component p of a morphism on chart, carried to node."""
    phi = MorphismOfPairs(chart, ChartedPair(("x",), ()), {"x": p})
    return transform_morphism(phi, node).components["x"]


class TestBlowupChart:
    def test_point_blowup_two_charts(self):
        chart = ChartedPair(("u", "v"), ("u",))
        children = blowup_chart(chart, ("u", "v"))
        assert len(children) == 2
        a, b = children
        amb = chart.variables
        assert a.distinguished == "u"
        assert a.substitution["u"] == P("u", amb)
        assert a.substitution["v"] == P("u*v", amb)
        assert a.chart.divisor_vars == ("u",)
        assert b.distinguished == "v"
        assert b.substitution["u"] == P("u*v", amb)
        assert b.chart.divisor_vars == ("u", "v")

    def test_divisor_center_absorbed(self):
        chart = ChartedPair(("u1", "u2", "v1"), ("u1", "u2"))
        for child in blowup_chart(chart, ("u1", "u2")):
            assert child.chart.divisor_vars == ("u1", "u2")

    def test_three_variable_center(self):
        chart = ChartedPair(("a", "b", "c"), ("a", "b", "c"))
        children = blowup_chart(chart, ("a", "b", "c"))
        assert len(children) == 3
        amb = chart.variables
        first = children[0]
        assert first.substitution["b"] == P("a*b", amb)
        assert first.substitution["c"] == P("a*c", amb)

    def test_substitutions_are_variable_products(self):
        chart = ChartedPair(("a", "b", "c", "d"), ("a",))
        amb = chart.variables
        for center in (("a", "b"), ("b", "c", "d"), ("d", "a", "c")):
            for child in blowup_chart(chart, center):
                c = child.distinguished
                for v in amb:
                    want = Polynomial.variable(v, amb)
                    if v in center and v != c:
                        want = Polynomial.variable(c, amb) * want
                    assert_canonical(child.substitution[v])
                    assert child.substitution[v] == want

    def test_trivial_center_rejected(self):
        chart = ChartedPair(("u", "v"), ("u",))
        with pytest.raises(TrivialBlowupError):
            blowup_chart(chart, ("u",))
        with pytest.raises(ValueError):
            blowup_chart(chart, ("u", "w"))
        with pytest.raises(ValueError):
            blowup_chart(chart, ("u", "u"))


def assert_same_chart(got, want):
    """Equal field for field, with the derived fields and the hash."""
    assert type(got) is ChartedPair
    assert type(got.divisor_vars) is tuple
    assert got.variables == want.variables
    assert got.divisor_vars == want.divisor_vars
    assert got.positions == want.positions
    assert got.free_vars == want.free_vars
    assert got == want and hash(got) == hash(want)


class TestTrustedChildCharts:
    """Child charts skip the validator; each must equal the chart the
    validator builds from the parent's divisor plus the center variable."""

    def test_children_equal_validated_charts(self):
        names = ("a", "b", "c", "d")
        checked = 0
        for n in (2, 3, 4):
            amb = names[:n]
            for r in range(n + 1):
                for divisor in permutations(amb, r):
                    chart = ChartedPair(amb, divisor)
                    for size in range(2, n + 1):
                        for center in permutations(amb, size):
                            for child in blowup_chart(chart, center):
                                c = child.distinguished
                                want = ChartedPair(amb, tuple(dict.fromkeys(divisor + (c,))))
                                assert_same_chart(child.chart, want)
                                checked += 1
        assert checked > 5000

    def test_tree_charts_equal_validated_charts(self):
        # Children of trusted charts are built from trusted charts in turn.
        names = ("v", "u", "w", "t")
        tree = BlowupTree(ChartedPair(names, ("w",)))
        stack = [(tree.root, ("w",), 0)]
        while stack:
            node, divisor, depth = stack.pop()
            assert_same_chart(node.chart, ChartedPair(names, divisor))
            if depth < 3:
                for child in tree.expand(node, names[depth : depth + 2]):
                    grown = tuple(dict.fromkeys(divisor + (child.distinguished,)))
                    stack.append((child, grown, depth + 1))
        assert len(tree.leaves()) == 8

    @pytest.mark.parametrize(
        "center, error, message",
        [
            ((), TrivialBlowupError, "at least two variables"),
            (("u",), TrivialBlowupError, "at least two variables"),
            (("u", "u"), ValueError, "pairwise distinct"),
            (("u", "z"), ValueError, "center variable 'z' not in chart"),
        ],
    )
    def test_bad_centers_raise_on_trusted_charts(self, center, error, message):
        root = ChartedPair(("u", "v"), ("u",))
        for chart in [root] + [child.chart for child in blowup_chart(root, ("u", "v"))]:
            with pytest.raises(error, match=message):
                blowup_chart(chart, center)


class TestTransform:
    def test_sum_of_squares(self):
        chart = ChartedPair(("u", "v"), ("u",))
        first, _ = blowup_chart(chart, ("u", "v"))
        amb = chart.variables
        x = P("u^2 + v^2", amb)
        assert transport(x, chart, first) == P("u^2 + u^2*v^2", amb)

    def test_monomial_exponent_addition(self):
        chart = ChartedPair(("u", "v"), ("u", "v"))
        first, _ = blowup_chart(chart, ("u", "v"))
        amb = chart.variables
        assert transport(P("u^2*v^3", amb), chart, first) == P("u^5*v^3", amb)

    def test_identity_component_unchanged_in_own_chart(self):
        chart = ChartedPair(("u", "v"), ("u", "v"))
        first, _ = blowup_chart(chart, ("u", "v"))
        amb = chart.variables
        assert transport(P("u", amb), chart, first) == P("u", amb)

    def test_transform_morphism_preserves_quasi_prepared(self):
        phi = surface_case1()
        for child in blowup_chart(phi.source, ("u1", "u2")):
            child_phi = transform_morphism(phi, child)
            ok, diags = is_quasi_prepared(child_phi)
            assert ok, diags

    def test_transform_morphism_chart_mismatch(self):
        phi = surface_case1()
        other = ChartedPair(("a", "b"), ("a",))
        first, _ = blowup_chart(other, ("a", "b"))
        with pytest.raises(ValueError):
            transform_morphism(phi, first)

    def test_depth_two_node_composes_local_steps(self):
        """Carrying a morphism to a depth-2 tree node equals two one-step
        transports through the local charts."""
        phi = surface_case1()
        tree = BlowupTree(phi.source)
        checked = 0
        for i, child in enumerate(tree.expand(tree.root, ("u1", "u2"))):
            local = blowup_chart(phi.source, ("u1", "u2"))[i]
            assert local.chart == child.chart
            phi_1 = transform_morphism(phi, local)
            for j, grand in enumerate(tree.expand(child, ("u2", "v1"))):
                step_2 = blowup_chart(child.chart, ("u2", "v1"))[j]
                assert step_2.chart == grand.chart
                two_steps = transform_morphism(phi_1, step_2)
                direct = transform_morphism(phi, grand)
                assert direct.source == two_steps.source == grand.chart
                assert direct.components == two_steps.components
                checked += 1
        assert checked == 4


class TestBlowupTree:
    def test_cumulative_substitution(self):
        chart = ChartedPair(("u", "v"), ("u", "v"))
        amb = chart.variables
        tree = BlowupTree(chart)
        children = tree.expand(tree.root, ("u", "v"))
        grand = tree.expand(children[0], ("u", "v"))
        # Root -> chart u -> chart v composes to u = u*v, v = u*v^2.
        assert grand[1].substitution["u"] == P("u*v", amb)
        assert grand[1].substitution["v"] == P("u*v^2", amb)

    def test_leaves_depth_steps(self):
        chart = ChartedPair(("u", "v"), ("u", "v"))
        tree = BlowupTree(chart)
        assert tree.depth() == 0 and tree.step_count() == 0
        assert tree.leaves() == [tree.root]
        children = tree.expand(tree.root, ("u", "v"))
        tree.expand(children[0], ("u", "v"))
        assert tree.depth() == 2
        assert tree.step_count() == 2
        assert len(tree.leaves()) == 3

    def test_expand_requires_leaf(self):
        chart = ChartedPair(("u", "v"), ("u", "v"))
        tree = BlowupTree(chart)
        tree.expand(tree.root, ("u", "v"))
        with pytest.raises(ValueError):
            tree.expand(tree.root, ("u", "v"))


def random_tree(rng, chart):
    """A seeded tree of depth at most 3 with centers of 2 and 3 variables,
    and each node paired with its substitution from ``reference_expand``."""
    amb = chart.variables
    tree = BlowupTree(chart)
    identity = {v: Polynomial.variable(v, amb) for v in amb}
    nodes = []
    stack = [(tree.root, identity, 0)]
    while stack:
        node, sub, depth = stack.pop()
        nodes.append((node, sub))
        if depth == 3 or (depth and rng.random() < 0.3):
            continue
        center = tuple(rng.sample(amb, rng.choice([k for k in (2, 3) if k <= len(amb)])))
        children = tree.expand(node, center)
        for child, child_sub in zip(children, reference_expand(sub, amb, center)):
            stack.append((child, child_sub, depth + 1))
    return nodes


class TestMatrixTrees:
    """Node matrices against the polynomial chart maps they replace."""

    @staticmethod
    def morphisms_by_chart():
        phis = [phi for phi, _ in normal_form_corpus()] + empty_divisor_corpus()
        phis += monomial_surface_corpus() + pair_condition_corpus() + rank_law_corpus()
        rng = random.Random(4)
        src = ChartedPair(("a", "b", "c", "d"), ("a", "c"))
        tgt = ChartedPair(("x1", "y1"), ())
        for _ in range(20):
            comps = {x: random_sparse_poly(src.variables, rng, max_terms=3) for x in tgt.variables}
            phis.append(MorphismOfPairs(src, tgt, comps))
        groups = {}
        for phi in phis:
            if len(phi.source.variables) >= 2:
                groups.setdefault(phi.source, []).append(phi)
        return groups

    def test_seeded_trees_match_composed_substitutions(self):
        rng = random.Random(2005)
        nodes = transports = 0
        for chart, phis in self.morphisms_by_chart().items():
            amb = chart.variables
            for _ in range(4):
                for node, sub in random_tree(rng, chart):
                    assert node.substitution == sub
                    entries = [[Polynomial.constant(x, amb) for x in row] for row in node.matrix]
                    assert reference_det(entries) == Polynomial.constant(1, amb)
                    for phi in rng.sample(phis, min(len(phis), 10)):
                        got = transform_morphism(phi, node).components
                        for x, p in phi.components.items():
                            assert_canonical(got[x])
                            assert got[x] == p.substitute(node.substitution)
                        transports += 1
                    nodes += 1
        assert nodes > 400 and transports > 4000
