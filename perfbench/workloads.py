"""The three workloads: how each builds its inputs, calls logmono, and
grades the answers.

``call`` is the only code inside the timed region.  ``summarize`` runs right
after it, untimed, and turns the raw answer into a small comparable value;
``grade`` runs after the timed loop and checks that value against the
oracles.  Each returns a failure message, or None.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path

import gen
import oracles

BLOWUP_MAX_DEPTH = 64


@dataclass(frozen=True)
class Item:
    index: int
    problem: object
    path: str | None = None


def _report_fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


class _FileWorkload:
    """Problems written as files and run through ``cli.main`` in process."""

    commands: tuple[str, ...]

    def prepare(self, seed: int, count: int, workdir: Path) -> list[Item]:
        self.cli = importlib.import_module("logmono.cli")
        items = []
        for i, problem in enumerate(self.generate(seed, count)):
            path = workdir / f"{self.name}-{i}.problem"
            path.write_text(problem.text())
            items.append(Item(i, problem, str(path)))
        return items

    def call(self, item: Item):
        main = self.cli.main
        return tuple(main([c, item.path]) for c in self.commands)

    def summarize(self, item, raw, stdout: str, stderr: str):
        return (raw, stdout, stderr)


class Verdict(_FileWorkload):
    name = "verdict"
    commands = ("classify",)
    pool_per_second = 200
    trace_count = 200
    generate = staticmethod(gen.verdict_problems)

    def grade(self, item: Item, outcome) -> str | None:
        (rc,), stdout, stderr = outcome
        fields = _report_fields(stdout)
        pair = oracles.pair_condition(item.problem)
        qp = oracles.quasi_prepared(item.problem)
        want = {"pair_condition": str(pair), "quasi_prepared": str(qp)}
        got = {k: fields.get(k) for k in want}
        if got != want or rc != (0 if qp else 1) or stderr:
            return f"classify: want {want} exit {0 if qp else 1}, got {got} exit {rc} {stderr.strip()}"
        return None


class Image(_FileWorkload):
    name = "image"
    commands = ("grk", "imagedim")
    pool_per_second = 300
    trace_count = 300
    generate = staticmethod(gen.image_problems)

    def grade(self, item: Item, outcome) -> str | None:
        rcs, stdout, stderr = outcome
        fields = _report_fields(stdout)
        want = oracles.jacobian_rank(item.problem)
        got = (fields.get("geometric_rank"), fields.get("image_dimension"))
        if rcs != (0, 0) or got != (str(want), str(want)) or stderr:
            return f"grk/imagedim: want rank {want}, got {got} exits {rcs} {stderr.strip()}"
        return None


class Blowup:
    """goward_principalize on monomial ideals; the CLI cannot reach this
    path with blowup steps, so the library entry point is called."""

    name = "blowup"
    pool_per_second = 600
    trace_count = 500

    def prepare(self, seed: int, count: int, workdir: Path) -> list[Item]:
        self.principalize = importlib.import_module("logmono.principalize")
        self.chart = importlib.import_module("logmono.chart")
        return [Item(i, p) for i, p in enumerate(gen.blowup_problems(seed, count))]

    def call(self, item: Item):
        p = item.problem
        ideal = self.principalize.MonomialIdeal.from_exponents(p.variables, p.generators)
        chart = self.chart.ChartedPair(p.variables, p.variables)
        return self.principalize.goward_principalize(ideal, chart, max_depth=BLOWUP_MAX_DEPTH)

    def summarize(self, item, tree, stdout: str, stderr: str):
        """Tree shape and leaf certificates, or the failure found by the
        integer transport oracle.  Runs before the tree is dropped."""
        try:
            leaves = oracles.transport_leaves(item.problem, tree)
        except AssertionError as e:
            return ("wrong", str(e))
        return (tree.step_count(), tree.depth(), len(leaves), tuple(leaves))

    def grade(self, item: Item, outcome) -> str | None:
        if outcome[0] == "wrong":
            return f"blowup leaf: {outcome[1]}"
        if outcome[1] > BLOWUP_MAX_DEPTH:
            return f"blowup depth {outcome[1]} exceeds the cap {BLOWUP_MAX_DEPTH}"
        return None


WORKLOADS = {w.name: w for w in (Verdict, Image, Blowup)}
