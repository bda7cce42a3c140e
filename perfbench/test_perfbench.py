"""Self-tests of the benchmark:  python3 -m pytest -q perfbench

They run the benchmark in process on a few problems, so they take about
15 seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue(), json.loads(out.getvalue().splitlines()[-1])


@pytest.fixture
def small(monkeypatch):
    """Short runs: the minimum problem count, and short traced lists."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "trace_count", 25)
        monkeypatch.setattr(cls, "pool_per_second", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)


@pytest.mark.parametrize(
    "make", [gen.verdict_problems, gen.image_problems, gen.blowup_problems]
)
def test_generators_are_deterministic_per_seed(make):
    assert make(7, 60) == make(7, 60)
    assert make(7, 60) != make(8, 60)
    assert make(7, 60)[:20] == make(7, 20)


def test_antichain_draws_stay_in_the_family():
    family = set(gen.all_two_var_antichains(8))
    assert len(family) == gen.antichain_family_size() == 48619
    for p in gen.blowup_problems(3, 200):
        if p.kind == "antichain2":
            assert p.generators in family


def test_pair_condition_oracle_on_the_malformed_family():
    for template in gen._PAIR_TEMPLATES:
        p = gen.SurfaceProblem(("u", "v"), ("u",), ("x", "y"), ("x",), (template, {(0, 1): 1}), "t")
        assert not oracles.pair_condition(p), template
    ok = gen.SurfaceProblem(("u", "v"), ("u",), ("x", "y"), ("x",), ({(3, 0): -2}, {(0, 1): 1}), "t")
    assert oracles.pair_condition(ok)


def test_end_to_end_metrics_match_benchmark_json(small):
    code, text, result = _run(["--workload", "image", "--seed", "1", "--seconds", "0.1"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PROBLEMS
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name] and m["value"] > 0
    assert "error_rate: 0 ratio (0 failed of" in text


@pytest.mark.parametrize(
    "workload, oracle, wrong",
    [
        ("verdict", "quasi_prepared", lambda f: lambda p: not f(p)),
        ("image", "jacobian_rank", lambda f: lambda p: f(p) + 1),
        # every expected leaf substitution becomes wrong
        ("blowup", "_identity", lambda f: lambda n: [[2 * x for x in r] for r in f(n)]),
    ],
)
def test_a_wrong_expected_answer_fails_the_run(small, monkeypatch, workload, oracle, wrong):
    monkeypatch.setattr(oracles, oracle, wrong(getattr(oracles, oracle)))
    code, text, result = _run(["--workload", workload, "--seed", "2", "--seconds", "0.1"])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert "FAILED" in text


@pytest.mark.parametrize("workload", ["verdict", "blowup"])
def test_traced_counts_and_tree_shapes_repeat_exactly(small, workload):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "1"]
    first_code, first_text, first = _run(argv)
    second_code, second_text, second = _run(argv)
    assert first_code == second_code == 0
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    counts = lambda r: {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}  # noqa: E731
    assert counts(first) == counts(second)
    digest = lambda t: [l for l in t.splitlines() if l.startswith("output_digest")]  # noqa: E731
    assert digest(first_text) == digest(second_text)


def test_each_workload_loads_the_layer_it_exists_for(small):
    def trace(workload):
        code, _, result = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1"])
        assert code == 0
        return {k: m["value"] for k, m in result["metrics"].items()}

    blowup = trace("blowup")
    assert blowup["ideal.reduced_groebner_basis.calls"] == 0
    assert blowup["blowup.self_share"] + blowup["poly.self_share"] > 0.5
    assert blowup["principalize.tree_steps"] > 0
    image = trace("image")
    assert image["chart.validate_pair_condition.calls"] == 0
    assert image["ideal.elimination.calls"] == 25
    verdict = trace("verdict")
    assert verdict["chart.validate_pair_condition.repeat_ratio"] > 2


def test_tracer_restores_every_patched_attribute():
    run._import_logmono()
    mods = [m for n, m in sys.modules.items() if n.startswith("logmono")]
    before = {(id(m), k): v for m in mods for k, v in vars(m).items()}
    classes = [v for m in mods for v in vars(m).values() if isinstance(v, type)]
    before_cls = {(id(c), k): v for c in classes for k, v in vars(c).items()}
    from tracer import Tracer

    t = Tracer()
    t.install()
    assert t._patched
    t.restore()
    assert not t._patched
    assert all(vars(m)[k] is v for m in mods for (i, k), v in before.items() if i == id(m))
    assert all(vars(c)[k] is v for c in classes for (i, k), v in before_cls.items() if i == id(c))


def test_exits_2_without_logmono_sources():
    """A directory holding only BENCHMARK.json and the benchmark must not
    produce a result."""
    root = HERE.parent / ".bench_build" / "selftest-bare"
    shutil.rmtree(root, ignore_errors=True)
    try:
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", root)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verdict", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
        assert p.returncode == 2
        assert p.stdout == ""
        assert "no logmono sources" in p.stderr
    finally:
        shutil.rmtree(root, ignore_errors=True)
