"""Tests of the benchmark's checks, its tracer and its refusal to run without sources.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as harness  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def no_clock(stage):
    return contextlib.nullcontext()


def one_round(name, seed=3):
    wl = W.WORKLOADS[name]
    inp = wl.build(seed)
    return inp, wl.run_round(inp, no_clock)


@pytest.fixture(scope="module")
def descent():
    return one_round("descent")


@pytest.fixture(scope="module")
def variation():
    return one_round("variation")


@pytest.fixture(scope="module")
def splitting():
    return one_round("splitting")


@pytest.fixture(scope="module")
def sweep():
    return one_round("sweep")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_checks_pass_on_program_outputs(name, request):
    inp, out = request.getfixturevalue(name)
    failures, facts = W.WORKLOADS[name].check(inp, out)
    assert failures == []
    assert facts


def test_energy_check_rejects_tau_off_by_1e_3(descent):
    inp, out = descent
    bad = copy.copy(inp)
    bad["cases"] = [dict(c) for c in inp["cases"]]
    model = bad["cases"][0]["model"]
    bad["cases"][0]["model"] = dataclasses.replace(model, tau=model.tau + 1e-3)
    failures, _ = W.check_descent(bad, out)
    assert any("closed form" in f for f in failures)


def test_descent_check_rejects_rising_gap(descent):
    inp, out = descent
    bad = dict(out)
    res = copy.deepcopy(out[(1, 2)])
    res.gap_history[10] = res.gap_history[9] * (1 + 1e-9)
    bad[(1, 2)] = res
    failures, _ = W.check_descent(inp, bad)
    assert any("increases" in f for f in failures)


def test_descent_check_rejects_gap_off_the_tensor_pipeline(descent):
    inp, out = descent
    bad = dict(out)
    for k, rel in ((0, 1e-4), (-1, 1e-3)):
        res = copy.deepcopy(out[(2, 0)])
        res.gap_history[k] *= 1.0 + rel
        bad[(2, 0)] = res
        failures, _ = W.check_descent(inp, bad)
        assert any("E(deform(d))" in f for f in failures)


def test_variation_check_rejects_flipped_first_variation(variation):
    inp, out = variation
    bad = copy.deepcopy(out)
    bad["hyperbolic1"]["first_variation"] *= -1.0
    failures, _ = W.check_variation(inp, bad)
    assert any("hyperbolic1" in f and "centered" in f for f in failures)


def test_variation_check_rejects_nonzero_first_variation_at_critical(variation):
    inp, out = variation
    bad = copy.deepcopy(out)
    bad["critical"] = 1e-3
    failures, _ = W.check_variation(inp, bad)
    assert any("critical" in f for f in failures)


def test_splitting_check_rejects_cocycle_entry_off_by_one(splitting):
    inp, out = splitting
    bad = copy.deepcopy(out)
    bad[2]["cocycle_blocks"][7][0][1] += 1
    failures, _ = W.check_splitting(inp, bad)
    assert failures == ["splitting[2]: cocycle blocks are not the powers L^n"]


def test_splitting_check_rejects_wrong_lyapunov_sum(splitting):
    inp, out = splitting
    bad = copy.deepcopy(out)
    bad[0]["lyapunov"][3] = bad[0]["lyapunov"][3] + 1e-11
    failures, _ = W.check_splitting(inp, bad)
    assert any("Lyapunov" in f for f in failures)


def test_sweep_check_rejects_large_residual(sweep):
    inp, out = sweep
    bad = copy.deepcopy(out)
    bad["report"]["fits"]["euler_lagrange_supnorm"]["errors"][1] = 1e-3
    failures, _ = W.check_sweep(inp, bad)
    assert any("euler_lagrange_supnorm" in f for f in failures)


def test_closed_form_energy():
    assert W.energy_closed_form(2.0, 1.5, 0.5) == 8.0 * 2.0 * 2.25 / 0.5
    assert W.int_matpow([[2, 1], [1, 1]], 3) == [[13, 8], [8, 5]]


@pytest.mark.parametrize("name", ["descent", "variation", "splitting"])
def test_traced_round_is_bit_identical(name, request):
    inp, out = request.getfixturevalue(name)
    import coskit
    original = coskit.grids.partial_derivative
    tracer = spans.Tracer()
    clock = harness.Clock(tracer)
    with tracer:
        assert coskit.tensors.partial_derivative is not original
        traced = W.WORKLOADS[name].run_round(inp, clock)
    assert coskit.tensors.partial_derivative is original
    assert harness.fingerprint(traced) == harness.fingerprint(out)
    names = {s[0] for s in tracer.spans}
    assert "grids.partial_derivative" in names
    assert set(clock.blocks) == set(clock.times)


def test_numpy_wrapped_only_for_coskit():
    import numpy as np
    import coskit
    tracer = spans.Tracer()
    with tracer:
        assert coskit.tensors.np is not np
        assert coskit.tensors.np.linalg.eigh is not np.linalg.eigh
        assert np.einsum.__module__ == "numpy"
        tracer.active = True
        np.einsum("i,i->", np.ones(3), np.ones(3))
        coskit.tensors.np.einsum("i,i->", np.ones(3), np.ones(3))
        tracer.active = False
    assert coskit.tensors.np is np
    assert [s[0] for s in tracer.spans] == ["numpy.einsum"]


def test_self_time_subtracts_direct_children():
    spans_ = [["a", 0.0, 10.0, -1, 0.0, None], ["b", 1.0, 4.0, 0, 0.0, "x"],
              ["c", 2.0, 3.0, 1, 0.5, None], ["b", 5.0, 6.0, 0, 0.0, "y"]]
    out, labels = spans.summarize(spans_, 0, 4)
    assert out["a"] == [1, 6.0, 0.0]
    assert out["b"] == [2, 3.0, 0.0]
    assert out["c"] == [1, 1.0, 0.5]
    assert labels == {"b": {"x": [1, 2.0, 3.0], "y": [1, 1.0, 1.0]}}


def test_clock_times_reference_before_each_stage():
    calls = []
    clock = harness.Clock(kernel=lambda: calls.append("ref"), repeats=2)
    for stage in ("a", "b"):
        with clock(stage):
            calls.append(stage)
    assert calls == ["ref", "ref", "a", "ref", "ref", "b"]
    assert set(clock.reference) == set(clock.times) == {"a", "b"}


def test_scaled_best_pairs_each_stage_with_its_reference():
    rounds = [({"a": 2.0, "b": 9.0}, {}, {"a": 1.0, "b": 3.0}),
              ({"a": 3.0, "b": 6.0}, {}, {"a": 2.0, "b": 2.0})]
    assert harness.best_of(rounds) == (8.0, {"a": 2.0, "b": 6.0}, {"a": 0, "b": 1})
    op, scales = harness.scaled_best(rounds, 0.5)
    assert scales == {"a": 0.5, "b": 0.25}
    assert op == 2.0 * 0.5 + 6.0 * 0.25


def test_reference_kernels_use_no_coskit_code():
    import ast
    import reference
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} | {node.module for node in ast.walk(tree)
                                            if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("coskit") for name in imported)
    assert set(reference.KERNELS) == set(reference.SECONDS) == set(W.WORKLOADS)
    for make in reference.KERNELS.values():
        make()()


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "descent",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
