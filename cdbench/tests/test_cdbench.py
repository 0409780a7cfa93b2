"""Tests of the benchmark itself (not of cdrive).

    python3 -m pytest -q cdbench/tests

The smoke runs take about 20 s on two cores.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def span(sid, layer, start, end, parent=None, thread=1, name=None):
    return (sid, name or f"{layer}.f{sid}", layer, start, end, parent, "op", thread)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, "cli", 0.0, 10.0),
        # two children on other threads overlap each other: [1, 5] covered once
        span(2, "classical", 1.0, 3.0, parent=1, thread=2),
        span(3, "classical", 2.0, 5.0, parent=1, thread=3),
        # a child running past its parent's end only counts inside the parent
        span(4, "quantum", 8.0, 12.0, parent=1, thread=2),
        span(5, "shells", 2.5, 2.75, parent=3, thread=3),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 0.25)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(0.25)
    layers = tracing.layer_metrics(spans, {})
    assert layers["cli.self_s"] == pytest.approx(4.0)
    assert layers["classical.self_s"] == pytest.approx(4.75)
    assert layers["quantum.self_s"] == pytest.approx(4.0)
    assert layers["shells.self_s"] == pytest.approx(0.25)
    assert layers["shells.calls"] == 1


def test_inclusive_layer_times_and_ratio():
    spans = [
        span(1, "classical", 0.0, 4.0, name="classical.evolve_ensemble"),
        span(2, "classical", 1.0, 1.5, parent=1, name="classical.kstest"),
    ]
    counts = {"generators.table_builds": 3, "generators.grad_evals": 2}
    layers = tracing.layer_metrics(spans, counts)
    assert layers["classical.ensemble_s"] == pytest.approx(4.0)
    assert layers["classical.ks_s"] == pytest.approx(0.5)
    assert layers["classical.self_s"] == pytest.approx(4.0)
    assert layers["generators.builds_per_eval"] == pytest.approx(1.5)


def gas_report(ks_on=0.008):
    series = [{"time": t, "statistic": s}
              for t, s in ((0.0, 0.0075), (0.0125, 0.19), (0.025, 0.31))]
    return {"compare": {
        "on": {"ks_max": ks_on, "omega_drift": 1e-15},
        "off": {"ks_series": series},
    }}


def test_gate_passes_a_good_report():
    assert workloads.check_operation("gas_compare", 0, gas_report(), {}, None) == []


def test_gate_names_each_broken_bound():
    rep = gas_report(ks_on=0.5)
    rep["compare"]["off"]["ks_series"][1]["statistic"] = 0.05
    problems = workloads.check_operation("gas_compare", 1, rep, {"a": "x"}, {"a": "y"})
    text = " | ".join(problems)
    assert "exit code 1" in text
    assert "on-arm ks_max 0.5" in text
    assert "off-arm KS 0.05" in text
    assert "artifacts differ" in text
    assert "lacks" in workloads.check_operation("sweep_T", 0, {"sweep": {}}, {}, None)[0]


def test_corrupted_report_counts_as_failed_operation(tmp_path):
    """A report fed in through the CLI entry point with on-arm ks_max = 0.5."""
    reports = [gas_report(), gas_report(ks_on=0.5)]

    def fake_main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "report.json").write_text(json.dumps(reports.pop(0)))
        return 0

    cli = types.SimpleNamespace(main=fake_main)
    ops = [{"name": "gas_compare", "mode": "compare", "config": "c.json", "extra_args": []}]
    reference = {}
    passes = [worker.run_pass(cli, ops, tmp_path, reference) for _ in range(2)]
    counts = worker.tally(passes)
    assert counts["attempted"] == 2
    assert counts["failed"] == 1
    assert any("ks_max 0.5" in f for f in counts["failures"])
    # the corrupted report also differs from the first pass's artifacts
    assert any("artifacts differ" in f for f in counts["failures"])


def test_report_runtime_does_not_count_as_changed_artifact(tmp_path):
    for i, sub in enumerate(("a", "b")):
        d = tmp_path / sub
        d.mkdir()
        (d / "report.json").write_text(json.dumps({"x": 1, "runtime_seconds": i + 0.5}))
        (d / "data.csv").write_text("q,p\n1,2\n")
    assert worker._digest(tmp_path / "a") == worker._digest(tmp_path / "b")


def test_same_seed_same_inputs():
    for name in workloads.ALL_OPS:
        a = workloads.build_operation(name, 5)
        assert a == workloads.build_operation(name, 5)
    assert workloads.build_operation("gas_compare", None).config["seed"] == 23
    assert workloads.build_operation("sweep_T", None).config["seed"] == 11
    assert workloads.build_operation("gas_compare", 6).config["seed"] == 6


def _run(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "box_adiabatic",
         "--smoke", "--seconds", "1", "--out", str(tmp_path / "out"), *args],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, expected", [
    ("0", run.END_TO_END),
    ("1", tracing.PER_LAYER),
])
def test_smoke_run_emits_every_metric_with_unit(tmp_path, trace, expected):
    lines = _run(tmp_path, "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("error_rate 0 ratio") for line in lines)
    env = next(line for line in lines if line.startswith("env "))
    for field in ("nproc=", "cpu=", "python=", "numpy=", "scipy=", "blas=",
                  "CDRIVE_THREADS=unset", "workers=2", "commit="):
        assert field in env


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "wells"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
