"""One fresh interpreter that sets up cdrive and runs a workload's passes.

    python3 worker.py setup PLAN    print the set-up time as JSON
    python3 worker.py run PLAN      set up, run passes, write PLAN's result file

Set-up is ``import cdrive.cli`` plus ``load_config`` of every generated
config.  A pass runs each operation once through ``cdrive.cli.main``; its
wall time is the sum of the operations' ``main`` calls.  With tracing on,
the last pass runs under ``tracing.Tracer`` and the per-layer metrics are
taken from it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _setup(plan):
    """Import the CLI from the checkout's source tree and load every config."""
    t0 = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import cdrive.cli as cli
    for op in plan["ops"]:
        cli.load_config(op["config"])
    elapsed = time.perf_counter() - t0
    module = Path(cli.__file__).resolve()
    if Path(plan["src"]).resolve() not in module.parents:
        raise SystemExit(f"cdrive was imported from {module}, not from {plan['src']}")
    return cli, elapsed


def _digest(out: Path) -> dict:
    """sha256 of every artifact; report.json without its runtime_seconds."""
    digest = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("runtime_seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        digest[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digest


def _read_report(out: Path):
    try:
        return json.loads((out / "report.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def run_pass(cli, ops, work: Path, reference: dict, tracer=None) -> dict:
    """Run every operation once; returns wall time, problems and reports."""
    result = {"wall_s": 0.0, "cpu_s": 0.0, "op_s": {}, "problems": {}, "reports": {},
              "bytes": 0}
    for op in ops:
        name = op["name"]
        out = work / name
        shutil.rmtree(out, ignore_errors=True)
        argv = [op["mode"], op["config"], "--verify", "--out", str(out), *op["extra_args"]]
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.op = name
                code = tracer.span("bench.op", "bench", cli.main, argv)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            code = "uncaught exception"
        wall = time.perf_counter() - t0
        result["cpu_s"] += time.process_time() - c0
        result["wall_s"] += wall
        result["op_s"][name] = wall
        report = _read_report(out)
        digest = _digest(out) if out.exists() else {}
        problems = workloads.check_operation(name, code, report, digest, reference.get(name))
        reference.setdefault(name, digest)
        result["problems"][name] = problems
        result["reports"][name] = report
        result["bytes"] += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
    return result


def tally(passes) -> dict:
    """Operations attempted and failed over all passes, with the reasons."""
    problems = [(name, probs) for p in passes for name, probs in p["problems"].items()]
    return {
        "attempted": len(problems),
        "failed": sum(1 for _, probs in problems if probs),
        "failures": [f"{name}: {reason}" for name, probs in problems for reason in probs],
    }


def _environment(cli, reports) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = [r["numerics"]["threads"] for r in reports if r]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workers": max(threads) if threads else None,
        "cdrive": str(Path(cli.__file__).parent),
    }


def run(plan) -> dict:
    cli, setup_s = _setup(plan)
    ops, seconds, trace = plan["ops"], float(plan["seconds"]), bool(plan["trace"])
    work = Path(plan["work_dir"])
    reference, passes = {}, []
    # untraced passes fill the budget; a traced run keeps room for its traced pass
    min_passes = 1 if trace else 2
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops, work, reference))
        typical = statistics.median(p["wall_s"] for p in passes)
        room = seconds - (typical if trace else 0.0)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > room:
            break
    walls = [p["wall_s"] for p in passes]
    result = {"setup_s": setup_s, "pass_walls": walls}

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops, work, reference, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        tracer.write_spans(work.parent / "spans.jsonl")
        layers = tracing.layer_metrics(tracer.spans, tracer.counts())
        for name in workloads.ALL_OPS:
            layers[f"cli.op.{name}_s"] = traced["op_s"].get(name, 0.0)
        acc = {}
        for name, report in traced["reports"].items():
            if not traced["problems"][name]:  # a failed report may lack the figures
                acc = workloads.combine_accuracy(acc, workloads.accuracy(name, report))
        for key in tracing.PER_LAYER:
            if key not in layers:
                layers[key] = acc.get(key, 0.0)
        layers["cli.queue_wait_s"] = sum(tracer.queue_waits)
        layers["cli.workers"] = tracer.workers
        layers["cli.cpu_s"] = traced["cpu_s"]
        layers["cli.output_bytes"] = traced["bytes"]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        result["layers"] = layers
        result["traced_wall_s"] = traced["wall_s"]

    result.update(tally(passes))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _environment(cli, [r for p in passes for r in p["reports"].values()])
    return result


def main(argv) -> int:
    mode, plan_path = argv[1], argv[2]
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        _, setup_s = _setup(plan)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
