"""cdrive benchmark: end-to-end and per-layer figures for one workload.

    python3 cdbench/run.py --workload box_fast --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The runner writes the workload's configs
from the seed into cdbench/_out/<workload>/, measures set-up in fresh
interpreters, and hands the passes to one fresh worker process.  It prints
an environment record and every metric with its unit, then, as the last
line, one JSON object with keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer ones of tracing.py.

Exit status: 0 when every operation passed its gate, 1 when one failed,
2 when the benchmark could not run (no source tree, CDRIVE_THREADS set,
worker crash or timeout).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
EXTRA_SETUP_SAMPLES = 3  # fresh set-up-only interpreters besides the worker's own
TIME_LIMIT_S = 170.0  # the whole run, set-up included


def _fail(message: str) -> int:
    print(f"cdbench: {message}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _write_plan(args, out: Path) -> Path:
    configs = out / "configs"
    configs.mkdir(parents=True)
    ops = []
    for name in workloads.WORKLOADS[args.workload]:
        op = workloads.build_operation(name, args.seed, smoke=args.smoke)
        path = configs / f"{name}.json"
        path.write_text(json.dumps(op.config, indent=1, sort_keys=True) + "\n")
        ops.append({"name": name, "mode": op.mode, "config": str(path),
                    "extra_args": list(op.extra_args)})
    plan = {
        "workload": args.workload,
        "ops": ops,
        "seconds": args.seconds,
        "trace": args.trace,
        "src": str(SRC),
        "work_dir": str(out / "work"),
        "result": str(out / "result.json"),
    }
    path = out / "plan.json"
    path.write_text(json.dumps(plan, indent=1))
    return path


def _worker(mode: str, plan: Path, out: Path, deadline: float):
    """Run worker.py in a fresh interpreter; the child is waited for (and
    killed first if it overruns the deadline)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(out / f"{mode}.stdout", "w+") as so, open(out / f"{mode}.stderr", "a") as se:
        subprocess.run([sys.executable, str(HERE / "worker.py"), mode, str(plan)],
                       stdout=so, stderr=se, env=env, cwd=str(ROOT), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        so.seek(0)
        return so.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned acceptance seeds)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measurement budget for the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the benchmark's own tests")
    parser.add_argument("--out", help="output directory (default cdbench/_out/<workload>)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "cdrive" / "__init__.py").is_file():
        return _fail(f"no cdrive source tree at {SRC}")
    if "CDRIVE_THREADS" in os.environ:
        return _fail("CDRIVE_THREADS is set; the benchmark measures the default pool")
    out = Path(args.out) if args.out else HERE / "_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    plan = _write_plan(args, out)
    compileall.compile_dir(str(SRC / "cdrive"), quiet=1)

    try:
        setups = [json.loads(_worker("setup", plan, out, deadline))["setup_s"]
                  for _ in range(EXTRA_SETUP_SAMPLES)]
        _worker("run", plan, out, deadline)
        result = json.loads((out / "result.json").read_text())
    except subprocess.TimeoutExpired:
        return _fail(f"worker ran past the {TIME_LIMIT_S:.0f} s limit")
    except subprocess.CalledProcessError as exc:
        tail = (out / f"{exc.cmd[2]}.stderr").read_text()[-2000:]
        return _fail(f"worker exited with {exc.returncode}:\n{tail}")
    setups.append(result["setup_s"])

    env = result["env"]
    print(f"env nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']!r} CDRIVE_THREADS=unset "
          f"workers={env['workers']} commit={_git_commit()}")
    seed = "default" if args.seed is None else args.seed
    walls = result["pass_walls"]
    print(f"workload {args.workload} seed={seed} ops="
          f"{','.join(workloads.WORKLOADS[args.workload])} passes={len(walls)} "
          f"pass_walls_s={[round(w, 3) for w in walls]}")
    attempted, failed = result["attempted"], result["failed"]
    for line in result["failures"]:
        print(f"FAILED {line}")

    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": u}
                   for k, u in tracing.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"setup_s samples={[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
