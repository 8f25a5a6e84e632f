"""minimaxclf benchmark: the paper's four batch experiments, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-reference

Each execution of a workload runs in a fresh interpreter (``worker.py``),
one at a time, and the next starts only after the previous one has ended
and its artifacts have been checked. Executions repeat while the next one
is expected to finish within ``--seconds``; there is always at least one.

End-to-end metrics (``--trace 0``):
  run_s        median wall time of an execution, from ready to artifacts on disk
  setup_s      median time from process launch until the command is ready to
               run (interpreter, package import, config load and validation),
               over SETUP_PROBES set-up-only launches plus every execution
  peak_rss_mb  largest peak resident set of an execution process (MiB)
failed_frac (failed / attempted executions) is printed as well; it is not a
gated metric because it reads 0 on a correct program.

With ``--trace 1`` the untraced loop runs first, then one execution with
every layer wrapped (``spans.py``); the per-layer metrics come from that
execution, and ``trace.overhead_s`` is its run time minus the untraced
median. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` runs every workload once at the default seed and
stores the checked values and artifact digests in ``reference.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 3
EXECUTION_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "steps": "count", "step_us": "us",
    "flops_per_step": "flop", "step_gflops": "GFLOP/s", "useful_ratio": "ratio",
    "risk_evals": "count", "rows": "count", "mb_computed": "MB", "trials": "count",
    "chunks": "count", "bytes_written": "bytes", "overhead_s": "s", "spans": "count",
    "counters_s": "s",
}


def per_layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    return PER_LAYER_UNITS["useful_ratio" if tail.endswith("useful_ratio") else tail]


# ---------------------------------------------------------------------------
# executions
# ---------------------------------------------------------------------------


def launch(work_dir: Path, mode: str) -> dict:
    """Start ``worker.py`` on the plan in ``work_dir`` and wait for it.

    Returns the worker's result plus ``setup_s``, ``wall_s``, ``peak_rss_mb``
    and, when it failed, ``error``."""
    result_path = work_dir / f"result-{mode}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(work_dir / "plan.json"),
           "--mode", mode, "--result", str(result_path)]
    with open(work_dir / f"worker-{mode}.log", "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        deadline = launched + EXECUTION_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError
                time.sleep(0.02)
        except BaseException as err:  # timeout or interrupt: never leave the worker behind
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(err, TimeoutError):
                raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"wall_s": time.monotonic() - launched, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0 or not result_path.exists():
        log_tail = (work_dir / f"worker-{mode}.log").read_text(errors="replace")[-2000:]
        out["error"] = f"worker exited with {proc.returncode}: {log_tail.strip()}"
        return out
    out.update(json.loads(result_path.read_text()))
    out["setup_s"] = out.pop("ready") - launched
    return out


def prepare(workload: str, seed: int) -> Path:
    """A clean work directory holding the plan of one execution."""
    work_dir = OUT / workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runs = workloads.invocations(workload, seed, work_dir)
    plan = {"invocations": runs, "config_call": workloads.config_call(runs[0])}
    (work_dir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return work_dir


def execute(workload: str, seed: int, mode: str, reference: dict) -> dict:
    work_dir = prepare(workload, seed)
    out = launch(work_dir, mode)
    if "error" not in out:
        failures, out["summary"], out["byte_identical"] = workloads.check(
            workload, work_dir / "out", seed, reference
        )
        if failures:
            out["error"] = "; ".join(failures)
    return out


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                threads = getattr(lib, symbol)()
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = launch(prepare(workload, seed), "setup")
        if "error" in probe:
            raise RuntimeError(f"{workload}: set-up failed: {probe['error']}")
        setups.append(probe["setup_s"])

    executions = []
    started = time.monotonic()
    while True:
        executions.append(execute(workload, seed, "run", reference))
        typical = statistics.median(e["wall_s"] for e in executions)
        if time.monotonic() - started + typical > seconds:
            break
    traced = execute(workload, seed, "trace", reference) if trace else None

    attempts = executions + ([traced] if traced else [])
    failed = [e for e in attempts if "error" in e]
    ok = [e for e in executions if "error" not in e]
    setups += [e["setup_s"] for e in executions if "setup_s" in e]
    timed = ok or executions
    run_s = statistics.median(e.get("run_s", e["wall_s"]) for e in timed)
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(e["peak_rss_mb"] for e in timed),
    }
    layers = {}
    if traced is not None:
        layers = dict(traced.get("layers", {}))
        layers["trace.overhead_s"] = traced.get("run_s", traced["wall_s"]) - run_s
    return {
        "workload": workload,
        "attempted": len(attempts),
        "failed": len(failed),
        "errors": [e["error"] for e in failed],
        "byte_identical": executions[-1].get("byte_identical"),
        "metrics": metrics,
        "layers": layers,
    }


def report(res: dict, trace: bool) -> dict:
    """Print one workload's result for people; returns its metric dict."""
    w = res["workload"]
    print(f"== {w}: {res['attempted']} execution(s), {res['failed']} failed")
    for err in res["errors"]:
        print(f"   FAILED: {err}")
    print(f"   artifacts byte-identical to the reference: {res['byte_identical']}")
    print(f"   {'failed_frac':<36} {res['failed'] / res['attempted']:.4g} ratio")
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(res["layers"].items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in res["metrics"].items()}
    for name, m in metrics.items():
        print(f"   {name:<36} {m['value']:.6g} {m['unit']}")
    return metrics


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------


def write_reference() -> None:
    """Run each workload once at the default seed and store what the checks
    compare against: the exact MC curves first, then each workload's values
    and artifact digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from minimaxclf.config import DEFAULT_CONFIG
    from minimaxclf.theory import ega_estimate_mse, exact_find_worst_probability

    mc = DEFAULT_CONFIG["mc"]
    vec = mc["error_vector"]
    reference = {
        "curves-mc": {
            "exact": {
                "exact_failure": [1.0 - exact_find_worst_probability(vec, mc["m_worst"], n)
                                  for n in workloads.MC_SAMPLE_SIZES],
                "exact_mse": [ega_estimate_mse(max(vec), n) for n in workloads.MC_SAMPLE_SIZES],
            }
        }
    }
    for w in workloads.WORKLOADS:
        res = execute(w, workloads.DEFAULT_SEED, "run", reference)
        if "error" in res:
            raise RuntimeError(f"{w}: {res['error']}")
        entry = reference.setdefault(w, {})
        entry["values"] = res["summary"]
        entry["digests"] = workloads.digests(OUT / w / "out")
        print(f"{w}: {res['run_s']:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "minimaxclf" / "cli.py").is_file():
        print(f"perfbench: no minimaxclf source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run unwinds through launch(), which kills its worker
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.write_reference:
        write_reference()
        return 0
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"environment": environment(args.seed)}))
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), reference) for w in names]
    metrics = {}
    for res in results:
        shown = report(res, bool(args.trace))
        metrics.update(shown if len(results) == 1 else {f"{res['workload']}.{k}": v for k, v in shown.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
