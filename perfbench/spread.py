"""Run-to-run spread of the end-to-end metrics, and the stored baseline.

    python3 perfbench/spread.py --workloads curves-mc --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --write-baseline

Runs ``run.py`` once per (workload, seed), one run at a time, and prints,
per workload and end-to-end metric, the median, the quartiles and the
spread: the interquartile distance as a share of the median, the figure
each metric's ``bound`` in ``BENCHMARK.json`` is compared with.
``--write-baseline`` stores these with the metric definitions and the
reason for each workload in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    table = {}
    env = None
    for w in args.workloads:
        samples = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            env = env or json.loads(lines[0])["environment"]
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed}: incorrect output")
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4f}" for k, v in samples.items()),
                  flush=True)
        table[w] = {name: dict(quartiles(v), runs=v) for name, v in samples.items()}
        for name, q in table[w].items():
            flag = "" if name == "setup_s" or q["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {w} {name}: median {q['median']:.4f} q1 {q['q1']:.4f} q3 {q['q3']:.4f} "
                  f"spread {q['spread']:.4f} (bound {bounds[name]}){flag}")

    if args.write_baseline:
        baseline = {
            "environment": env,
            "seeds": args.seeds,
            "seconds": args.seconds,
            "metrics": {m["name"]: m for m in bench["end_to_end"]},
            "definitions": {
                "run_s": "median wall seconds of one execution, from ready to artifacts on disk, tracing off",
                "setup_s": "median seconds from process launch until the command is ready: interpreter, "
                           "package import, config load and validation",
                "peak_rss_mb": "largest peak resident memory (MiB) of an execution process and its children",
            },
            "workloads": {w: {"why": whys[w], "end_to_end": table[w]} for w in table},
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
