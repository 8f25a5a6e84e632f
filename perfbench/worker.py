"""One execution of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. It imports the package
from ``src/`` of the checkout, resolves the first invocation's config as the
CLI does, and notes the moment it is ready (the end of set-up). Unless the
mode is ``setup``, it then runs every CLI invocation of the plan through
``minimaxclf.cli.main`` and notes when the last artifact is written. In
``trace`` mode the layers are wrapped first and the spans saved afterwards.
The result goes to a JSON file; times are ``time.monotonic`` readings, which
the parent process shares.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from minimaxclf import cli
    from minimaxclf.config import load_config

    plan = json.loads(args.plan.read_text())
    load_config(**plan["config_call"])
    result = {"ready": time.monotonic()}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        start = time.monotonic()
        for argv in plan["invocations"]:
            code = cli.main(argv)
            if code != 0:
                result["error"] = f"minimaxclf {' '.join(argv)} exited with {code}"
                break
        result["run_s"] = time.monotonic() - start
        if tracer is not None:
            tracer.save(args.plan.parent / "spans.npz")
            result["layers"] = tracer.metrics()

    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
