"""Benchmark of zddgb: one workload per invocation, measured in a child
process.

    python3 perfbench/run.py --workload gb_bool --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ./src; the
child process gets PYTHONPATH pointing there, a fixed PYTHONHASHSEED and an
address-space cap, so a blowup counts as a failed run instead of taking the
machine down.  Workloads: hole_conj, gb_bool, interp_basis, zm_std (see
workloads.py and README.md).

--trace 0 prints the end-to-end metrics: solve_s and query_s (solver and
query time per round, median over the rounds that fit in --seconds),
setup_s (median set-up time), all three corrected for the host's speed
(speed.py), and peak_rss_mb (the child's ru_maxrss).  --trace 1 runs one
round untraced and once more traced, and prints the per-layer metrics of
the traced round and the tracing overhead, in raw wall time.  The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ADDRESS_SPACE_CAP = 3 << 30
CHILD_TIMEOUT_S = 170


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(args) -> tuple[dict, float]:
    """The child's JSON result and its peak RSS in MB."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            preexec_fn=_cap_memory)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: workload did not finish in "
                         f"{CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: workload exited with {proc.returncode}")
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return json.loads(out.decode().strip().splitlines()[-1]), peak_mb


def main() -> int:
    ap = argparse.ArgumentParser(
        description="zddgb benchmark: one workload, end-to-end or traced")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "zddgb" / "__init__.py").is_file():
        print(f"error: no zddgb package under {SRC}", file=sys.stderr)
        return 2

    res, peak_mb = run_child(args)
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        for line in res["spans"]:
            print(line)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        print(f"untraced solve_s {res['untraced_solve_s']:.4f} s")
    else:
        metrics = {name: {"value": res[name], "unit": "s"}
                   for name in ("solve_s", "query_s", "setup_s")}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"rounds {res['rounds']}, set-ups {res['setups']}, "
              f"speed slices {res['slices']}, "
              f"mean speed factor {res['speed_factor']:.4f}")
        print("raw wall time (median over rounds): " + ", ".join(
            f"{p} {res[f'raw_{p}_s']:.4f} s"
            for p in ("setup", "solve", "query")))
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.4g} "
          f"({failed} failed of {attempted} instances and queries)")
    for line in res["failures"]:
        print(f"failure: {line}")
    if res["inputs_changed"]:
        print("inputs differ from reference.json: "
              + ", ".join(res["inputs_changed"][:20]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
