"""One workload run, in the child process that `run.py` starts.

Prints a single JSON line: the phase times, the number of items attempted
and failed, and with --trace 1 the per-layer metrics of one traced round.
The package must be importable (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import time

import checks
import workloads
from speed import METER, Phase
from tracer import Tracer

# setup_s is the median of at least MIN_SETUPS set-ups: one per round, and
# extra ones after the last round when fewer rounds fit
MIN_SETUPS = 5
MAX_ROUNDS = 200
PHASES = ("setup", "solve", "query")


class Tally:
    """Items attempted and failed, failure messages and changed inputs."""

    def __init__(self, reference: dict):
        self.reference = reference["instances"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inputs_changed: set[str] = set()

    def check(self, wl, rd) -> None:
        attempted, fails = wl.check(rd, self.reference)
        self.attempted += attempted
        self.failed += len(fails)
        self.failures.extend(fails[:10 - len(self.failures)])
        for name, sizes in wl.input_sizes(rd).items():
            if self.reference.get(name, {}).get("sizes") != sizes:
                self.inputs_changed.add(name)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "inputs_changed": sorted(self.inputs_changed),
        }


def timed_rounds(wl, seed: int, seconds: float, tally: Tally) -> dict:
    """Rounds while another one fits in `seconds`, with the host-speed
    meter running; each phase's time is the median over rounds of its
    corrected time per round."""
    clock = time.perf_counter
    corrected = {p: [] for p in PHASES}
    raw = {p: [] for p in PHASES}

    def record(name, phase, fallback):
        corrected[name].append(phase.corrected(fallback))
        raw[name].append(phase.raw)

    start = clock()
    with METER.running():
        for _ in range(MAX_ROUNDS):
            # untimed: every round starts with no garbage left by the last
            gc.collect()
            n0 = len(METER.factors)
            setup = Phase()
            with METER.measure(setup):
                rd = wl.setup(seed)
            t0 = clock()
            wl.run(rd)
            ran = clock() - t0
            fallback = METER.mean_factor(n0)
            record("setup", setup, fallback)
            record("solve", rd.solve, fallback)
            record("query", rd.query, fallback)
            tally.check(wl, rd)
            del rd
            # another round if at least half of one more still fits
            if clock() - start + ran / 2 > seconds:
                break
        rounds = len(corrected["solve"])
        while len(corrected["setup"]) < MIN_SETUPS:
            n0 = len(METER.factors)
            setup = Phase()
            with METER.measure(setup):
                wl.setup(seed)
            record("setup", setup, METER.mean_factor(n0))
    out = {f"{p}_s": statistics.median(corrected[p]) for p in PHASES}
    out.update({f"raw_{p}_s": statistics.median(raw[p]) for p in PHASES})
    out.update(rounds=rounds, setups=len(corrected["setup"]),
               slices=len(METER.factors),
               speed_factor=METER.mean_factor(0))
    return out


def traced_round(wl, seed: int, tally: Tally) -> dict:
    """Round 0 untraced, then again traced; the difference in solve time
    is the tracing overhead."""
    rd = wl.setup(seed)
    wl.run(rd)
    untraced = rd.solve.raw
    tally.check(wl, rd)
    del rd

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("setup"):
            rd = wl.setup(seed)
        with tracer.span("run"):
            wl.run(rd)
        nodes = tracer.nodes_created()
    tally.check(wl, rd)
    traced = rd.solve.raw
    layers = tracer.layer_metrics(nodes)
    layers["trace.solve_s"] = (traced, "s")
    layers["trace.overhead_s"] = (traced - untraced, "s")
    layers["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    return {"layers": layers, "spans": tracer.span_table(),
            "untraced_solve_s": untraced}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    tally = Tally(checks.load_reference())
    try:
        if args.trace:
            out = traced_round(wl, args.seed, tally)
        else:
            out = timed_rounds(wl, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    out.update(tally.summary())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
