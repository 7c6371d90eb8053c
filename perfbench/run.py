"""frobcx benchmark: one seeded workload, timed end to end or traced by layer.

Usage, from the root of a frobcx checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One worker process runs the workload's ops in a closed loop, one at a
time, on one thread: the next op starts when the previous one returns
and has been checked.  Before every op the worker clears the coefficient
table cache, because every frobcx invocation starts cold.  Ops come in
blocks (see workloads.py); the run ends at the block boundary nearest to
S seconds after the first op.  Output checks run between ops, outside
the timed region; an output equal to one that already passed for the
same request is not checked again.  The latency percentiles are
Harrell-Davis estimates (stats.py), which weigh every op.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.  The
worker reads the speed gauge (gauge.py) at the start, after every
GAUGE_EVERY_S op seconds and at the end, and every time metric is
reported in seconds of the gauge's nominal machine, so that the shared
machine's drifting speed cancels out; the stderr summary also gives the
unscaled wall-clock rate, and each op's wall and scaled times and the
gauge readings are written to .perfbench_out/ops-<workload>-<seed>.json.
--trace 1 runs a fixed number of blocks instead, each op once untraced
and once traced, and reports the per-layer metrics; its spans and
per-op counters are written to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import socket
import statistics
import subprocess
import sys
from collections import defaultdict
from multiprocessing.connection import Connection
from pathlib import Path
from time import perf_counter

import checker
import gauge
import stats
import workloads
from spans import self_times

BENCH_DIR = Path(__file__).resolve().parent
SETUP_EVERY_S = 3.0  # seconds between two set-up samples
GAUGE_EVERY_S = 0.5  # op seconds between two gauge readings
OP_DEADLINE_S = 150  # a run must end within 180 s; no single op may take this long
SETUP_CODE = ("from time import perf_counter as now; start = now(); import frobcx.cli; "
              "frobcx.cli.build_parser(); took = now() - start; import sys; "
              f"sys.path.insert(0, {str(BENCH_DIR)!r}); import gauge; print(took, gauge.read())")


class Worker:
    """A worker.py process and the socket to it."""

    def __init__(self, src: Path, out_dir: Path) -> None:
        mine, theirs = socket.socketpair()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(theirs.fileno()),
             str(src), str(out_dir)],
            pass_fds=(theirs.fileno(),))
        theirs.close()
        self.conn = Connection(mine.detach())
        self.out_dir = out_dir

    def run(self, op: dict, traced: bool = False) -> tuple[float, dict]:
        self.conn.send((op, traced))
        if not self.conn.poll(OP_DEADLINE_S):
            raise TimeoutError(f"op did not finish in {OP_DEADLINE_S} s: {op}")
        seconds, result = self.conn.recv()
        if op["run"] == "cli" and "code" in result:
            result["stdout"] = (self.out_dir / "op.stdout").read_text()
            result["stderr"] = (self.out_dir / "op.stderr").read_text()
        return seconds, result

    def gauge(self) -> float:
        """One reading of the speed gauge, taken in the worker."""
        self.conn.send("gauge")
        return self.conn.recv()

    def close(self) -> dict:
        """End the run: the worker's peak memory and, if traced, its spans."""
        self.conn.send(None)
        final = self.conn.recv()
        self.conn.close()
        self.proc.wait(timeout=30)
        return final

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:  # left early, by an exception
            self.proc.kill()
            self.proc.wait()


class SetupTimer:
    """Times a fresh interpreter importing frobcx and building its parser.

    Timed inside the child, so interpreter start-up, which no change to
    frobcx can move, stays out of the figure.  The child then reads the
    speed gauge, and each sample is scaled by that reading, as op times
    are.  Samples are spread over the whole run.
    """

    def __init__(self, src: Path) -> None:
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        subprocess.run(self.cmd, env=self.env, check=True, capture_output=True)  # bytecode caches
        self.times: list[float] = []

    def sample(self) -> None:
        out = subprocess.run(self.cmd, env=self.env, check=True, capture_output=True, text=True)
        took, reading = map(float, out.stdout.split())
        self.times.append(took * gauge.NOMINAL_S / reading)


class Tally:
    """Outcomes of the ops run so far."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.checked: dict[str, dict] = {}  # a result that passed, by request
        self.seconds: list[float] = []
        self.passed: list[bool] = []
        self.before: list[int] = []  # index of the last gauge reading before each op
        self.busy = 0.0
        self.ok = self.failed = self.wrong = 0

    def add(self, op: dict, seconds: float, result: dict, reading: int = 0) -> None:
        key = json.dumps(op, sort_keys=True)
        if self.checked.get(key) == result:
            ok, wrong, reason = True, False, None
        else:
            ok, wrong, reason = checker.check(op, result)
            if ok:
                self.checked[key] = result
        self.busy += seconds
        self.ops.append(op)
        self.seconds.append(seconds)
        self.passed.append(ok)
        self.before.append(reading)
        self.ok += ok
        self.failed += not ok
        self.wrong += wrong
        if not ok:
            print(f"op failed: {' '.join(op.get('argv', [])) or op}: {reason}",
                  file=sys.stderr)


def end_to_end(name: str, seed: int, seconds: float, src: Path, out_dir: Path,
               over_limit: bool):
    setup = SetupTimer(src)
    tally = Tally()
    with Worker(src, out_dir) as worker:
        readings = [worker.gauge()]
        since_reading = 0.0
        start = block_start = perf_counter()
        for block in workloads.blocks(name, seed, over_limit):
            for op in block:
                op_seconds, result = worker.run(op)
                tally.add(op, op_seconds, result, len(readings) - 1)
                since_reading += op_seconds
                if since_reading >= GAUGE_EVERY_S:
                    readings.append(worker.gauge())
                    since_reading = 0.0
                if perf_counter() - start >= SETUP_EVERY_S * len(setup.times):
                    setup.sample()
            now = perf_counter()
            if now - start + (now - block_start) / 2 >= seconds:
                break  # another block would end further from S than this one
            block_start = now
        readings.append(worker.gauge())
        final = worker.close()
    scaled = gauge.scaled(tally.seconds, tally.before, readings)
    latencies = [s if ok else math.inf for s, ok in zip(scaled, tally.passed)]
    (out_dir / f"ops-{name}-{seed}.json").write_text(json.dumps(
        {"ops": tally.ops, "seconds": tally.seconds, "scaled": scaled,
         "passed": tally.passed, "gauge_readings": readings}))
    n = len(latencies)
    pct = workloads.WORKLOADS[name].tail_pct
    print(f"{name}: {n} ops, tail p{pct} (rule gives p{stats.tail_percentile(n)}), "
          f"fail_ratio {tally.failed / n:.4f}, {len(readings)} gauge readings "
          f"(median {statistics.median(readings):.4f} s, nominal {gauge.NOMINAL_S} s), "
          f"unscaled {tally.ok / tally.busy:.4g} ok ops per wall second", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup.times),
        "ok_ops_per_s": tally.ok / sum(scaled),
        "op_p50_s": stats.harrell_davis(latencies, 0.5),
        "op_tail_s": stats.harrell_davis(latencies, pct / 100),
        "ok_ratio": tally.ok / n,
        "peak_rss_mb": final["peak_rss_kb"] / 1024,
    }
    return tally, values


def layer_values(spans, counters, untraced: float, traced: float) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans and per-op counters."""
    values: dict[str, float] = defaultdict(int)
    for (name, *_), own in zip(spans, self_times(spans)):
        values["cli.main.self_s" if name == "cli.main" else f"{name}.s"] += own
    for per_op in counters.values():
        for key, value in per_op.items():
            values[key] = max(values[key], value) if key.endswith("_max") else values[key] + value

    def ratio(num, den):
        return values[num] / values[den] if values[den] else 0.0

    values["enumeration.accept_ratio"] = ratio("enumeration.accepted", "enumeration.compositions")
    values["spectral.perron_interval.converged_ratio"] = ratio(
        "spectral.perron_interval.converged", "spectral.perron_interval.calls")
    hits = values["poincare.build_table.hits"]
    lookups = hits + values["poincare.build_table.misses"]
    values["poincare.build_table.hit_ratio"] = hits / lookups if lookups else 0.0
    values["trace_overhead_ratio"] = traced / untraced
    return values


def layer_shares(spans) -> dict[str, float]:
    """Self-time share of each module in the traced ops; ``op`` is harness time."""
    shares: dict[str, float] = defaultdict(float)
    total = sum(end - start for name, start, end, *_ in spans if name == "op")
    for (name, *_), own in zip(spans, self_times(spans)):
        shares[name.split(".")[0]] += own / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def traced(name: str, seed: int, src: Path, out_dir: Path, over_limit: bool):
    plain, tally = Tally(), Tally()
    with Worker(src, out_dir) as worker:
        stream = workloads.blocks(name, seed, over_limit)
        for _ in range(workloads.WORKLOADS[name].trace_blocks):
            for op in next(stream):
                # alternate which pass runs first, so warm-up favours neither
                first_traced = len(plain.seconds) % 2 == 1
                for traced_pass in (first_traced, not first_traced):
                    (tally if traced_pass else plain).add(op, *worker.run(op, traced_pass))
        final = worker.close()
    spans, counters = final["spans"], final["counters"]
    path = out_dir / f"spans-{name}-{seed}.json"
    path.write_text(json.dumps({"spans": spans, "counters": counters}))
    shares = layer_shares(spans)
    print(f"{name}: self-time shares " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()),
          file=sys.stderr)
    return tally, layer_values(spans, counters, plain.busy, tally.busy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--over-limit", action="store_true",
                        help="sequence only: make one request in 16 print counts "
                             "past 4,300 digits (a known defect; those ops fail)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    bench_file = root / "BENCHMARK.json"
    if not (src / "frobcx" / "cli.py").is_file() or not bench_file.is_file():
        print("error: run from the root of a frobcx checkout (src/frobcx and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    if args.trace:
        tally, values = traced(args.workload, args.seed, src, out_dir, args.over_limit)
        wanted = spec["per_layer"]
    else:
        tally, values = end_to_end(args.workload, args.seed, args.seconds, src, out_dir,
                                   args.over_limit)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, metric in metrics.items():
        print(f"  {key:<45} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": len(tally.seconds),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
