"""tabcomp benchmark: one seeded workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all      # every workload, one table

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced pass.
The line before it holds run metadata that no bound applies to. Times are
scaled to a fixed host speed, gauged by a reference loop between ops (see
Speedometer). Develop a change with ``--seed 1`` and confirm a claim with
``--seed 7919`` as well.
"""

from __future__ import annotations

import argparse
import bisect
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SEED = 1
CONFIRM_SEED = 7919
SETUP_REPEATS = 25
# A shared host's speed can drift by up to 1.8x over tens of seconds, alike
# for any pure-Python code. So every timing is scaled to a fixed host speed: a
# reference loop, run between ops at least every REFERENCE_EVERY seconds and
# after every op of REFERENCE_LONG_OP seconds or more, gauges the speed at
# each moment, and a time is multiplied by REFERENCE_S over what the loop
# took around it: the median of the REFERENCE_NEAR samples nearest the
# middle of the timed interval. Sampling every 0.02 s instead made the
# short numbering ops spread about twice as much between runs.
REFERENCE_S = 0.0005
REFERENCE_EVERY = 0.1
REFERENCE_LONG_OP = 0.01
REFERENCE_NEAR = 11
# Share of --seconds that the traced run spends untraced; the traced pass
# then replays the same inputs, which takes several times as long.
UNTRACED_SHARE = 0.25


def reference_loop() -> int:
    """Fixed pure-Python work, none of it in tabcomp, that allocates no tracked objects."""
    acc = 0
    for k in range(6000):
        acc = (acc * 31 + k) % 1000003
    big = 1
    for k in range(2, 160):
        big *= k
    return acc ^ (big & 0xFFFF)


class Speedometer:
    """Reference-loop samples over time, to scale wall times to a fixed host speed."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.takes: list[float] = []

    def sample(self) -> None:
        """Time the reference loop; the fastest of three rejects interrupts."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.takes.append(best)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= REFERENCE_EVERY

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time spent from start to end into reference time."""
        middle = bisect.bisect(self.times, (start + end) / 2)
        lo = max(0, min(len(self.times) - REFERENCE_NEAR, middle - REFERENCE_NEAR // 2))
        return REFERENCE_S / statistics.median(self.takes[lo : lo + REFERENCE_NEAR])

    def speed(self) -> float:
        """The host's median speed over the samples, as a share of the reference speed."""
        return REFERENCE_S / statistics.median(self.takes)


class Pass:
    """The ops of one timed pass and what the oracle said about them."""

    def __init__(self) -> None:
        self.items: list = []
        self.answers: list = []
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.speedometer = Speedometer()
        self.ops = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.spans = 0

    def fail(self, index: int, problems: list[str]) -> None:
        self.failed.add(index)
        self.problems.extend(problems)

    def finish(self, workload) -> None:
        """Whole-run checks; a failure there counts against the first op."""
        done = [(i, a) for i, a in zip(self.items, self.answers) if a is not None]
        problems = workload.finish(done)
        if problems:
            self.fail(0, problems)

    def scaled(self) -> list[float]:
        """The latencies in reference time, scaled by the host's speed while each ran."""
        meter = self.speedometer
        return [
            latency * meter.scale(start, end)
            for latency, (start, end) in zip(self.latencies, self.intervals)
        ]


def warm_up(workload, items):
    """Run one op untimed, so that timing starts after first-call set-up; return the rest."""
    first = next(items)
    workload.prepare(first)
    workload.run(first)
    return items


def measure(workload, items, seconds: float, check: bool = True, keep: bool = False) -> Pass:
    """Run the items one after another until ``seconds`` of wall time have passed.

    Keeps the first item and answer, for the whole-run checks, or with
    ``keep`` all of them.
    """
    result = Pass()
    meter = result.speedometer
    deadline = time.perf_counter() + seconds
    for index, item in enumerate(items):
        workload.prepare(item)
        if meter.due():
            meter.sample()
        start = time.perf_counter()
        try:
            answer = workload.run(item)
        except Exception:
            answer = None
            result.fail(index, [traceback.format_exc(limit=3)])
        end = time.perf_counter()
        result.latencies.append(end - start)
        result.intervals.append((start, end))
        if end - start >= REFERENCE_LONG_OP:
            meter.sample()
        if keep or not result.items:
            result.items.append(item)
            result.answers.append(answer)
        if answer is not None:
            result.ops += workload.ops(item)
            problems = workload.check(item, answer) if check else []
            if problems:
                result.fail(index, problems)
        if time.perf_counter() >= deadline:
            break
    meter.sample()
    return result


# Run by each fresh interpreter of measure_setup after its import: it
# samples the reference loop and prints the fastest sample and the time spent.
SETUP_CHILD = """
import tabcomp.cli
import time
{loop}
start = time.perf_counter()
best = float("inf")
for _ in range(5):
    begin = time.perf_counter()
    reference_loop()
    best = min(best, time.perf_counter() - begin)
print(best, time.perf_counter() - start)
"""


def measure_setup() -> float:
    """Median time, in reference time, of a fresh interpreter importing tabcomp.cli.

    The child gauges its own speed, since it may run on another CPU than
    this process; the time it spends doing so is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CHILD.format(loop=inspect.getsource(reference_loop))
    command = [sys.executable, "-c", code]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True)
        wall = time.perf_counter() - start
        best, spent = map(float, done.stdout.split())
        if attempt:  # the first start compiles bytecode
            times.append((wall - spent) * REFERENCE_S / best)
    return statistics.median(times)


def percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "tabcomp").glob("*.py"))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Pass]:
    setup_s = measure_setup()
    run = measure(workload, warm_up(workload, workload.items(seed)), seconds)
    run.finish(workload)
    attempted = len(run.latencies)
    latencies = run.scaled()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.ops / sum(latencies), "1/s"),
        "op_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "op_p99_ms": (percentile_ms(latencies, 99), "ms"),
        "ok_ratio": ((attempted - len(run.failed)) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, run


def traced(workload, name: str, seed: int, seconds: float) -> tuple[dict, Pass]:
    import tracing

    items = warm_up(workload, workload.items(seed))
    plain = measure(workload, items, seconds * UNTRACED_SHARE, keep=True)
    plain.finish(workload)
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        replay = measure(workload, plain.items, float("inf"), check=False, keep=True)
    for index, (answer, again) in enumerate(zip(plain.answers, replay.answers)):
        if answer != again:
            plain.fail(index, ["a traced op answered differently from the same op untraced"])
    extra = {
        "trace.untraced_s": sum(plain.latencies),
        "trace.traced_s": sum(replay.latencies),
        "trace.overhead_s": sum(replay.latencies) - sum(plain.latencies),
    }
    if hasattr(workload, "workers") and plain.items:
        config = plain.items[0]
        timings, reports = [], []
        for workers in (1, 2):
            start = time.perf_counter()
            reports.append(workload.run_with(config, workers))
            timings.append(time.perf_counter() - start)
        extra["experiment.parallel_speedup"] = timings[0] / timings[1]
        if reports[0] != reports[1]:
            plain.fail(0, ["workers=1 and workers=2 gave different report bytes"])
    plain.spans = recorder.write(OUT / f"trace-{name}")
    metrics = {
        key: (value, tracing.LAYER_METRICS[key])
        for key, value in tracing.layer_metrics(recorder, extra).items()
    }
    return metrics, plain


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, workdir)
        if trace:
            metrics, run = traced(workload, name, seed, seconds)
        else:
            metrics, run = end_to_end(workload, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(run.latencies)
    failed = len(run.failed)
    for problem in run.problems[:20]:
        print(f"FAIL {name}: {problem}", file=sys.stderr)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "op": workload.op_unit,
        "samples": attempted,
        "host_speed": run.speedometer.speed(),
        "wall_ops_per_s": run.ops / sum(run.latencies),
        "fail_ratio": failed / attempted,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines(),
    }
    if trace:
        meta["spans"] = run.spans
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table, then one combined JSON line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        command += ["--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{name:13} fail_ratio = {fail_ratio} ({result['failed']}/{result['attempted']})")
        for key, metric in result["metrics"].items():
            print(f"{name:13} {key:40} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument(
        "--seed", type=int, default=SEED, help=f"input seed; confirm claims on {CONFIRM_SEED} too"
    )
    parser.add_argument("--seconds", type=float, default=25.0, help="wall time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run")
    args = parser.parse_args(argv)
    if not (SRC / "tabcomp" / "__init__.py").is_file():
        print(f"error: no tabcomp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; choose {names} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
