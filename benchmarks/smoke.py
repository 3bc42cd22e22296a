"""Smoke test of the benchmark itself, at tiny sizes.

    python3 benchmarks/smoke.py

Runs every workload once end to end and once traced, checks that the metric
names match BENCHMARK.json, shows that every oracle rejects a deliberately
corrupted answer, and shows that the runner refuses to run without the
package. Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tabcomp import experiment  # noqa: E402
from tabcomp.enumeration import FunctionIndex  # noqa: E402

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def rejects(problems: list[str], needle: str, what: str) -> None:
    expect(any(needle in problem for problem in problems), f"oracle rejects {what}")


def edited(data: bytes, index: int, **changes) -> bytes:
    """The report with one point's fields replaced."""
    report = experiment.parse_report(data)
    points = list(report.points)
    points[index] = dataclasses.replace(points[index], **changes)
    return experiment.emit_report(experiment.ExperimentReport(tuple(points)))


def check_runs(workdir: Path) -> dict:
    """Every workload once, untraced and traced; returns one (item, answer) per workload."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    samples = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, workdir, tiny=True)
        plain = run.measure(workload, workload.items(1), 0.3)
        plain.finish(workload)
        expect(plain.latencies and not plain.failed, f"{name}: tiny run has no failed op")
        samples[name] = (workload, plain.items[0], plain.answers[0])
        metrics, traced = run.traced(workload, name, 1, 0.4)
        expect(not traced.failed, f"{name}: traced run answers as the untraced one")
        expect(
            list(metrics) == [m["name"] for m in declared["per_layer"]],
            f"{name}: traced metrics are BENCHMARK.json's per_layer list",
        )
    workload = samples["numbering"][0]
    metrics, _ = run.end_to_end(workload, 1, 0.2)
    expect(
        list(metrics) == [m["name"] for m in declared["end_to_end"]],
        "end-to-end metrics are BENCHMARK.json's end_to_end list",
    )
    return samples


def check_sweep_oracle(workdir: Path) -> None:
    recall = workloads.build("sweep_recall", workdir, tiny=True)
    config = next(recall.items(2))
    data = recall.run(config)
    expect(recall.check(config, data) == [], "sweep oracle accepts a correct report")
    point = experiment.parse_report(data).points[2]
    rejects(recall.check(config, b"garbage"), "does not parse", "an unparsable report")
    rejects(
        recall.check(config, edited(data, 2, precision_expected=point.precision_expected * 1.5)),
        "S/contained",
        "precision_expected other than S/contained_total",
    )
    total = config.shape.m**config.shape.n
    rejects(
        recall.check(config, edited(data, 2, contained_total=total + 1)),
        "outside",
        "contained_total above m^n",
    )
    rejects(
        recall.check(config, edited(data, 2, entropy=point.entropy + 0.01)),
        "n*entropy",
        "entropy that disagrees with log2(contained_total)",
    )
    last = experiment.parse_report(data).points[-1]
    rejects(
        recall.check(
            config,
            edited(
                data,
                0,
                contained_total=last.contained_total,
                entropy=last.entropy,
                precision_expected=1 / last.contained_total,
                precision_observed=0.0,
            ),
        ),
        "fell",
        "entropy and contained_total that fall as S grows",
    )
    rejects(
        recall.check(config, edited(data, 0, precision_observed=0.5)),
        "hits in",
        "observed precision outside the binomial band",
    )
    lines = data.split(b"\n")
    rejects(
        recall.check(config, b"\n".join([lines[0], lines[1] + b" "] + lines[2:])),
        "parse and emit",
        "a report that does not round-trip byte for byte",
    )
    rejects(
        recall.check(config, b"\n".join([lines[0]] + lines[2:])),
        "stored counts",
        "a report missing a sweep point",
    )
    rejects(
        recall.finish([(config, data + b"\n")]),
        "different report bytes",
        "a run that repeats differently",
    )

    store = workloads.build("sweep_store", workdir, tiny=True)
    config = next(store.items(2))
    data = store.run(config)
    rejects(
        store.check(config, edited(data, -1, precision_observed=0.9)),
        "saturated",
        "a saturated point that does not recall exactly",
    )


def check_numbering_oracle(sample) -> None:
    workload, index, (number, back) = sample
    expect(workload.check(index, (number, back)) == [], "numbering oracle accepts a round trip")
    first = (index.digits[0] + 1) % (index.shape.m + 1)
    wrong = FunctionIndex(index.shape, (first,) + index.digits[1:])
    rejects(workload.check(index, (number, wrong)), "function_from_number", "a wrong inverse")
    rejects(workload.check(index, (number + 1, back)), "first function", "a number off by one")


def check_documents_oracle(sample) -> None:
    workload, call, answer = sample
    expect(workload.check(call, answer) == [], "documents oracle accepts the answer")
    rejects(workload.check(call, (0, answer[1] + "x", "")), "differs", "stdout unlike the library's")
    rejects(workload.check(call, (1, "", "error: boom")), "exit 1", "a failing exit status")


def check_refuses_without_package(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "numbering", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    expect(done.returncode != 0 and not done.stdout, "runner fails, printing nothing, without src/")


def main() -> int:
    workdir = run.OUT / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        samples = check_runs(workdir)
        check_sweep_oracle(workdir)
        check_numbering_oracle(samples["numbering"])
        check_documents_oracle(samples["documents"])
        check_refuses_without_package(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
