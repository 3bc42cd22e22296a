"""Traced run: per-layer spans and counters recorded from outside the package.

``instrument`` replaces tabcomp functions at the names their callers look up
at call time (``tabcomp.experiment.sample_function``, ``tabcomp.cli.superpose``,
``FunctionTable.__post_init__``, ...) with wrappers that record a span or bump
a counter, and restores the originals on exit. Nothing under ``src/`` changes.

Spans are kept in memory, one log per thread so that the sweep's worker
threads never share a list or a counter, and are written out at the end.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import random
import threading
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from tabcomp import cli, enumeration, experiment, relations, streams
from tabcomp.relations import RelationTable
from tabcomp.tables import FunctionTable

# Every per-layer metric the traced run reports, with its unit. A metric that
# the workload never reaches reads 0.
LAYER_METRICS: dict[str, str] = {
    "enumeration.function_number.calls": "count",
    "enumeration.function_number.s": "s",
    "enumeration.function_from_number.calls": "count",
    "enumeration.function_from_number.s": "s",
    "enumeration.table_shape.calls": "count",
    "enumeration.count_functions.calls": "count",
    "tables.FunctionTable.built": "count",
    "tables.FunctionTable.validate_s": "s",
    "relations.sample_function.calls": "count",
    "relations.sample_function.s": "s",
    "relations.superpose.calls": "count",
    "relations.superpose.s": "s",
    "relations.RelationTable.built": "count",
    "relations.RelationTable.validate_s": "s",
    "relations.contains.s": "s",
    "relations.count_contained.s": "s",
    "relations.entropy.s": "s",
    "streams.uniform_index.calls": "count",
    "streams.substream_seed.calls": "count",
    "streams.draw_accept_ratio": "ratio",
    "experiment.master_s": "s",
    "experiment.master_accept_ratio": "ratio",
    "experiment.superpose_s": "s",
    "experiment.trials_s": "s",
    "experiment.trials": "count",
    "experiment.hits": "count",
    "experiment.workers": "count",
    "experiment.parallel_speedup": "ratio",
    "documents.parse.calls": "count",
    "documents.parse.s": "s",
    "documents.parse.bytes": "bytes",
    "documents.serialize.calls": "count",
    "documents.serialize.s": "s",
    "documents.serialize.bytes": "bytes",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.2": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


class _ThreadLog:
    """Spans and counters of one thread; span i's parent is an index into the same log."""

    def __init__(self) -> None:
        self.names = array("i")  # int32 on every platform CPython supports
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()


class Recorder:
    """Collects the spans and counters of one traced pass."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[_ThreadLog] = []
        self.span_names: list[str] = []
        self.origin = time.perf_counter()

    def log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self.logs.append(log)
            return log

    def spanned(self, name: str, function, on_exit=None):
        """Wrap ``function`` so that each call records a span called ``name``.

        ``on_exit(counts, args, result)`` may add counters from the call's
        arguments and result.
        """
        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            log = self.log()
            index = len(log.names)
            log.names.append(name_id)
            log.parents.append(log.stack[-1] if log.stack else -1)
            log.starts.append(time.perf_counter())
            log.ends.append(0.0)
            log.stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                log.ends[index] = time.perf_counter()
                log.stack.pop()
            if on_exit is not None:
                on_exit(log.counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, function):
        """Wrap ``function`` so that each call bumps the counter ``name``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.log().counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def counts(self) -> Counter[str]:
        total: Counter[str] = Counter()
        for log in self.logs:
            total.update(log.counts)
        return total

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Also splits the sweep point (``experiment.run_point``) into the
        superposition it runs and everything else, which is the trial loop.
        """
        totals: dict[str, dict[str, float]] = {}
        point_id = self._name_id("experiment.run_point")
        superpose_id = self._name_id("relations.superpose")
        sample_id = self._name_id("relations.sample_function")
        point_superpose = point_other = 0.0
        for log in self.logs:
            durations = array("d", (end - start for start, end in zip(log.starts, log.ends)))
            child_time = array("d", bytes(8 * len(durations)))
            for index, parent in enumerate(log.parents):
                if parent < 0:
                    continue
                child_time[parent] += durations[index]
                if log.names[parent] == point_id:
                    if log.names[index] == superpose_id:
                        point_superpose += durations[index]
                    elif log.names[index] != sample_id:
                        point_other += durations[index]
            for index, name_id in enumerate(log.names):
                entry = totals.setdefault(
                    self.span_names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += 1
                entry["s"] += durations[index]
                entry["self_s"] += durations[index] - child_time[index]
        point_s = totals.get("experiment.run_point", {}).get("s", 0.0)
        totals["experiment.superpose"] = {"s": point_superpose}
        totals["experiment.trials"] = {"s": point_s - point_superpose - point_other}
        return totals

    def _name_id(self, name: str) -> int:
        return self.span_names.index(name) if name in self.span_names else -1

    def write(self, stem: Path) -> int:
        """Write every span and return how many there were.

        ``<stem>.bin`` holds, thread after thread, the raw arrays of span
        name ids (int32), parent indices (int64), and start and end times
        (float64 perf_counter seconds); ``<stem>.json`` says how to read it.
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for log in self.logs:
                for column in (log.names, log.parents, log.starts, log.ends):
                    column.tofile(handle)
        header = {
            "span_names": self.span_names,
            "thread_span_counts": [len(log.names) for log in self.logs],
            "columns": [
                ["name", "int32"], ["parent", "int64"], ["start", "float64"], ["end", "float64"]
            ],
            "origin": self.origin,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        return sum(len(log.names) for log in self.logs)


def _parse_bytes(counts, args, result):
    text = args[0]
    counts["documents.parse.bytes"] += len(text)


def _serialize_bytes(counts, args, result):
    counts["documents.serialize.bytes"] += len(result.encode("utf-8"))


def _exit_code(counts, args, result):
    counts[f"cli.exit.{result}"] += 1


def _point_hits(counts, args, result):
    config = args[0]
    counts["experiment.trials"] += config.trials
    counts["experiment.hits"] += round(result.precision_observed * config.trials)


@contextmanager
def instrument(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    r = recorder

    def draw(function):
        @functools.wraps(function)
        def wrapper(seed, count):
            counts = r.log().counts
            before = counts["streams.finalize"]
            result = function(seed, count)
            counts["streams.uniform_index.calls"] += 1
            if count > 1:
                counts["streams.accepted"] += 1
                counts["streams.candidates"] += counts["streams.finalize"] - before
            return result

        return wrapper

    generators: list[random.Random] = []

    class CountingRandom(random.Random):
        """random.Random with the same stream that counts its randrange calls."""

        draws = 0

        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

        def randrange(self, *args):
            self.draws += 1
            return randrange(self, *args)

    randrange = random.Random.randrange

    def master_draws(counts, args, result):
        # the sequence's own generator is the only one that calls randrange
        counts["experiment.master_drawn"] += sum(g.draws for g in generators) // args[0].shape.n
        counts["experiment.master_accepted"] += len(result)
        generators.clear()

    def sweep(function):
        @functools.wraps(function)
        def wrapper(config, workers=1):
            r.log().counts["experiment.workers"] = workers
            return function(config, workers=workers)

        return r.spanned("experiment.run_sweep", wrapper)

    library = {
        "superpose": "relations.superpose",
        "contains": "relations.contains",
        "count_contained": "relations.count_contained",
        "entropy": "relations.entropy",
        "sample_function": "relations.sample_function",
        "inverse_evaluate_relation": "relations.inverse_evaluate_relation",
        "encode": "tables.encode",
        "decode": "tables.decode",
        "inverse_evaluate": "tables.inverse_evaluate",
        "evaluate": "tables.evaluate",
    }
    patches = [
        (cli, "main", lambda f: r.spanned("cli.main", f, _exit_code)),
        (cli, "parse_table_document", lambda f: r.spanned("documents.parse", f, _parse_bytes)),
        (
            cli,
            "serialize_table_document",
            lambda f: r.spanned("documents.serialize", f, _serialize_bytes),
        ),
        (experiment, "run_sweep", sweep),
        (experiment, "_master_sequence", lambda f: r.spanned("experiment.master", f, master_draws)),
        (experiment, "_run_point", lambda f: r.spanned("experiment.run_point", f, _point_hits)),
        (experiment, "substream_seed", lambda f: r.counted("streams.substream_seed.calls", f)),
        (experiment, "random", lambda f: types.SimpleNamespace(Random=CountingRandom)),
        (enumeration, "function_number", lambda f: r.spanned("enumeration.function_number", f)),
        (
            enumeration,
            "function_from_number",
            lambda f: r.spanned("enumeration.function_from_number", f),
        ),
        (enumeration, "table_shape", lambda f: r.counted("enumeration.table_shape.calls", f)),
        (
            enumeration,
            "count_functions",
            lambda f: r.counted("enumeration.count_functions.calls", f),
        ),
        (relations, "uniform_index", draw),
        (relations, "substream_seed", lambda f: r.counted("streams.substream_seed.calls", f)),
        (streams, "_finalize", lambda f: r.counted("streams.finalize", f)),
        (FunctionTable, "__post_init__", lambda f: r.spanned("tables.FunctionTable.validate", f)),
        (
            RelationTable,
            "__post_init__",
            lambda f: r.spanned("relations.RelationTable.validate", f),
        ),
    ]
    for name, span in library.items():
        for module in (cli, experiment):
            if hasattr(module, name):
                patches.append((module, name, lambda f, span=span: r.spanned(span, f)))
    originals = []
    try:
        for owner, name, wrap in patches:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            originals.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield recorder
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def layer_metrics(recorder: Recorder, extra: dict[str, float]) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the recorded spans and counters."""
    spans = recorder.span_totals()
    counts = recorder.counts()

    def span(name: str, field: str = "s") -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "enumeration.function_number.calls": span("enumeration.function_number", "calls"),
        "enumeration.function_number.s": span("enumeration.function_number"),
        "enumeration.function_from_number.calls": span("enumeration.function_from_number", "calls"),
        "enumeration.function_from_number.s": span("enumeration.function_from_number"),
        "enumeration.table_shape.calls": counts["enumeration.table_shape.calls"],
        "enumeration.count_functions.calls": counts["enumeration.count_functions.calls"],
        "tables.FunctionTable.built": span("tables.FunctionTable.validate", "calls"),
        "tables.FunctionTable.validate_s": span("tables.FunctionTable.validate"),
        "relations.sample_function.calls": span("relations.sample_function", "calls"),
        "relations.sample_function.s": span("relations.sample_function"),
        "relations.superpose.calls": span("relations.superpose", "calls"),
        "relations.superpose.s": span("relations.superpose"),
        "relations.RelationTable.built": span("relations.RelationTable.validate", "calls"),
        "relations.RelationTable.validate_s": span("relations.RelationTable.validate"),
        "relations.contains.s": span("relations.contains"),
        "relations.count_contained.s": span("relations.count_contained"),
        "relations.entropy.s": span("relations.entropy"),
        "streams.uniform_index.calls": counts["streams.uniform_index.calls"],
        "streams.substream_seed.calls": counts["streams.substream_seed.calls"],
        "streams.draw_accept_ratio": ratio(
            counts["streams.accepted"], counts["streams.candidates"]
        ),
        "experiment.master_s": span("experiment.master"),
        "experiment.master_accept_ratio": ratio(
            counts["experiment.master_accepted"], counts["experiment.master_drawn"]
        ),
        "experiment.superpose_s": span("experiment.superpose"),
        "experiment.trials_s": span("experiment.trials"),
        "experiment.trials": counts["experiment.trials"],
        "experiment.hits": counts["experiment.hits"],
        "experiment.workers": counts["experiment.workers"],
        "documents.parse.calls": span("documents.parse", "calls"),
        "documents.parse.s": span("documents.parse"),
        "documents.parse.bytes": counts["documents.parse.bytes"],
        "documents.serialize.calls": span("documents.serialize", "calls"),
        "documents.serialize.s": span("documents.serialize"),
        "documents.serialize.bytes": counts["documents.serialize.bytes"],
        "cli.main.calls": span("cli.main", "calls"),
        "cli.main.self_s": span("cli.main", "self_s"),
        "cli.exit.0": counts["cli.exit.0"],
        "cli.exit.1": counts["cli.exit.1"],
        "cli.exit.2": counts["cli.exit.2"],
    }
    values.update(extra)
    values.setdefault("experiment.parallel_speedup", 0.0)
    return {name: values[name] for name in LAYER_METRICS}
