"""The benchmark's four workloads: seeded inputs, the timed call, and the oracle.

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned. ``items(seed)`` yields fresh
inputs for ever, the same seed giving the same inputs. ``prepare`` does the
untimed work an item needs before its call, ``run`` is the only timed call,
and ``check`` returns the oracle's complaints about one answer (none means
correct). ``finish`` makes the checks that need a whole run.

The oracles hold for any valid random stream: they check identities and
bounds that the paper fixes, or compare with the library's own answer
computed outside the timed region, never with pinned random outputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

from tabcomp import cli, documents, enumeration, experiment, relations, tables
from tabcomp.enumeration import FunctionIndex, TableShape
from tabcomp.relations import RelationTable
from tabcomp.tables import FunctionTable

# A sweep point fails when the exact binomial probability of a hit count at
# least as far out as the observed one, on its side of the expected count,
# is below this. Exact rather than a normal band, because with few trials a
# normal band fails correct points: 7 hits in 10 trials at precision 1/8
# has probability 4e-5, beyond 5 sigmas.
BINOMIAL_ALPHA = 1e-9


def doubling(limit: int) -> tuple[int, ...]:
    """1, 2, 4, ... up to and including ``limit``, a power of two."""
    return tuple(1 << k for k in range(limit.bit_length()))


def even_steps(limit: int, steps: int) -> tuple[int, ...]:
    """``steps`` evenly spaced counts ending at ``limit``."""
    return tuple(limit * k // steps for k in range(1, steps + 1))


# --- sweeps -----------------------------------------------------------------


def binomial_tail(trials: int, p: float, hits: int) -> float:
    """Probability of at most ``hits`` or of at least ``hits`` successes, the smaller."""
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    return min(sum(pmf[: hits + 1]), sum(pmf[hits:]))


def check_report(config: experiment.ExperimentConfig, data: bytes) -> list[str]:
    """Oracle for one sweep's CSV report."""
    try:
        report = experiment.parse_report(data)
    except ValueError as error:
        return [f"report does not parse: {error}"]
    problems = []
    if experiment.emit_report(report) != data:
        problems.append("CSV report does not survive parse and emit unchanged")
    if experiment.parse_report(experiment.emit_report(report, "json"), "json") != report:
        problems.append("JSON report does not survive emit and parse unchanged")
    counts = tuple(point.stored_count for point in report.points)
    if counts != config.stored_counts:
        problems.append(f"report has stored counts {counts}, config asked {config.stored_counts}")
    n, m = config.shape.n, config.shape.m
    total = m**n
    previous = None
    for point in report.points:
        s, contained = point.stored_count, point.contained_total
        where = f"S={s}"
        if not s <= contained <= total:
            problems.append(f"{where}: contained_total {contained} outside {s}..{total}")
            continue
        if point.precision_expected != s / contained:
            problems.append(f"{where}: precision_expected is not S/contained")
        bits = n * point.entropy
        if abs(math.log2(contained) - bits) > 1e-9 * max(1.0, bits):
            problems.append(f"{where}: log2(contained_total) != n*entropy ({bits})")
        if previous is not None and (
            point.entropy < previous.entropy or contained < previous.contained_total
        ):
            problems.append(f"{where}: entropy or contained_total fell as S grew")
        if s == total and (contained != total or point.precision_observed != 1.0):
            problems.append(f"{where}: saturated relation must contain all and recall exactly")
        hits = round(point.precision_observed * config.trials)
        expected_hits = point.precision_expected * config.trials
        if (
            hits / config.trials != point.precision_observed
            or binomial_tail(config.trials, point.precision_expected, hits) < BINOMIAL_ALPHA
        ):
            problems.append(
                f"{where}: {point.precision_observed * config.trials:g} hits in "
                f"{config.trials} trials, expected {expected_hits:.2f}"
            )
        previous = point
    return problems


@dataclass(frozen=True)
class SweepWorkload:
    """Repeated ``run_sweep`` calls on one shape and stored-count ladder, a fresh seed each."""

    shape: tuple[int, int]
    stored_counts: tuple[int, ...]
    trials: int
    workers: int
    # ops one sweep counts towards ops_per_s: trials, or stored functions superposed
    ops_per_call: int
    op_unit: str

    def items(self, seed: int):
        rng = random.Random(seed)
        shape = TableShape(*self.shape)
        while True:
            yield experiment.ExperimentConfig(
                shape, self.stored_counts, self.trials, rng.getrandbits(64)
            )

    def prepare(self, config) -> None:
        pass

    def run(self, config) -> bytes:
        return self.run_with(config, self.workers)

    def run_with(self, config, workers: int) -> bytes:
        return experiment.emit_report(experiment.run_sweep(config, workers=workers))

    def ops(self, config) -> int:
        return self.ops_per_call

    def check(self, config, data: bytes) -> list[str]:
        return check_report(config, data)

    def finish(self, done: list) -> list[str]:
        """The same seed gives byte-identical reports: run the first sweep again."""
        if not done:
            return []
        config, data = done[0]
        if self.run(config) != data:
            return [f"seed {config.seed}: a second run gave different report bytes"]
        return []


# --- numbering --------------------------------------------------------------

# Diagonals per stratified block of the numbering workload. Odd, so that
# the median round trip falls inside the middle stratum, not on the cost
# step between two strata.
DIAGONAL_BLOCK = 51


def offset_before(shape: TableShape) -> int:
    """Functions in all tables before ``shape``, in closed form.

    An independent oracle for the package's table-by-table sum: the tables
    of value count m on diagonals before D hold (m+1)^1 + ... + (m+1)^(D-m)
    functions, a geometric series; the shapes before ``shape`` on its own
    diagonal D are added one by one.
    """
    d = shape.diagonal
    total = sum((m + 1) * ((m + 1) ** (d - m) - 1) // m for m in range(1, d))
    return total + sum((m + 1) ** (d - m + 1) for m in range(1, shape.m))


def check_numbering(index: FunctionIndex, answer) -> list[str]:
    """Oracle for one round trip: exact inverse, and numbered right after the preceding tables."""
    number, back = answer
    problems = []
    if back != index:
        problems.append(f"function_from_number({number}) gave {back}, not {index}")
    first = offset_before(index.shape) + 1
    if number - index.as_natural() != first:
        problems.append(
            f"{index.shape}: first function numbered {number - index.as_natural()}, "
            f"not one after the preceding tables' {first - 1}"
        )
    return problems


@dataclass(frozen=True)
class NumberingWorkload:
    """Round trips function_number -> function_from_number on seeded shapes and digits.

    Every block of DIAGONAL_BLOCK round trips takes one diagonal from the
    middle of each of as many log-uniform strata of 1..max_diagonal, in a
    seeded order, so that every block holds the same diagonals and a run's
    work hardly depends on the seed; the shape on a diagonal and the digits
    are uniform.
    """

    max_diagonal: int
    op_unit = "round trip"

    def items(self, seed: int):
        rng = random.Random(seed)
        top = self.max_diagonal
        strata = [
            max(1, min(top, round(top ** ((k + 0.5) / DIAGONAL_BLOCK))))
            for k in range(DIAGONAL_BLOCK)
        ]
        while True:
            diagonals = strata[:]
            rng.shuffle(diagonals)
            for d in diagonals:
                m = rng.randint(1, d)
                n = d + 1 - m
                yield FunctionIndex(TableShape(n, m), tuple(rng.randint(0, m) for _ in range(n)))

    def prepare(self, index) -> None:
        pass

    def run(self, index):
        number = enumeration.function_number(index)
        return number, enumeration.function_from_number(number)

    def ops(self, index) -> int:
        return 1

    def check(self, index, answer) -> list[str]:
        return check_numbering(index, answer)

    def finish(self, done: list) -> list[str]:
        return []


# --- documents --------------------------------------------------------------


@dataclass(frozen=True)
class DocumentCall:
    """One CLI call: its argv, the documents it reads, and the stdout it must print."""

    argv: tuple[str, ...]
    files: tuple[tuple[Path, str], ...]
    expected: str


def function_text(table: FunctionTable) -> str:
    shape = table.shape
    return f"table {shape.n} {shape.m} function\n" + " ".join(map(str, table.marks)) + "\n"


def relation_text(shape: TableShape, rows: list[list[int]]) -> str:
    lines = [f"table {shape.n} {shape.m} relation"]
    lines += [f"col {i}: " + " ".join(map(str, column)) for i, column in enumerate(rows, 1)]
    return "\n".join(lines) + "\n"


def serialized(table) -> str:
    return documents.serialize_table_document(documents.TableDocument(table))


# The CLI calls of the mix: writes print a document, reads print a value.
COMMANDS = (
    "superpose",
    "decode",
    "contains",
    "contained-count total-on-support",
    "contained-count including-partial",
    "entropy",
    "sample",
    "inverse",
    "encode",
)


# Marks per relation column: one, about the square root of m, or all m rows.
DENSITIES = ("one", "root", "dense")


@dataclass(frozen=True)
class DocumentsWorkload:
    """In-process ``tabcomp.cli.main(argv)`` calls on seeded documents.

    Every block of calls holds the same grid: each command once for each of
    four sides log-spaced from 4 to ``max_side`` and each density, with
    superpose taking 2 to 8 documents across the grid. The seed shuffles the
    block, jitters each side by up to 5% and draws every mark, so that the
    work in a block hardly depends on it.
    """

    workdir: Path
    max_side: int
    op_unit = "CLI call"

    def _grid(self) -> list[tuple[str, int, str, int]]:
        sides = [round(4 * (self.max_side / 4) ** (k / 3)) for k in range(4)]
        cells = [(side, density) for side in sides for density in DENSITIES]
        # the largest, densest cell superposes only two documents, so that
        # no call costs much more than one parse of its densest document
        return [
            (command, side, density, 2 + (len(cells) - 1 - k) % 7)
            for command in COMMANDS
            for k, (side, density) in enumerate(cells)
        ]

    def _side(self, rng: random.Random, side: int) -> int:
        return max(4, min(self.max_side, round(side * rng.uniform(0.95, 1.05))))

    def _relation_rows(
        self, rng: random.Random, shape: TableShape, density: str
    ) -> list[list[int]]:
        marks = {"one": 1, "root": round(math.sqrt(shape.m)), "dense": shape.m}[density]
        return [sorted(rng.sample(range(1, shape.m + 1), marks)) for _ in range(shape.n)]

    def _function(self, rng: random.Random, shape: TableShape) -> FunctionTable:
        return FunctionTable(shape, tuple(rng.randint(0, shape.m) for _ in range(shape.n)))

    def _call(
        self, rng: random.Random, command: str, shape: TableShape, density: str, parts: int
    ) -> DocumentCall:
        path = self.workdir / "doc0.txt"
        if command == "decode":
            table = self._function(rng, shape)
            digits = " ".join(map(str, table.marks))
            argv = ("decode", "--shape", f"{shape.n}x{shape.m}", "--k", digits)
            return DocumentCall(argv, (), serialized(table))
        if command == "encode":
            table = self._function(rng, shape)
            expected = " ".join(map(str, tables.encode(table).digits)) + "\n"
            return DocumentCall(("encode", str(path)), ((path, function_text(table)),), expected)
        if command == "superpose":
            files, operands = [], []
            for k in range(parts):
                part_path = self.workdir / f"doc{k}.txt"
                if k % 2:
                    table = self._function(rng, shape)
                    files.append((part_path, function_text(table)))
                else:
                    rows = self._relation_rows(rng, shape, density)
                    table = RelationTable.from_rows(shape, rows)
                    files.append((part_path, relation_text(shape, rows)))
                operands.append(table)
            expected = serialized(reduce(relations.superpose, operands))
            argv = ("superpose",) + tuple(str(p) for p, _ in files)
            return DocumentCall(argv, tuple(files), expected)
        rows = self._relation_rows(rng, shape, density)
        relation = RelationTable.from_rows(shape, rows)
        files = ((path, relation_text(shape, rows)),)
        if command == "contains":
            # contained half of the time: pick each column's row among its marks
            if rng.random() < 0.5:
                marks = tuple(rng.choice(column) for column in rows)
            else:
                marks = tuple(rng.randint(1, shape.m) for _ in range(shape.n))
            function = FunctionTable(shape, marks)
            function_path = self.workdir / "doc1.txt"
            expected = "true\n" if relations.contains(relation, function) else "false\n"
            files += ((function_path, function_text(function)),)
            return DocumentCall(("contains", str(path), str(function_path)), files, expected)
        if command.startswith("contained-count"):
            mode = command.split()[1]
            expected = f"{relations.count_contained(relation, mode)}\n"
            return DocumentCall(("contained-count", str(path), "--mode", mode), files, expected)
        if command == "entropy":
            return DocumentCall(("entropy", str(path)), files, f"{relations.entropy(relation)!r}\n")
        if command == "sample":
            seed = rng.getrandbits(32)
            expected = serialized(relations.sample_function(relation, random.Random(seed)))
            return DocumentCall(("sample", str(path), "--seed", str(seed)), files, expected)
        if command == "inverse":
            value = rng.randint(1, shape.m)
            columns = relations.inverse_evaluate_relation(relation, value)
            expected = " ".join(map(str, columns)) + "\n"
            return DocumentCall(("inverse", str(path), "--value", str(value)), files, expected)
        raise ValueError(f"unknown command {command!r}")

    def items(self, seed: int):
        rng = random.Random(seed)
        grid = self._grid()
        while True:
            block = grid[:]
            rng.shuffle(block)
            for command, side, density, parts in block:
                shape = TableShape(self._side(rng, side), self._side(rng, side))
                yield self._call(rng, command, shape, density, parts)

    def prepare(self, call: DocumentCall) -> None:
        for path, text in call.files:
            path.write_text(text)

    def run(self, call: DocumentCall):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
        return code, out.getvalue(), err.getvalue()

    def ops(self, call) -> int:
        return 1

    def check(self, call: DocumentCall, answer) -> list[str]:
        code, stdout, stderr = answer
        if code != 0:
            return [f"{' '.join(call.argv[:1])}: exit {code}: {stderr.strip()}"]
        if stdout != call.expected:
            return [f"{call.argv[0]}: stdout differs from the library's answer"]
        return []

    def finish(self, done: list) -> list[str]:
        return []


def build(name: str, workdir: Path, tiny: bool = False):
    """The named workload at full size, or at the smoke test's tiny size."""
    if name == "sweep_recall":
        if tiny:
            shape, counts, trials = (4, 4), doubling(16), 50
        else:
            shape, counts, trials = (16, 16), doubling(32), 80
        return SweepWorkload(shape, counts, trials, 1, trials * len(counts), "trial")
    if name == "sweep_store":
        shape, steps, trials = ((5, 2), 4, 10) if tiny else ((8, 2), 8, 10)
        counts = even_steps(shape[1] ** shape[0], steps)
        return SweepWorkload(shape, counts, trials, 1, sum(counts), "stored function")
    if name == "numbering":
        return NumberingWorkload(12 if tiny else 200)
    if name == "documents":
        return DocumentsWorkload(workdir, 10 if tiny else 200)
    raise KeyError(name)


WORKLOADS = ("sweep_recall", "sweep_store", "numbering", "documents")
