"""The four workloads: their inputs, their set-up, one item each, and the
answer check for every item.

Every workload has a fixed corpus per seed and hands the measuring loop one
batch per pass over it, each pass in its own seeded order.  The loop takes
each item's median over the passes, so the reported costs do not depend on
where the clock stopped or on one slow pass.

Every answer is checked against a reference that does not come from the
code under test: suite labels, the generator's ground truth, exit codes
and UB kinds computed in Python (:mod:`kernels`), the committed Figure 2
and Figure 3 tables, and the oracle stack's own differential checks.
``check`` returns ``None`` for a right answer and a one-line reason for a
wrong one.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import re
from typing import Iterator, Optional

import kernels

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Generator programs in the ``check-cold`` corpus, beside both suites.
GENERATED_PROGRAMS = 200
#: Generated cases in the ``fuzz-oracle`` corpus.
FUZZ_CASES = 384


def known_misses() -> dict[str, str]:
    """Bad ubsuite programs kcc is known not to flag, with the reason."""
    data = json.loads((HERE / "known_misses.json").read_text(encoding="utf-8"))
    return data["ubsuite"]


def _digest(pairs) -> str:
    hasher = hashlib.sha256()
    for name, source in pairs:
        hasher.update(name.encode("utf-8") + b"\0" + source.encode("utf-8") + b"\0")
    return hasher.hexdigest()


def _suite_answer(case, flagged: bool, kinds, defined: bool) -> Optional[str]:
    """A verdict against the suite label (good: DEFINED; bad: flagged)."""
    if case.is_bad:
        if not flagged:
            return "bad program not flagged"
        if case.expected_kinds and not any(k in case.expected_kinds for k in kinds):
            return f"flagged as {[k.name for k in kinds]}, expected " \
                   f"{[k.name for k in case.expected_kinds]}"
        return None
    return None if defined else "good program not DEFINED"


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        """Build the inputs and warm every cache a user would have warm."""
        raise NotImplementedError

    def batches(self) -> Iterator[list]:
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def item_name(self, item) -> str:
        return item.name

    def check(self, item, result) -> Optional[str]:
        raise NotImplementedError

    def known_miss(self, item, result) -> bool:
        """A wrong answer pinned in ``known_misses.json`` (still counted)."""
        return False

    def inputs_digest(self) -> str:
        raise NotImplementedError


def _seeded_passes(items: list, label: str) -> Iterator[list]:
    """Endless passes over ``items``, each in its own seeded order."""
    number = 0
    while True:
        order = list(items)
        random.Random(f"kccbench-{label}-{number}").shuffle(order)
        yield order
        number += 1


def _suite_cases():
    from repro.suites.juliet import generate_juliet_suite
    from repro.suites.ubsuite import generate_undefinedness_suite

    return generate_undefinedness_suite(), generate_juliet_suite()


class CheckCold(Workload):
    """``Checker.check`` with every source new to the compile cache."""

    name = "check-cold"

    def setup(self, seed: int) -> None:
        from repro import Checker
        from repro.fuzz.generator import generate_case

        self.seed = seed
        self.misses = known_misses()
        ubsuite, juliet = _suite_cases()
        self.corpus = [("suite", case) for case in ubsuite.cases + juliet.cases]
        self.corpus += [("generated", generate_case(seed, index, inject="mixed"))
                        for index in range(GENERATED_PROGRAMS)]
        # First-run lazy initialisation, on a throwaway session.
        warm = Checker()
        for _kind, case in self.corpus[:1] + self.corpus[-1:]:
            warm.check(case.source, filename=case.name)

    def batches(self):
        return _seeded_passes(self.corpus, f"check-cold-{self.seed}")

    def item_name(self, item) -> str:
        return item[1].name

    def run_item(self, item):
        from repro import Checker

        _kind, case = item
        # A fresh session per item: an empty compile cache, and no heap of
        # earlier units for the collector to walk.
        return Checker().check(case.source, filename=case.name)

    def check(self, item, report) -> Optional[str]:
        from repro.errors import OutcomeKind

        kind, case = item
        outcome = report.outcome
        defined = outcome.kind is OutcomeKind.DEFINED
        if kind == "suite":
            return _suite_answer(case, outcome.flagged, outcome.ub_kinds, defined)
        if case.is_bad:
            if not outcome.flagged:
                return f"planted {case.injected} not flagged"
            if not any(k in case.expected_kinds for k in outcome.ub_kinds):
                return f"planted {case.injected} flagged as {outcome.ub_kinds}"
            return None
        if not defined:
            return f"clean generated program was {outcome.kind.value}"
        if outcome.stdout != case.predicted_stdout or \
                outcome.exit_code != case.predicted_exit:
            return "stdout or exit code differs from the generator's simulation"
        return None

    def known_miss(self, item, report) -> bool:
        kind, case = item
        return kind == "suite" and case.is_bad and case.name in self.misses \
            and not report.outcome.flagged

    def inputs_digest(self) -> str:
        return _digest((case.name, case.source) for _kind, case in self.corpus)


class RunKernels(Workload):
    """Seeded loop kernels, compiled in set-up, then checked from a warm cache."""

    name = "run-kernels"

    def setup(self, seed: int) -> None:
        from repro import Checker

        self.seed = seed
        self.kernels = kernels.make_kernels(seed)
        self.checker = Checker()
        options = self.checker.options
        for kernel in self.kernels:
            unit = self.checker.compile(kernel.source, filename=kernel.name)
            unit.lowered_for(options)
            unit.compiled_for(options)
        # First-run lazy initialisation: one run per family.
        for kernel in self.kernels[::kernels.PER_FAMILY]:
            self.checker.check(kernel.source, filename=kernel.name)

    def batches(self):
        return _seeded_passes(self.kernels, f"run-kernels-{self.seed}")

    def run_item(self, kernel):
        return self.checker.check(kernel.source, filename=kernel.name)

    def check(self, kernel, report) -> Optional[str]:
        from repro.errors import OutcomeKind

        outcome = report.outcome
        if kernel.expected_ub is not None:
            kinds = [kind.name for kind in outcome.ub_kinds]
            if kinds[:1] != [kernel.expected_ub]:
                return f"expected {kernel.expected_ub}, got " \
                       f"{outcome.kind.value} {kinds}"
            return None
        if outcome.kind is not OutcomeKind.DEFINED or \
                outcome.exit_code != kernel.expected_exit:
            return f"expected exit {kernel.expected_exit}, got " \
                   f"{outcome.kind.value} exit {outcome.exit_code}"
        return None

    def inputs_digest(self) -> str:
        return _digest((k.name, k.source) for k in self.kernels)


class HarnessProbed(Workload):
    """``analyze_case`` with the four default tools over ubsuite + Juliet."""

    name = "harness-probed"

    def setup(self, seed: int) -> None:
        from repro.analyzers.registry import default_tools
        from repro.api.session import SHARED_COMPILE_CACHE
        from repro.suites.harness import analyze_case

        self.seed = seed
        self.misses = known_misses()
        self.ubsuite, self.juliet = _suite_cases()
        self.tools = default_tools()
        self.kcc_index = [tool.name for tool in self.tools].index("kcc")
        self.expected = {"figure2": _committed_table("figure2_juliet.txt"),
                         "figure3": _committed_table("figure3_ubsuite.txt")}
        self.cases = self.ubsuite.cases + self.juliet.cases
        # Warm the compile cache and the instrumented IR with one untimed
        # pass, from an empty cache so that every set-up does the same work.
        SHARED_COMPILE_CACHE.clear()
        for case in self.cases:
            analyze_case(self.tools, case.source, case.name)

    def batches(self):
        return _seeded_passes(self.cases, f"harness-probed-{self.seed}")

    def run_item(self, case):
        from repro.suites import harness

        return harness.analyze_case(self.tools, case.source, case.name)

    def check(self, case, results) -> Optional[str]:
        kcc = results[self.kcc_index]
        return _suite_answer(case, kcc.flagged, kcc.kinds,
                             not kcc.flagged and not kcc.inconclusive)

    def known_miss(self, case, results) -> bool:
        return case.is_bad and case.name in self.misses and \
            not results[self.kcc_index].flagged

    def check_pass(self, records: dict) -> list[str]:
        """Per-tool, per-category percentages of one whole pass against
        the committed Figure 2 and Figure 3 tables."""
        names = [tool.name for tool in self.tools]
        flagged = {case.name: [r.flagged for r in records[case.name]]
                   for case in self.cases}
        got = {"figure2": _figure2(self.juliet.cases, flagged, names),
               "figure3": _figure3(self.ubsuite.cases, flagged, names)}
        problems = []
        for figure, rows in self.expected.items():
            for row, cells in rows.items():
                for column, want in cells.items():
                    have = got[figure].get(row, {}).get(column)
                    if have != want:
                        problems.append(f"{figure} {row!r} {column}: "
                                        f"committed {want}, measured {have}")
        return problems

    def inputs_digest(self) -> str:
        return _digest((case.name, case.source) for case in self.cases)


class FuzzOracle(Workload):
    """``generate_case(inject="mixed")`` then ``run_oracles`` per item."""

    name = "fuzz-oracle"

    def setup(self, seed: int) -> None:
        from repro.fuzz import generator, oracles

        self.seed = seed
        self.indices = list(range(FUZZ_CASES))
        self.config = oracles.OracleConfig()  # what ``kcc-check fuzz`` uses
        # First-run lazy initialisation, on a case outside the measured corpus.
        warm = generator.generate_case(seed, -1, inject="mixed")
        oracles.run_oracles(warm, oracle_config=self.config)

    def batches(self):
        return _seeded_passes(self.indices, f"fuzz-oracle-{self.seed}")

    def item_name(self, index) -> str:
        return f"fuzz-{self.seed}-{index}"

    def run_item(self, index):
        from repro.fuzz import generator, oracles

        case = generator.generate_case(self.seed, index, inject="mixed")
        return oracles.run_oracles(case, oracle_config=self.config)

    def check(self, index, report) -> Optional[str]:
        if report.ok:
            return None
        first = report.failures[0]
        return f"{first.oracle}: {first.detail}"

    def inputs_digest(self) -> str:
        from repro.fuzz.generator import generate_case

        cases = (generate_case(self.seed, index, inject="mixed")
                 for index in self.indices)
        return _digest((case.name, case.source) for case in cases)


WORKLOADS = {w.name: w for w in (CheckCold, RunKernels, HarnessProbed, FuzzOracle)}


# ---------------------------------------------------------------------------
# Figure 2 / Figure 3 tables: parsed from the committed results, recomputed
# here from the tools' raw flagged bits.
# ---------------------------------------------------------------------------

def _committed_table(filename: str) -> dict[str, dict[str, str]]:
    """The first table of a committed results file: row -> column -> cell."""
    lines = (ROOT / "benchmarks" / "results" / filename).read_text(
        encoding="utf-8").splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    header = re.split(r"\s{2,}", lines[rule - 1].strip())
    rows: dict[str, dict[str, str]] = {}
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        cells = re.split(r"\s{2,}", line.strip())
        rows[cells[0]] = dict(zip(header[1:], cells[1:]))
    return rows


def _percent(hits: int, total: int) -> str:
    return "—" if total == 0 else f"{100.0 * hits / total:.1f}"


def _figure2(cases, flagged: dict, names: list[str]) -> dict:
    rows: dict[str, dict[str, str]] = {}

    def row(label: str, selected) -> None:
        selected = list(selected)
        rows[label] = {"No. Tests": str(len(selected))}
        for index, name in enumerate(names):
            hits = sum(1 for case in selected if flagged[case.name][index])
            rows[label][name] = _percent(hits, len(selected))

    for category in dict.fromkeys(case.category for case in cases):
        row(category, (c for c in cases if c.category == category and c.is_bad))
    row("all classes", (c for c in cases if c.is_bad))
    row("false positives (good tests)", (c for c in cases if not c.is_bad))
    return rows


def _figure3(cases, flagged: dict, names: list[str]) -> dict:
    rows: dict[str, dict[str, str]] = {}
    for index, name in enumerate(names):
        rows[name] = {}
        for stage, column in (("static", "Static (% Passed)"),
                              ("dynamic", "Dynamic (% Passed)")):
            by_behavior: dict[str, list[bool]] = {}
            for case in cases:
                if case.is_bad and case.stage == stage:
                    by_behavior.setdefault(case.behavior or case.name, []).append(
                        flagged[case.name][index])
            rates = [sum(bits) / len(bits) for bits in by_behavior.values()]
            rows[name][column] = "—" if not rates else \
                f"{100.0 * sum(rates) / len(rates):.1f}"
    return rows
