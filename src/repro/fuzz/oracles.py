"""The differential oracle stack: every way a generated program can disagree.

Each generated case is pushed through a battery of *oracles*; any oracle
failure is a mismatch worth a corpus entry, because every one of them is a
hard invariant of the system:

* ``engine-differential`` — the lowered fast path, the compiled bytecode
  VM, and the legacy walker must produce the same verdict, the same
  structured diagnostics, the same stdout, and the same exit code (PR 2's
  two-engine guarantee, extended to three engines by PR 7, under generated
  load instead of the fixed suites).  The compiled leg runs *unprobed* —
  probed runs route to the instrumented lowered IR, so only an unprobed
  run actually exercises the register-bytecode VM;
* ``event-stream`` — with trace probes attached, the two engines must emit
  the identical execution-event sequence (PR 3's guarantee);
* ``ground-truth`` — a clean case must be DEFINED with exactly the stdout
  and exit code the generator's simulation predicted; an injected case must
  be flagged with one of its template's expected :class:`UBKind`\\ s;
* ``strict-observed`` — an observed run (a ``continue_past_ub`` probe
  attached) must reach the same verdict as the strict run, and the probe's
  own first-matched event must agree with it;
* ``ablation`` — disabling the planted defect's check family must
  *un-detect* it (the planted kinds disappear from the verdict), pinning
  the check-to-family wiring;
* ``search-agreement`` (optional, off by default in campaigns — it is the
  expensive oracle) — a bounded evaluation-order search must agree with
  the single-run verdict on flaggedness;
* ``symbolic-differential`` (optional; only meaningful for cases generated
  with ``GeneratorConfig.symbolic_hole``) — the abstract interval engine
  proves the case over the hole's declared range, and any PROVED verdict
  is re-checked against concrete runs at sampled hole values including
  both endpoints.  A clean case must never be PROVED_UNDEFINED, and a
  concrete counterexample to either proof is a soundness failure.

``diagnostic_signature`` collapses a failure to a small stable key used by
the campaign driver to dedup corpus entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analyzers.base import UBVerdictProbe
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.kcc import CheckReport, KccTool
from repro.errors import OutcomeKind
from repro.events import TraceRecorderProbe
from repro.fuzz.generator import FuzzCase
from repro.kframework.search import SearchBudget, SearchOptions


@dataclass(frozen=True)
class OracleConfig:
    """Which oracles run, and how hard the optional ones try."""

    check_events: bool = True
    check_observed: bool = True
    check_ablation: bool = True
    #: Bounded evaluation-order-search agreement; costs a search per case.
    check_search: bool = False
    search_max_paths: int = 16
    #: Symbolic range proof over the case's input hole, with PROVED
    #: verdicts re-checked concretely; no-op for cases without a hole.
    check_symbolic: bool = False
    symbolic_samples: int = 5

    def to_dict(self) -> dict[str, Any]:
        return {
            "check_events": self.check_events,
            "check_observed": self.check_observed,
            "check_ablation": self.check_ablation,
            "check_search": self.check_search,
            "search_max_paths": self.search_max_paths,
            "check_symbolic": self.check_symbolic,
            "symbolic_samples": self.symbolic_samples,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OracleConfig":
        return cls(**{key: data[key] for key in cls().to_dict() if key in data})


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's mismatch on one program."""

    oracle: str
    detail: str
    signature: str

    def to_dict(self) -> dict[str, str]:
        return {
            "oracle": self.oracle,
            "detail": self.detail,
            "signature": self.signature,
        }


@dataclass
class OracleReport:
    """Everything the oracle stack learned about one case."""

    case: FuzzCase
    failures: list[OracleFailure] = field(default_factory=list)
    verdict: str = ""
    detected_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, oracle: str, detail: str, *, signature: str = "") -> None:
        self.failures.append(
            OracleFailure(
                oracle=oracle,
                detail=detail,
                signature=signature or f"{oracle}:{detail[:60]}",
            )
        )


def _verdict_facts(report: CheckReport) -> dict[str, Any]:
    """The comparable essence of a report (what the oracles hold equal)."""
    outcome = report.outcome
    return {
        "kind": outcome.kind.value,
        "diagnostics": [d.to_dict() for d in outcome.diagnostics()],
        "exit_code": outcome.exit_code,
        "stdout": outcome.stdout,
    }


def diagnostic_signature(report: CheckReport) -> str:
    """A short, stable key for "the same finding": kind + first diagnostic."""
    outcome = report.outcome
    diagnostics = outcome.diagnostics()
    first = diagnostics[0] if diagnostics else None
    code = first.kind or first.code or first.stage if first else "none"
    return f"{outcome.kind.value}:{code}"


def run_oracles(
    case: FuzzCase,
    *,
    options: CheckerOptions = DEFAULT_OPTIONS,
    oracle_config: OracleConfig = OracleConfig(),
) -> OracleReport:
    """Run the full oracle stack over one generated case."""
    report = OracleReport(case=case)
    lowered_tool = KccTool(options.without(engine="lowered"))
    walker_tool = KccTool(options.without(enable_lowering=False))
    vm_tool = KccTool(options.without(engine="compiled"))

    # One parse backs every leg: all tools share ``options.profile``, and a
    # compiled unit is never altered by running it.  (No cross-case cache:
    # a campaign sees each case once.)
    compiled = lowered_tool.compile_unit(case.source, filename=case.name)
    if compiled.parse_error is not None:
        report.add(
            "generator-wellformed",
            f"generated program failed to parse: {compiled.parse_error}",
            signature="parse-error",
        )
        return report
    if compiled.static_violations:
        first = compiled.static_violations[0]
        report.add(
            "generator-wellformed",
            f"generated program has a static violation: {first.message}",
            signature=f"static:{first.kind.name}",
        )
        return report

    # One strict run per engine; trace probes are passive, so attaching them
    # leaves the verdicts identical to unprobed runs while also feeding the
    # event-stream oracle — two runs cover two oracles.
    lowered_probe = TraceRecorderProbe(filename=case.name)
    walker_probe = TraceRecorderProbe(filename=case.name)
    lowered_report = lowered_tool.run_unit(compiled, probes=[lowered_probe])
    walker_report = walker_tool.run_unit(compiled, probes=[walker_probe])
    report.verdict = lowered_report.outcome.kind.value
    kinds = lowered_report.outcome.ub_kinds
    report.detected_kind = kinds[0].name if kinds else None

    lowered_facts = _verdict_facts(lowered_report)
    walker_facts = _verdict_facts(walker_report)
    if lowered_facts != walker_facts:
        drift = [
            key for key in lowered_facts if lowered_facts[key] != walker_facts[key]
        ]
        signature = f"engine:{','.join(drift)}:{diagnostic_signature(lowered_report)}"
        report.add(
            "engine-differential",
            f"walker and lowered engines disagree on {', '.join(drift)}: "
            f"lowered={lowered_report.outcome.describe()!r} "
            f"walker={walker_report.outcome.describe()!r}",
            signature=signature,
        )

    # The third leg: an unprobed run on the compiled VM (per-function
    # bytecode with closure fallback), held to the same walker facts.
    vm_report = vm_tool.run_unit(compiled)
    vm_facts = _verdict_facts(vm_report)
    if vm_facts != walker_facts:
        drift = [key for key in vm_facts if vm_facts[key] != walker_facts[key]]
        signature = (
            f"engine-compiled:{','.join(drift)}:{diagnostic_signature(vm_report)}"
        )
        report.add(
            "engine-differential",
            f"compiled VM disagrees with the walker on {', '.join(drift)}: "
            f"compiled={vm_report.outcome.describe()!r} "
            f"walker={walker_report.outcome.describe()!r}",
            signature=signature,
        )

    if oracle_config.check_events:
        lowered_events = lowered_probe.trace.events
        walker_events = walker_probe.trace.events
        if lowered_events != walker_events:
            index = _first_divergence(lowered_events, walker_events)
            report.add(
                "event-stream",
                f"engines diverge at event {index}: "
                f"lowered={_event_at(lowered_events, index)} "
                f"walker={_event_at(walker_events, index)}",
                signature=f"events:{_event_kind_at(lowered_events, index)}",
            )

    _ground_truth_oracle(report, lowered_report)

    if oracle_config.check_observed:
        _observed_oracle(report, lowered_tool, compiled, lowered_report, options)

    if oracle_config.check_ablation and case.is_bad and case.family is not None:
        _ablation_oracle(report, options, compiled)

    if oracle_config.check_search:
        _search_oracle(report, lowered_tool, compiled, lowered_report, oracle_config)

    if oracle_config.check_symbolic and case.hole_name is not None:
        _symbolic_oracle(report, options, oracle_config)
    return report


def _first_divergence(left: list, right: list) -> int:
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index
    return min(len(left), len(right))


def _event_at(events: list, index: int) -> str:
    return repr(events[index]) if index < len(events) else "<end>"


def _event_kind_at(events: list, index: int) -> str:
    if index < len(events):
        return str(events[index].get("event", "?"))
    return "length"


def _ground_truth_oracle(report: OracleReport, strict: CheckReport) -> None:
    case = report.case
    outcome = strict.outcome
    if not case.is_bad:
        if outcome.kind is not OutcomeKind.DEFINED:
            report.add(
                "ground-truth",
                "well-defined-by-construction program was not DEFINED: "
                f"{outcome.describe()}",
                signature=f"clean-flagged:{diagnostic_signature(strict)}",
            )
            return
        predicted_exit = case.predicted_exit
        if predicted_exit is not None and outcome.exit_code != predicted_exit:
            report.add(
                "ground-truth",
                "exit code drifted from the simulation: predicted "
                f"{case.predicted_exit}, got {outcome.exit_code}",
                signature="clean-exit-drift",
            )
        predicted_stdout = case.predicted_stdout
        if predicted_stdout is not None and outcome.stdout != predicted_stdout:
            report.add(
                "ground-truth",
                "stdout drifted from the simulation: predicted "
                f"{case.predicted_stdout!r}, got {outcome.stdout!r}",
                signature="clean-stdout-drift",
            )
        return
    if not outcome.flagged:
        report.add(
            "ground-truth",
            f"planted {case.injected} defect was not flagged: "
            f"{outcome.describe()}",
            signature=f"missed:{case.injected}",
        )
        return
    expected_kinds = case.expected_kinds
    hit = any(kind in expected_kinds for kind in outcome.ub_kinds)
    if expected_kinds and not hit:
        got = ",".join(kind.name for kind in outcome.ub_kinds) or "nothing"
        expected = ",".join(kind.name for kind in expected_kinds)
        report.add(
            "ground-truth",
            f"planted {case.injected} defect detected as {got}, "
            f"expected one of {expected}",
            signature=f"wrong-kind:{case.injected}:{got}",
        )


def _observed_oracle(
    report: OracleReport,
    tool: KccTool,
    compiled,
    strict: CheckReport,
    options: CheckerOptions,
) -> None:
    probe = UBVerdictProbe("fuzz-oracle", options)
    observed = tool.run_unit(compiled, probes=[probe])
    strict_kind = strict.outcome.kind
    observed_kind = observed.outcome.kind
    if strict_kind is not observed_kind:
        report.add(
            "strict-observed",
            f"observed run changed the verdict: strict={strict_kind.value} "
            f"observed={observed_kind.value}",
            signature=f"observed-verdict:{strict_kind.value}->{observed_kind.value}",
        )
        return
    strict_kinds = strict.outcome.ub_kinds
    observed_kinds = observed.outcome.ub_kinds
    if strict_kinds and observed_kinds and strict_kinds[0] is not observed_kinds[0]:
        report.add(
            "strict-observed",
            f"observed run reports {observed_kinds[0].name}, strict run "
            f"{strict_kinds[0].name}",
            signature=f"observed-kind:{strict_kinds[0].name}",
        )
        return
    if strict_kind is OutcomeKind.UNDEFINED:
        matched = probe.matched[0].name if probe.matched else None
        if matched != strict_kinds[0].name:
            report.add(
                "strict-observed",
                f"the full-profile probe matched {matched}, the strict "
                f"verdict is {strict_kinds[0].name}",
                signature=f"probe-kind:{strict_kinds[0].name}",
            )
    elif strict_kind is OutcomeKind.DEFINED and probe.matched is not None:
        report.add(
            "strict-observed",
            f"probe matched {probe.matched[0].name} on a program the "
            "strict run completed",
            signature=f"probe-extra:{probe.matched[0].name}",
        )


def _ablation_oracle(report: OracleReport, options: CheckerOptions, compiled) -> None:
    case = report.case
    from repro.fuzz.generator import template_for

    template = template_for(case.injected)
    if not template.gated:
        return
    ablated_options = options.without(**{f"check_{case.family}": False})
    ablated = KccTool(ablated_options).run_unit(compiled)
    if any(kind in case.expected_kinds for kind in ablated.outcome.ub_kinds):
        report.add(
            "ablation",
            f"disabling check_{case.family} still reports the planted "
            f"defect: {ablated.outcome.describe()}",
            signature=f"ablation:{case.injected}",
        )


def _search_oracle(
    report: OracleReport,
    tool: KccTool,
    compiled,
    strict: CheckReport,
    oracle_config: OracleConfig,
) -> None:
    search_options = SearchOptions(
        budget=SearchBudget(max_paths=oracle_config.search_max_paths),
        checkpoint="replay",
    )
    searched = tool.search_unit(compiled, search=search_options)
    # A search may *discover* undefinedness a single order misses, but our
    # planted defects are order-independent: flaggedness must agree.
    if searched.flagged != strict.flagged:
        report.add(
            "search-agreement",
            f"bounded search verdict {searched.outcome.describe()!r} "
            f"disagrees with the single-run verdict "
            f"{strict.outcome.describe()!r}",
            signature=f"search:{diagnostic_signature(strict)}",
        )


def _symbolic_oracle(
    report: OracleReport,
    options: CheckerOptions,
    oracle_config: OracleConfig,
) -> None:
    """Prove the case over its hole range, then spot-check the proof.

    Clean cases are well-defined for *every* hole value by construction,
    so a PROVED_UNDEFINED verdict on one is an abstract-engine soundness
    bug even before sampling.  INCONCLUSIVE is always acceptable — the
    abstract domain is allowed to give up, never to lie.
    """
    from repro.symbolic import check_proved_report, prove_source
    from repro.symbolic.prove import PROVED_UNDEFINED

    case = report.case
    proved = prove_source(
        case.source,
        inputs={case.hole_name: case.hole_range},
        options=options,
        filename=case.name,
    )
    if not case.is_bad and proved.verdict == PROVED_UNDEFINED:
        kind = proved.kind.name if proved.kind else "?"
        report.add(
            "symbolic-differential",
            "abstract engine claims a well-defined-by-construction case "
            f"is undefined ({kind}): {proved.message}",
            signature=f"symbolic-unsound:{kind}",
        )
        return
    for mismatch in check_proved_report(
        case.source,
        proved,
        options=options,
        samples=oracle_config.symbolic_samples,
        filename=case.name,
    ):
        report.add(
            "symbolic-differential",
            f"range proof refuted concretely: {mismatch.describe()}",
            signature=f"symbolic-refuted:{proved.verdict}",
        )


__all__ = [
    "OracleConfig",
    "OracleFailure",
    "OracleReport",
    "diagnostic_signature",
    "run_oracles",
]
