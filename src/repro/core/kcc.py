"""The kcc-style front end: compile (parse + static checks) and run a program.

This is the reproduction of the wrapper described in Section 3.2 of the paper:
a tool that behaves like a C compiler/interpreter, runs defined programs to
completion, and prints a numbered error report the moment an undefined
behavior is reached.

The work is staged the way the paper's own workflow is (compile once, then
run or search many times over one translation unit): :meth:`KccTool.compile_unit`
produces a reusable :class:`CompiledUnit`, and :meth:`KccTool.run_unit`
executes one.  The higher-level session API (:mod:`repro.api`) builds
content-addressed caching and batch checking on top of these stages;
:func:`check_program` / :func:`run_program` remain as one-shot conveniences.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.parser import parse
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.interpreter import ExecutionResult, Interpreter
from repro.errors import (
    CParseError,
    Diagnostic,
    InconclusiveAnalysis,
    Outcome,
    OutcomeKind,
    ResourceLimitError,
    StaticViolation,
    UndefinedBehaviorError,
    UnsupportedFeatureError,
)
from repro.events import ProbeSet, RunEnd, UBEvent, UBRecorder, observed_execution
from repro.kframework.search import (
    STOP_EXHAUSTED,
    STOP_FIRST_UNDEFINED,
    STOP_MAX_PATHS,
    PathOutcome,
    SearchBudget,
    SearchOptions,
    SearchResult,
    expand_scripts,
)
from repro.kframework.strategy import ScriptedStrategy
from repro.sema.static_checks import check_translation_unit


def content_hash(source: str) -> str:
    """Content address of a program: the cache key of the compile stage."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _probes_need_events(probes) -> bool:
    """Whether any probe actually subscribes to execution events.

    A probe whose ``subscribes`` is an empty tuple only wants ``finish``
    (the run's end), so the run can keep an uninstrumented engine; a probe
    that continues past UB needs the observed trajectory either way.
    """
    for probe in probes:
        if getattr(probe, "continue_past_ub", False):
            return True
        subscribes = getattr(probe, "subscribes", None)
        if subscribes is None or len(subscribes) > 0:
            return True
    return False


@dataclass
class CompiledUnit:
    """The reusable result of the compile stage (parse + static checks).

    A compiled unit is immutable from the checker's point of view: running it
    does not alter it, so one unit can back any number of runs, evaluation
    order searches, or ablation comparisons without re-parsing.  Units are
    identified by content hash + implementation profile, which is what the
    session-level compile cache (:mod:`repro.api`) keys on.
    """

    source: str
    filename: str
    hash: str
    profile_name: str
    unit: Optional[c_ast.TranslationUnit] = None
    static_violations: list[StaticViolation] = field(default_factory=list)
    parse_error: Optional[str] = None
    profile: Optional[ct.ImplementationProfile] = None
    #: Lazily computed lowered IRs, keyed by (options, fold).  Constant
    #: folding honors the check flags, so one unit may carry one lowered
    #: form per checker configuration that runs it.
    _lowered: dict = field(default_factory=dict, repr=False, compare=False)
    #: Lazily computed register-bytecode programs, keyed by options.
    _bytecode: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """True when parsing succeeded (static violations may still exist)."""
        return self.unit is not None

    def lowered_for(self, options: CheckerOptions, *, fold: bool = True,
                    instrument: bool = False):
        """The lowered IR of this unit for ``options`` (memoized).

        ``instrument=True`` selects the event-emitting variant used by runs
        with probes attached (it implies ``fold=False``); the plain variant
        carries no instrumentation code at all, which is the compile-time
        "null-probe" specialization that keeps unprobed runs at full speed.

        Returns None when there is nothing to lower (parse failure).  An
        exception raised by the lowering pass is a defect and propagates:
        swallowing it would silently run the whole unit on the walker.
        """
        if self.unit is None:
            return None
        if instrument:
            fold = False
        key = (options, fold, instrument)
        if key not in self._lowered:
            from repro.core.lowering import lower_unit
            self._lowered[key] = lower_unit(self.unit, options, fold=fold,
                                            instrument=instrument)
        return self._lowered[key]

    def compiled_for(self, options: CheckerOptions):
        """The register-bytecode program of this unit for ``options``
        (memoized), or None.

        Functions outside the compiler's native subset are absent from the
        returned program (their reasons are in its ``fallbacks``) and run on
        the lowered closures instead.  Returns None outright on parse
        failure, for evaluation orders the bytecode does not pre-resolve,
        or when no function compiles.  Any other exception raised by the
        compiler is a defect and propagates rather than silently turning
        the whole unit over to the closures.
        """
        if self.unit is None:
            return None
        if options not in self._bytecode:
            from repro.core.bytecode import compile_unit_bytecode
            self._bytecode[options] = compile_unit_bytecode(self.unit, options)
        return self._bytecode[options]

    def diagnostics(self) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        if self.parse_error is not None:
            found.append(Diagnostic(severity="error", stage="parse",
                                    message=self.parse_error))
        found.extend(v.to_diagnostic() for v in self.static_violations)
        return found


@dataclass
class CheckReport:
    """Everything kcc learned about one program."""

    outcome: Outcome
    result: Optional[ExecutionResult] = None
    search: Optional[SearchResult] = None
    unit: Optional[c_ast.TranslationUnit] = None
    filename: str = "<input>"

    @property
    def flagged(self) -> bool:
        return self.outcome.flagged

    def diagnostics(self) -> list[Diagnostic]:
        """The report's findings in structured form."""
        return self.outcome.diagnostics()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict of the whole report (AST omitted)."""
        data: dict[str, Any] = {
            "filename": self.filename,
            "outcome": self.outcome.to_dict(),
        }
        if self.search is not None:
            # Includes the seed keys (explored/exhausted/undefined_paths)
            # plus the engine's stop reason, execution counters, and the
            # covered fraction of the discovered interleaving space.
            data["search"] = self.search.to_dict()
        return data

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Render a kcc-style textual report."""
        if self.outcome.kind is OutcomeKind.UNDEFINED and self.outcome.error is not None:
            return self.outcome.error.report()
        if self.outcome.kind is OutcomeKind.STATIC_ERROR:
            lines = ["ERROR! KCC encountered an error during translation.",
                     "=" * 47]
            lines.extend(v.report() for v in self.outcome.static_violations)
            lines.append("=" * 47)
            return "\n".join(lines)
        if self.outcome.kind is OutcomeKind.DEFINED:
            return (f"Program completed with exit code {self.outcome.exit_code}.\n"
                    f"{self.outcome.stdout}")
        return f"Analysis inconclusive: {self.outcome.detail}"


class KccTool:
    """The semantics-based undefinedness checker (the paper's kcc)."""

    name = "kcc"

    def __init__(self, options: CheckerOptions = DEFAULT_OPTIONS, *,
                 search_evaluation_order: bool = False,
                 run_static_checks: bool = True,
                 search_options: Optional[SearchOptions] = None) -> None:
        self.options = options
        self.search_evaluation_order = search_evaluation_order
        self.run_static_checks = run_static_checks
        #: Engine configuration used by search mode; None picks the default
        #: (DFS, checkpointing where available, budget from the checker's
        #: ``max_search_paths``).
        self.search_options = search_options

    # ------------------------------------------------------------------
    # Stage 1: compilation (parsing + static checks)
    # ------------------------------------------------------------------
    def compile_unit(self, source: str, *, filename: str = "<input>") -> CompiledUnit:
        """Parse and statically check ``source`` into a reusable unit.

        Static violations are always collected here (the checks depend only
        on the implementation profile), so one compiled unit can be shared by
        tools that honor them and tools that do not; :meth:`run_unit` decides
        whether they count, according to ``run_static_checks``.
        """
        compiled = CompiledUnit(source=source, filename=filename,
                                hash=content_hash(source),
                                profile_name=self.options.profile.name,
                                profile=self.options.profile)
        try:
            compiled.unit = parse(source, filename=filename, profile=self.options.profile)
        except CParseError as error:
            compiled.parse_error = str(error)
            return compiled
        except UnsupportedFeatureError as error:
            compiled.parse_error = f"unsupported feature: {error}"
            return compiled
        compiled.static_violations = check_translation_unit(
            compiled.unit, self.options.profile)
        return compiled

    def compile(self, source: str, *, filename: str = "<input>") -> tuple[
            Optional[c_ast.TranslationUnit], list[StaticViolation], Optional[str]]:
        """Back-compat tuple view of the compile stage: (unit, violations, parse_error)."""
        compiled = self.compile_unit(source, filename=filename)
        violations = compiled.static_violations if self.run_static_checks else []
        return compiled.unit, violations, compiled.parse_error

    # ------------------------------------------------------------------
    # Stage 2: running a compiled unit
    # ------------------------------------------------------------------
    def run_unit(self, compiled: CompiledUnit, *, argv: Optional[list[str]] = None,
                 stdin: str = "", probes: Optional[Sequence] = None) -> CheckReport:
        """Execute a previously compiled unit, classifying the result.

        This never re-parses: the same :class:`CompiledUnit` can back many
        runs (different stdin/argv, evaluation-order search, ablations).

        ``probes`` subscribes :class:`repro.events.Probe` instances to the
        run's execution events.  Passive probes leave the verdict — and the
        whole report — identical to an unprobed run.  If any probe sets
        ``continue_past_ub``, the run switches to *observed* mode: gated
        undefinedness checks record events and execution continues with the
        check-disabled semantics, so one execution can feed several
        detection profiles (the outcome still reports the first check this
        checker's own options would have stopped at, though ``stdout`` may
        then include output from past that point).
        """
        if probes and self.search_evaluation_order:
            raise ValueError("probes cannot observe an evaluation-order search; "
                             "attach them to a single-run checker instead")
        self._require_matching_profile(compiled)
        if compiled.parse_error is not None:
            outcome = Outcome(kind=OutcomeKind.INCONCLUSIVE, detail=compiled.parse_error,
                              parse_failed=True)
            if probes:
                # The dynamic stage never runs: no events, but the probes
                # still learn how the analysis ended.
                ProbeSet(probes).finish(RunEnd("inconclusive",
                                               detail=compiled.parse_error))
            return CheckReport(outcome=outcome, filename=compiled.filename)
        assert compiled.unit is not None
        if self.run_static_checks and compiled.static_violations:
            outcome = Outcome(kind=OutcomeKind.STATIC_ERROR,
                              static_violations=list(compiled.static_violations))
            if probes:
                first = compiled.static_violations[0]
                ProbeSet(probes).finish(RunEnd(
                    "undefined",
                    error=UndefinedBehaviorError(first.kind, first.message,
                                                 line=first.line)))
            return CheckReport(outcome=outcome, unit=compiled.unit,
                               filename=compiled.filename)
        if self.search_evaluation_order:
            report = self._check_with_search(compiled, argv=argv, stdin=stdin)
        else:
            engine = self.options.effective_engine()
            # Pay-per-subscription instrumentation: probes that subscribe to
            # no event kinds (and do not continue past UB) cost nothing —
            # the run keeps the uninstrumented stream of whichever engine is
            # selected.  Any subscribed kind needs the event-emitting
            # closure IR, whose stream is walker-identical.
            instrument = bool(probes) and _probes_need_events(probes)
            lowered = (compiled.lowered_for(self.options, instrument=instrument)
                       if engine != "walker" else None)
            native = (compiled.compiled_for(self.options)
                      if engine == "compiled" and not instrument else None)
            outcome, result = self._run_once(compiled.unit, strategy=None,
                                             argv=argv, stdin=stdin, lowered=lowered,
                                             native=native, probes=probes)
            report = CheckReport(outcome=outcome, result=result, unit=compiled.unit)
        report.filename = compiled.filename
        return report

    def _require_matching_profile(self, compiled: CompiledUnit) -> None:
        # A unit parsed under one profile has that profile's type sizes
        # baked into its layout; silently running it under another would
        # give profile-dependent verdicts that belong to neither.
        if compiled.profile is not None and compiled.profile != self.options.profile:
            raise ValueError(
                f"CompiledUnit was compiled under profile "
                f"{compiled.profile_name!r} but this checker runs "
                f"{self.options.profile.name!r}; recompile the source with "
                f"the matching options")

    # ------------------------------------------------------------------
    # Checking a whole program (compile + run in one step)
    # ------------------------------------------------------------------
    def check(self, source: str, *, filename: str = "<input>",
              argv: Optional[list[str]] = None, stdin: str = "") -> CheckReport:
        """Compile and run ``source``, classifying the result."""
        return self.run_unit(self.compile_unit(source, filename=filename),
                             argv=argv, stdin=stdin)

    def _run_once(self, unit: c_ast.TranslationUnit, *, strategy, argv, stdin,
                  lowered=None, native=None, probes=None,
                  ) -> tuple[Outcome, Optional[ExecutionResult]]:
        interpreter = Interpreter(unit, self.options, strategy=strategy, stdin=stdin,
                                  lowered=lowered, compiled=native)
        probe_set = ProbeSet(probes) if probes else None
        recorder = None
        if probe_set is not None:
            interpreter.attach_probes(probe_set)
            if probe_set.wants_ub_continuation:
                recorder = UBRecorder(interpreter, probe_set)
        return self._classify_execution(interpreter, argv, probe_set, recorder)

    def _classify_execution(self, interpreter: Interpreter, argv,
                            probe_set: Optional[ProbeSet] = None,
                            recorder: Optional[UBRecorder] = None,
                            ) -> tuple[Outcome, Optional[ExecutionResult]]:
        """Run an already-configured interpreter and classify how it ended.

        Shared by single runs (through :meth:`_run_once`) and the search
        engine's host, which builds its own interpreters so the engine can
        checkpoint them at decision points.
        """
        try:
            with observed_execution(recorder):
                result = interpreter.run(argv)
        except UndefinedBehaviorError as error:
            # Terminal: an ungated check (or, without a recorder, any check)
            # stopped the run.  Deliver it to the probes as a final event —
            # every detection profile reports ungated checks.
            if probe_set is not None:
                probe_set.emit(UBEvent(error.kind, error.message, error.line,
                                       error.function, family=None))
                probe_set.finish(RunEnd("undefined", error=error))
            outcome = Outcome(kind=OutcomeKind.UNDEFINED, error=error,
                              stdout=interpreter.stdout)
            return outcome, None
        except (ResourceLimitError, UnsupportedFeatureError, ct.LayoutError,
                RecursionError) as error:
            # With checks disabled (ablation mode) execution can wander into
            # states the positive semantics cannot give meaning to; report
            # those as inconclusive rather than crashing the harness.
            if probe_set is not None:
                probe_set.finish(RunEnd("inconclusive", detail=str(error)))
            if recorder is not None and recorder.first_error is not None:
                # A strict run of these options would have stopped at the
                # first recorded check, before the resource/feature limit.
                outcome = Outcome(kind=OutcomeKind.UNDEFINED,
                                  error=recorder.first_error,
                                  stdout=interpreter.stdout)
                return outcome, None
            outcome = Outcome(kind=OutcomeKind.INCONCLUSIVE, detail=str(error),
                              stdout=interpreter.stdout)
            return outcome, None
        if probe_set is not None:
            probe_set.finish(RunEnd("defined", exit_code=result.exit_code))
        if recorder is not None and recorder.first_error is not None:
            outcome = Outcome(kind=OutcomeKind.UNDEFINED, error=recorder.first_error,
                              stdout=interpreter.stdout)
            return outcome, None
        outcome = Outcome(kind=OutcomeKind.DEFINED, exit_code=result.exit_code,
                          stdout=result.stdout)
        return outcome, result

    # ------------------------------------------------------------------
    # Evaluation-order search (§2.5.2): the engine-driven pipeline stage
    # ------------------------------------------------------------------
    def default_search_options(self) -> SearchOptions:
        if self.search_options is not None:
            return self.search_options
        return SearchOptions(
            budget=SearchBudget(max_paths=self.options.max_search_paths))

    def search_unit(self, compiled: CompiledUnit, *,
                    argv: Optional[list[str]] = None, stdin: str = "",
                    search: Optional[SearchOptions] = None) -> CheckReport:
        """Explore evaluation orders of a compiled unit (§2.5.2).

        The exploration runs on :class:`repro.kframework.engine.SearchEngine`:
        sibling orders resume from forked checkpoints where the platform
        allows it, converging interleavings are deduplicated by machine-state
        hash, and orders whose operand footprints commute are skipped.  The
        verdict is undefined iff any explored order is undefined; the
        report's ``search`` field says why exploration stopped and how much
        of the interleaving space it covered.
        """
        search = search if search is not None else self.default_search_options()
        from repro.kframework.engine import resolve_checkpoint

        # Fail fast on configuration conflicts (fork + non-DFS frontier,
        # fork on a platform without it): with jobs > 1 the engine would
        # otherwise raise this from inside a pool worker.
        resolve_checkpoint(search)
        self._require_matching_profile(compiled)
        if compiled.parse_error is not None:
            outcome = Outcome(kind=OutcomeKind.INCONCLUSIVE,
                              detail=compiled.parse_error, parse_failed=True)
            return CheckReport(outcome=outcome, filename=compiled.filename)
        assert compiled.unit is not None
        if self.run_static_checks and compiled.static_violations:
            outcome = Outcome(kind=OutcomeKind.STATIC_ERROR,
                              static_violations=list(compiled.static_violations))
            return CheckReport(outcome=outcome, unit=compiled.unit,
                               filename=compiled.filename)
        host = _SearchHost(self, compiled, argv=argv, stdin=stdin,
                           instrument=search.prune_commuting)
        if search.jobs and search.jobs > 1:
            result = self._parallel_search(compiled, host, search)
        else:
            from repro.kframework.engine import SearchEngine

            result = SearchEngine(host, search).run()
        report = self._report_from_search(compiled.unit, result, host)
        report.filename = compiled.filename
        return report

    def _check_with_search(self, compiled: CompiledUnit, *, argv,
                           stdin) -> CheckReport:
        """Explore evaluation orders; undefined if any order is undefined (§2.5.2)."""
        return self.search_unit(compiled, argv=argv, stdin=stdin)

    def _report_from_search(self, unit: c_ast.TranslationUnit,
                            search: SearchResult, host: "_SearchHost") -> CheckReport:
        first_bad = search.first_undefined
        if first_bad is not None:
            outcome = first_bad.payload  # type: ignore[assignment]
            assert isinstance(outcome, Outcome)
            return CheckReport(outcome=outcome, search=search, unit=unit)
        fallback: Optional[Outcome] = None
        for path in reversed(search.paths):
            outcome = path.payload
            if isinstance(outcome, Outcome) and not outcome.flagged:
                result = host.result_for(outcome)
                if result is not None:
                    return CheckReport(outcome=outcome, search=search,
                                       unit=unit, result=result)
                if fallback is None:
                    # Fork-mode sibling paths ran in child processes, so
                    # their ExecutionResults never reach this host; prefer
                    # a defined path we executed here (the root order
                    # qualifies) so the report keeps stdout/step counts.
                    fallback = outcome
        if fallback is not None:
            return CheckReport(outcome=fallback, search=search, unit=unit)
        return CheckReport(outcome=Outcome(kind=OutcomeKind.INCONCLUSIVE,
                                           detail="no path produced a result"),
                           search=search, unit=unit)

    def _parallel_search(self, compiled: CompiledUnit, host: "_SearchHost",
                         search: SearchOptions) -> SearchResult:
        """Shard the root frontier of a search across a process pool.

        The root order runs in this process to discover the decision
        arities; every sibling script diverging from it becomes a shard
        seed, and the shards partition the remaining interleaving tree
        (scripts only ever extend their prefix).  Workers run the same
        serial engine; verdict identity against the serial path is pinned
        by ``tests/kframework/test_search_engine.py``.
        """
        import dataclasses as _dc

        from repro.service.pool import run_staged

        strategy = ScriptedStrategy()
        strategy.reset()
        root_outcome = host.run_scripted(strategy)
        # The root run takes the default (first) alternative everywhere;
        # record its script explicitly so shard paths and serial paths
        # carry comparable decision vectors.
        root_outcome.script = tuple([0] * len(strategy.observed_arity))
        serial = _dc.replace(search, jobs=1)
        result = SearchResult()
        result.paths.append(root_outcome)
        result.full_executions = 1
        if root_outcome.undefined and search.stop_at_first:
            pending = expand_scripts((), strategy.observed_arity)
            if pending:
                result.stop_reason = STOP_FIRST_UNDEFINED
                result.skipped_alternatives = len(pending)
            return result
        scripts = expand_scripts((), strategy.observed_arity)
        if not scripts:
            return result
        from repro.kframework.engine import shard_scripts

        jobs = max(1, int(search.jobs))
        shards = shard_scripts(scripts, jobs)
        header = (compiled.source, compiled.filename, self.options,
                  host.argv, host.stdin, serial)
        shard_results = run_staged(_search_shard, header, shards,
                                   jobs=len(shards), chunksize=1)
        for shard_result in shard_results:
            result.absorb(shard_result)
            # Shards dedup in separate processes, so a state their
            # subtrees converge to is counted once per shard: the sum is
            # an upper bound on distinct states, not an exact count.
            result.states_seen += shard_result.states_seen
            if result.stop_reason == STOP_EXHAUSTED and \
                    not shard_result.exhausted:
                result.stop_reason = shard_result.stop_reason
        limit = search.budget.max_paths
        if limit is not None and len(result.paths) > max(1, limit):
            # Shards explore their subtrees under the full budget (a shard
            # cannot know how much of the cap its siblings will use); the
            # merged result still honors the user's cap, honestly.
            keep = max(1, limit)
            dropped = len(result.paths) - keep
            if any(path.undefined for path in result.paths[keep:]):
                # The cap bounds how many path outcomes are retained; it
                # must never swallow a discovered undefined order (§2.5.2:
                # the verdict is undefined if *any* order is), so undefined
                # paths outrank defined ones for retention.
                result.paths.sort(key=lambda path: not path.undefined)
            del result.paths[keep:]
            result.skipped_alternatives += dropped
            result.stop_reason = STOP_MAX_PATHS
        return result


class _SearchHost:
    """Execution host the search engine drives: one interpreter per order.

    ``instrument`` selects the event-emitting lowered variant so the
    engine's commutativity filter can observe per-operand read/write
    footprints; without pruning the plain fold-free lowering (identical
    decision points, no event plumbing) is used instead.
    """

    def __init__(self, tool: KccTool, compiled: CompiledUnit, *, argv, stdin,
                 instrument: bool) -> None:
        self.tool = tool
        self.unit = compiled.unit
        self.argv = argv
        self.stdin = stdin
        #: The (Outcome, ExecutionResult) of the most recent defined run
        #: executed *in this process*.  Fork-mode sibling paths run in
        #: child processes, and a report must never pair one
        #: interleaving's outcome with another's execution result — the
        #: outcome anchors the identity check.  The report uses at most
        #: one defined result, so only the latest is retained (a search
        #: with many defined orders would otherwise hold one stdout
        #: buffer per explored path).
        self._defined_result: Optional[tuple[Outcome, ExecutionResult]] = None
        if tool.options.enable_lowering:
            self.lowered = compiled.lowered_for(tool.options, fold=False,
                                                instrument=instrument)
        else:
            self.lowered = None

    def new_interpreter(self, strategy) -> Interpreter:
        return Interpreter(self.unit, self.tool.options, strategy=strategy,
                           stdin=self.stdin, lowered=self.lowered)

    def run(self, interpreter: Interpreter) -> PathOutcome:
        outcome, result = self.tool._classify_execution(interpreter, self.argv)
        if not outcome.flagged and result is not None:
            self._defined_result = (outcome, result)
        return PathOutcome(script=(), undefined=outcome.flagged,
                           description=outcome.describe(), payload=outcome)

    def result_for(self, outcome: Outcome) -> Optional[ExecutionResult]:
        """The ExecutionResult of ``outcome``'s own run, if it ran here."""
        entry = self._defined_result
        if entry is not None and entry[0] is outcome:
            return entry[1]
        return None

    def run_scripted(self, strategy: ScriptedStrategy) -> PathOutcome:
        """Run one scripted order outside the engine (the parallel root run)."""
        outcome = self.run(self.new_interpreter(strategy))
        outcome.script = tuple(strategy.decisions)
        return outcome


def run_search_shard(header: tuple, scripts) -> SearchResult:
    """Pool worker: explore one shard of the interleaving tree.

    Must stay module-level (picklable).  ``header`` carries the program and
    configuration — staged submission ships it once per chunk, so the
    source text no longer travels once per shard.  Warm workers compile
    through the process-wide shared cache, so every shard after the first
    (and every later search of the same program) reuses the parse.

    Public because campaign search units (``repro.campaign.workunit``) run
    through exactly this worker: a unit's script list is a shard.
    """
    source, filename, options, argv, stdin, search = header
    from repro.api.session import compile_shared, tool_for
    from repro.kframework.engine import SearchEngine

    tool = tool_for(options)
    compiled = compile_shared(source, filename=filename, options=options)
    assert compiled.unit is not None, "shard worker got an uncompilable program"
    host = _SearchHost(tool, compiled, argv=argv, stdin=stdin,
                       instrument=search.prune_commuting)
    engine = SearchEngine(host, search, initial_scripts=[tuple(s) for s in scripts])
    return engine.run()


#: Backward-compatible name; the staged-submission callers pickle by
#: reference, so both names resolve to the same function object.
_search_shard = run_search_shard


def search_root_expansion(source: str, *, filename: str = "<input>",
                          options: CheckerOptions = DEFAULT_OPTIONS,
                          argv: Optional[list[str]] = None,
                          stdin: str = "") -> tuple[tuple[int, ...],
                                                    list[tuple[int, ...]]]:
    """Run a program's root evaluation order; return (root script, siblings).

    This is the discovery step of :meth:`KccTool._parallel_search`, exposed
    so the campaign partitioner can turn one search into relocatable root
    shards: the root script (the all-defaults decision vector) plus every
    sibling script diverging from it.  Deterministic for a given program
    and options — the same partition on every machine.
    """
    from repro.api.session import compile_shared, tool_for

    tool = tool_for(options)
    compiled = compile_shared(source, filename=filename, options=options)
    if compiled.unit is None:
        raise ValueError(
            f"cannot search {filename}: program does not compile"
        )
    host = _SearchHost(tool, compiled, argv=argv, stdin=stdin or "",
                       instrument=False)
    strategy = ScriptedStrategy()
    strategy.reset()
    host.run_scripted(strategy)
    root_script = tuple([0] * len(strategy.observed_arity))
    scripts = expand_scripts((), strategy.observed_arity)
    return root_script, scripts


# ---------------------------------------------------------------------------
# Convenience functions and CLI
# ---------------------------------------------------------------------------

def check_program(source: str, options: CheckerOptions = DEFAULT_OPTIONS, *,
                  search_evaluation_order: bool = False,
                  argv: Optional[list[str]] = None, stdin: str = "") -> CheckReport:
    """Check a C program given as source text; the main public API entry point."""
    tool = KccTool(options, search_evaluation_order=search_evaluation_order)
    return tool.check(source, argv=argv, stdin=stdin)


def run_program(source: str, options: CheckerOptions = DEFAULT_OPTIONS, *,
                argv: Optional[list[str]] = None, stdin: str = "") -> ExecutionResult:
    """Run a (presumed defined) program and return its execution result.

    Raises :class:`UndefinedBehaviorError` if the program turns out to be
    undefined — the "kcc as a compiler" usage of Section 3.2.
    """
    report = KccTool(options).check(source, argv=argv, stdin=stdin)
    if report.outcome.kind is OutcomeKind.UNDEFINED and report.outcome.error is not None:
        raise report.outcome.error
    if report.outcome.kind is OutcomeKind.STATIC_ERROR:
        raise UndefinedBehaviorError(
            report.outcome.static_violations[0].kind,
            report.outcome.static_violations[0].message,
            line=report.outcome.static_violations[0].line)
    if report.result is None:
        # The analysis could not classify the program (parse failure,
        # resource limit, unsupported construct); fabricating a successful
        # exit here would report silent success for a program that never ran.
        raise InconclusiveAnalysis(report.outcome.detail or report.outcome.describe(),
                                   outcome=report.outcome)
    return report.result


def main(argv: Optional[list[str]] = None) -> int:
    """Command line interface; see :mod:`repro.api.cli` for the subcommands."""
    from repro.api.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
