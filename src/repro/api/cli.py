"""The ``kcc-check`` command line interface, redesigned around subcommands.

::

    kcc-check check a.c b.c --jobs 4 --format json   # classify programs
    kcc-check run prog.c -- arg1 arg2                # run a defined program
    kcc-check search prog.c --coverage               # evaluation-order search
    kcc-check search prog.c --strategy bfs --budget paths=256,seconds=5
    kcc-check search prog.c --jobs 4                 # shard the root frontier
    kcc-check search prog.c --merge-symbolic         # interval path absorption
    kcc-check prove prog.c                           # abstract range proof
    kcc-check prove prog.c --inputs x=0:100          # ... over an input range
    kcc-check bench --smoke                          # evaluation tables
    kcc-check bench --tools valgrind,kcc             # a custom tool lineup
    kcc-check tools                                  # registered analyzers
    kcc-check fuzz --seed 0 --count 2000 --jobs 4    # differential fuzzing
    kcc-check fuzz --inject memory --reduce --corpus corpus/
    kcc-check serve --socket /tmp/kcc.sock --jobs 4  # long-lived service
    kcc-check campaign run --journal c.jsonl --count 2000   # journaled campaign
    kcc-check campaign run --resume-from c.jsonl            # survive restarts
    kcc-check campaign merge -o all.jsonl a.jsonl b.jsonl   # combine shards

    python -m repro check prog.c                     # same CLI, module form

Exit codes follow the seed tool: ``0`` all programs defined, ``1`` at least
one flagged (undefined or static error), ``2`` at least one inconclusive
(and none flagged); ``64`` (EX_USAGE) for unreadable inputs or bad tool
names, ``141`` when the consumer closes our pipe.  ``prove`` maps its
verdicts onto the same codes: PROVED_DEFINED → 0, PROVED_UNDEFINED → 1,
INCONCLUSIVE → 2.  ``run`` exits with the
program's own exit code when it is defined.  The seed's single-file
invocation (``kcc-check prog.c``) still works: a first argument that is not
a subcommand is treated as ``check``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.cfront import ctypes as ct
from repro.core.config import ENGINES, CheckerOptions
from repro.core.kcc import CheckReport, KccTool
from repro.errors import OutcomeKind
from repro.api.batch import iter_check_many

SUBCOMMANDS = ("check", "run", "search", "prove", "bench", "tools", "fuzz",
               "serve", "campaign")

EXIT_DEFINED = 0
EXIT_FLAGGED = 1
EXIT_INCONCLUSIVE = 2
#: Bad invocation / unreadable input (BSD EX_USAGE) — distinct from
#: EXIT_INCONCLUSIVE so scripts re-queueing inconclusive analyses do not
#: re-queue typo'd paths.
EXIT_USAGE = 64
#: The consumer closed our stdout pipe; 128+SIGPIPE, as the shell reports it.
EXIT_PIPE_CLOSED = 141


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="lp64", choices=sorted(ct.PROFILES),
                        help="implementation profile (type sizes)")
    parser.add_argument("--no-static", action="store_true",
                        help="skip translation-time checks")
    parser.add_argument("--no-lowering", action="store_true",
                        help="run the dynamic stage on the legacy AST walker "
                             "instead of the lowered fast path (escape hatch; "
                             "verdicts are identical)")
    parser.add_argument("--engine", default="compiled",
                        choices=ENGINES,
                        help="dynamic-stage engine: the flat register-"
                             "bytecode VM (default), the lowered closure "
                             "trees, or the legacy AST walker; verdicts are "
                             "identical across all three")
    parser.add_argument("--format", default="text", choices=("text", "json"),
                        help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcc-check",
        description="Semantics-based undefinedness checker for C "
                    "(reproduction of Ellison & Rosu's kcc).")
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser(
        "check", help="classify programs (defined / undefined / static error)")
    check.add_argument("files", nargs="+", help="C source files to check")
    check.add_argument("--search", action="store_true",
                       help="search over evaluation orders")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="check N programs in parallel worker processes")
    _add_common_options(check)

    run = subparsers.add_parser(
        "run", help="run a (presumed defined) program, like a compiler+execute")
    run.add_argument("file", help="C source file to run")
    run.add_argument("args", nargs="*", help="program arguments")
    run.add_argument("--stdin", default="", help="text to feed the program's stdin")
    _add_common_options(run)

    search = subparsers.add_parser(
        "search", help="check programs, exploring all evaluation orders (§2.5.2)")
    search.add_argument("files", nargs="+", help="C source files to check")
    search.add_argument("--strategy", default="dfs",
                        choices=("dfs", "bfs", "random"),
                        help="frontier discipline for the order search")
    search.add_argument("--budget", default=None, metavar="SPEC",
                        help="search budget, e.g. paths=256,states=10000,"
                             "seconds=5 (default: paths=64)")
    search.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="shard each program's root frontier across N "
                             "worker processes")
    search.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for --strategy random")
    search.add_argument("--coverage", action="store_true",
                        help="report explored/merged/pruned counts, the stop "
                             "reason, and the covered fraction per program")
    search.add_argument("--no-dedup", action="store_true",
                        help="disable state deduplication (explore every "
                             "interleaving separately)")
    search.add_argument("--no-prune", action="store_true",
                        help="disable the commutativity filter")
    search.add_argument("--checkpoint", default="auto",
                        choices=("auto", "fork", "replay"),
                        help="sibling resumption: fork prefix checkpoints "
                             "(POSIX) or scripted replay from main")
    search.add_argument("--merge-symbolic", action="store_true",
                        dest="merge_symbolic",
                        help="fold paths whose live memories differ in only "
                             "a few cells into interval families once they "
                             "show uniform outcomes (replay checkpointing "
                             "only; verdicts are unchanged)")
    _add_common_options(search)

    prove = subparsers.add_parser(
        "prove", help="range-prove programs defined/undefined with the "
                      "abstract interval engine")
    prove.add_argument("files", nargs="+", help="C source files to prove")
    prove.add_argument("--inputs", action="append", default=[],
                       metavar="NAME=LO:HI",
                       help="treat the 'int NAME = ...;' declaration in main "
                            "as a symbolic input over [LO, HI] (repeatable); "
                            "the verdict then quantifies over every value")
    _add_common_options(prove)

    bench = subparsers.add_parser(
        "bench", help="run the evaluation harness and print the paper's tables")
    bench.add_argument("--suite", default="ubsuite", choices=("ubsuite", "juliet"),
                       help="which test suite to evaluate")
    bench.add_argument("--smoke", action="store_true",
                       help="tiny fast subset with kcc only (CI smoke test)")
    bench.add_argument("--tools", default=None, metavar="NAME,NAME",
                       help="comma-separated tool names (default: all four)")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run the harness with N worker processes")

    tools = subparsers.add_parser(
        "tools", help="list the registered analysis tools (@register_tool)")
    tools.add_argument("--format", default="text", choices=("text", "json"),
                       help="report format")

    fuzz = subparsers.add_parser(
        "fuzz", help="run a differential fuzzing campaign over generated "
                     "ground-truth programs")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; campaigns are deterministic in it")
    fuzz.add_argument("--count", type=int, default=200, metavar="N",
                      help="number of programs to generate and oracle-check")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="shard the campaign over N worker processes "
                           "(byte-identical to serial)")
    fuzz.add_argument("--inject", default="mixed", metavar="FAMILY",
                      help="defect injection: 'none' (clean programs only), "
                           "'mixed' (~40%% clean), a check family "
                           "(arithmetic, memory, sequencing, const, "
                           "pointer_provenance, uninitialized, "
                           "effective_types, functions, terminal), or a "
                           "template name")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="stream oracle mismatches to DIR as replayable "
                           "JSON entries (deduped by signature)")
    fuzz.add_argument("--reduce", action="store_true",
                      help="ddmin-reduce each mismatching program before "
                           "reporting/writing it")
    fuzz.add_argument("--search-oracle", action="store_true",
                      help="also run the bounded evaluation-order-search "
                           "agreement oracle (slower)")
    fuzz.add_argument("--smoke", action="store_true",
                      help="small deterministic CI campaign (overrides "
                           "--count to 40)")
    _add_common_options(fuzz)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived checking service (check/fuzz/search "
                      "jobs as newline-delimited JSON over a socket)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="listen on a unix socket at PATH")
    serve.add_argument("--host", default=None, metavar="HOST",
                       help="listen on TCP (default 127.0.0.1 when no --socket)")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="TCP port (default: ephemeral, printed on startup)")
    serve.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="warm-pool worker processes (default: one per CPU)")

    campaign = subparsers.add_parser(
        "campaign", help="journaled, resumable, distributed work-unit "
                         "campaigns with a live results plane")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _campaign_drive_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="execute units over N warm-pool workers "
                              "(1: inline; byte-identical either way)")
        sub.add_argument("--endpoint", action="append", default=[],
                         metavar="EP", dest="endpoints",
                         help="dispatch units to a kcc-check serve endpoint "
                              "(repeatable; unix:PATH or HOST:PORT)")
        sub.add_argument("--units", default=None, metavar="LO:HI",
                         help="run only units with partition index in "
                              "[LO, HI) — disjoint slices on different "
                              "machines merge back together")
        sub.add_argument("--bias", action="store_true",
                         help="coverage-guided scheduling: prefer injection "
                              "families with the fewest distinct finding "
                              "signatures (execution order only; the result "
                              "is identical)")
        sub.add_argument("--no-records", action="store_true",
                         help="journal only summaries and findings, not "
                              "per-case records (for very large campaigns)")
        sub.add_argument("--retries", type=int, default=2, metavar="N",
                         help="retry a failed unit N times with backoff")
        sub.add_argument("--baseline", default=None, metavar="PATH",
                         help="family-rate baseline JSON for regression "
                              "deltas (e.g. benchmarks/results/"
                              "campaign_baseline.json)")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress per-unit progress lines")

    campaign_run = campaign_sub.add_parser(
        "run", help="partition a fresh campaign into journaled work units "
                    "and drive them to completion")
    campaign_run.add_argument("file", nargs="?", default=None,
                              help="C source file (search campaigns only)")
    campaign_run.add_argument("--journal", default=None, metavar="PATH",
                              help="journal file to create (must not exist)")
    campaign_run.add_argument("--resume-from", default=None, metavar="PATH",
                              dest="resume_from",
                              help="journal path that may already exist: "
                                   "resume it if it does, create it if not")
    campaign_run.add_argument("--kind", default="fuzz",
                              choices=("fuzz", "suite", "search"),
                              help="campaign kind")
    campaign_run.add_argument("--seed", type=int, default=0,
                              help="master seed (fuzz campaigns)")
    campaign_run.add_argument("--count", type=int, default=200, metavar="N",
                              help="fuzz: programs; suite: case cap "
                                   "(0 = every case)")
    campaign_run.add_argument("--unit-size", type=int, default=25, metavar="N",
                              dest="unit_size",
                              help="cases (or search scripts) per work unit")
    campaign_run.add_argument("--inject", default="mixed", metavar="MODE",
                              help="fuzz injection: none, mixed, rotate "
                                   "(one family per unit, round-robin), a "
                                   "family, or a template name")
    campaign_run.add_argument("--suite", default="ubsuite",
                              choices=("ubsuite", "juliet"),
                              help="suite campaigns: which suite")
    campaign_run.add_argument("--budget", default=None, metavar="SPEC",
                              help="search campaigns: per-unit budget, e.g. "
                                   "paths=256,seconds=5")
    _campaign_drive_options(campaign_run)
    _add_common_options(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="recover a journal (crash-truncated tails are fine) "
                       "and finish the missing units")
    campaign_resume.add_argument("--journal", required=True, metavar="PATH",
                                 help="journal file to resume")
    _campaign_drive_options(campaign_resume)
    campaign_resume.add_argument("--format", default="text",
                                 choices=("text", "json"), help="report format")

    campaign_status = campaign_sub.add_parser(
        "status", help="read-only view of a journal: progress, per-family "
                       "rates, findings")
    campaign_status.add_argument("--journal", required=True, metavar="PATH",
                                 help="journal file to inspect")
    campaign_status.add_argument("--baseline", default=None, metavar="PATH",
                                 help="family-rate baseline JSON for deltas")
    campaign_status.add_argument("--format", default="text",
                                 choices=("text", "json"), help="report format")

    campaign_merge = campaign_sub.add_parser(
        "merge", help="merge shard journals of one campaign into a single "
                      "canonical journal")
    campaign_merge.add_argument("inputs", nargs="+",
                                help="shard journal files to merge")
    campaign_merge.add_argument("-o", "--out", required=True, metavar="PATH",
                                help="merged journal to write")
    campaign_merge.add_argument("--baseline", default=None, metavar="PATH",
                                help="family-rate baseline JSON for deltas")
    campaign_merge.add_argument("--format", default="text",
                                choices=("text", "json"), help="report format")
    return parser


class CliInputError(Exception):
    """An input file could not be read; reported without a traceback."""


def _read_source(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise CliInputError(f"cannot read {path}: {error.strerror or error}") from None


def _options_for(arguments: argparse.Namespace) -> CheckerOptions:
    return CheckerOptions(profile=ct.PROFILES[arguments.profile],
                          enable_lowering=not getattr(arguments, "no_lowering", False),
                          engine=getattr(arguments, "engine", "compiled"))


def _batch_exit_code(reports: list[CheckReport]) -> int:
    if any(report.flagged for report in reports):
        return EXIT_FLAGGED
    if any(report.outcome.kind is OutcomeKind.INCONCLUSIVE for report in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_DEFINED


def _emit_text(report: CheckReport, *, multiple: bool, out) -> None:
    if multiple:
        print(f"{report.filename}: {report.outcome.describe()}", file=out)
        if report.outcome.kind is not OutcomeKind.INCONCLUSIVE:
            # Inconclusive reports have a single note repeating the header
            # verbatim; error diagnostics add the code/line/C11 section.
            for diagnostic in report.diagnostics():
                print(f"  {diagnostic.render()}", file=out)
    else:
        print(report.render(), file=out)


def _cmd_check(arguments: argparse.Namespace, *, search: bool, out) -> int:
    options = _options_for(arguments)
    pairs = [(path, _read_source(path)) for path in arguments.files]
    reports = []
    json_docs = []
    multiple = len(pairs) > 1
    for report in iter_check_many(pairs, options=options,
                                  search_evaluation_order=search,
                                  run_static_checks=not arguments.no_static,
                                  jobs=arguments.jobs):
        reports.append(report)
        if arguments.format == "json":
            json_docs.append(report.to_dict())
        else:
            _emit_text(report, multiple=multiple, out=out)
    if arguments.format == "json":
        # Always a list, regardless of input count: consumers should not
        # have to branch on how many files the invocation happened to name.
        print(json.dumps(json_docs, indent=2), file=out)
    return _batch_exit_code(reports)


def _cmd_search(arguments: argparse.Namespace, *, out) -> int:
    """The engine-backed search subcommand (strategy/budget/coverage knobs).

    ``--jobs`` here shards each program's root frontier across worker
    processes (the programs themselves are processed in order); use
    ``check --search --jobs N`` to instead parallelize across programs.
    """
    from repro.kframework.search import SearchBudget, SearchOptions

    options = _options_for(arguments)
    try:
        budget = (SearchBudget.parse(arguments.budget)
                  if arguments.budget else SearchBudget())
    except ValueError as error:
        raise CliInputError(str(error)) from None
    search_options = SearchOptions(
        strategy=arguments.strategy, budget=budget, seed=arguments.seed,
        jobs=arguments.jobs, dedup_states=not arguments.no_dedup,
        prune_commuting=not arguments.no_prune,
        checkpoint=arguments.checkpoint,
        merge_symbolic=arguments.merge_symbolic)
    try:
        # Surface configuration conflicts (fork + non-DFS frontier, fork on
        # a platform without it) as usage errors, before reading any file.
        from repro.kframework.engine import resolve_checkpoint

        resolve_checkpoint(search_options)
    except ValueError as error:
        raise CliInputError(str(error)) from None
    tool = KccTool(options, search_evaluation_order=True,
                   run_static_checks=not arguments.no_static,
                   search_options=search_options)
    reports = []
    json_docs = []
    multiple = len(arguments.files) > 1
    for path in arguments.files:
        compiled = tool.compile_unit(_read_source(path), filename=path)
        report = tool.run_unit(compiled)
        reports.append(report)
        if arguments.format == "json":
            json_docs.append(report.to_dict())
            continue
        _emit_text(report, multiple=multiple, out=out)
        if arguments.coverage and report.search is not None:
            summary = report.search
            symbolic = (f"{summary.merged_symbolic} interval-absorbed, "
                        if summary.merged_symbolic else "")
            print(f"  search: {summary.explored} explored, "
                  f"{summary.merged_paths} merged, {symbolic}"
                  f"{summary.pruned_orders} pruned-equivalent, "
                  f"{summary.resumed_executions} resumed from checkpoints, "
                  f"{summary.runs_from_main} runs from main", file=out)
            print(f"  stopped: {summary.stop_reason} "
                  f"(coverage {summary.coverage():.0%})", file=out)
    if arguments.format == "json":
        print(json.dumps(json_docs, indent=2), file=out)
    return _batch_exit_code(reports)


def _parse_input_ranges(specs: list[str]) -> dict[str, tuple[int, int]]:
    """``NAME=LO:HI`` → ``{name: (lo, hi)}``; usage errors on bad specs."""
    inputs: dict[str, tuple[int, int]] = {}
    for spec in specs:
        name, sep, rest = spec.partition("=")
        lo_text, colon, hi_text = rest.partition(":")
        try:
            if not sep or not colon or not name.strip():
                raise ValueError
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise CliInputError(
                f"bad --inputs value {spec!r}; expected NAME=LO:HI with "
                "integer bounds") from None
        if lo > hi:
            raise CliInputError(
                f"bad --inputs value {spec!r}: empty range [{lo}, {hi}]")
        inputs[name.strip()] = (lo, hi)
    return inputs


def _cmd_prove(arguments: argparse.Namespace, *, out) -> int:
    """Abstract range proofs; verdicts map onto the check exit codes."""
    from repro.symbolic.prove import (
        INCONCLUSIVE,
        PROVED_UNDEFINED,
        prove_unit,
    )

    options = _options_for(arguments)
    inputs = _parse_input_ranges(arguments.inputs)
    tool = KccTool(options, run_static_checks=not arguments.no_static)
    reports = []
    json_docs = []
    multiple = len(arguments.files) > 1
    for path in arguments.files:
        compiled = tool.compile_unit(_read_source(path), filename=path)
        try:
            report = prove_unit(compiled, options=options, inputs=inputs)
        except ValueError as error:
            raise CliInputError(f"{path}: {error}") from None
        reports.append(report)
        if arguments.format == "json":
            json_docs.append({"filename": path, **report.to_dict()})
        elif multiple:
            detail = report.kind.name if report.kind else (report.reason or "")
            print(f"{path}: {report.verdict}"
                  f"{' (' + detail + ')' if detail else ''}", file=out)
        else:
            print(report.render(), file=out)
    if arguments.format == "json":
        print(json.dumps(json_docs, indent=2), file=out)
    if any(report.verdict == PROVED_UNDEFINED for report in reports):
        return EXIT_FLAGGED
    if any(report.verdict == INCONCLUSIVE for report in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_DEFINED


def _cmd_run(arguments: argparse.Namespace, *, out) -> int:
    options = _options_for(arguments)
    tool = KccTool(options, run_static_checks=not arguments.no_static)
    report = tool.check(_read_source(arguments.file), filename=arguments.file,
                        argv=list(arguments.args) or None, stdin=arguments.stdin)
    if arguments.format == "json":
        print(report.to_json(indent=2), file=out)
    elif report.outcome.kind is OutcomeKind.DEFINED:
        print(report.outcome.stdout, end="", file=out)
    else:
        print(report.render(), file=out)
    if report.flagged:
        return EXIT_FLAGGED
    if report.outcome.kind is OutcomeKind.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return report.outcome.exit_code or 0


def _cmd_bench(arguments: argparse.Namespace, *, out) -> int:
    # Imported lazily: the suites are big modules the other subcommands
    # never need.
    from repro.analyzers.registry import make_tools
    from repro.suites.harness import EvaluationHarness
    from repro.suites.juliet import generate_juliet_suite
    from repro.suites.ubsuite import generate_undefinedness_suite

    suite = (generate_juliet_suite() if arguments.suite == "juliet"
             else generate_undefinedness_suite())
    names = None
    if arguments.tools:
        names = [name.strip() for name in arguments.tools.split(",") if name.strip()]
    elif arguments.smoke:
        names = ["kcc"]
    try:
        tools = make_tools(names)
    except KeyError as error:
        raise CliInputError(str(error.args[0])) from None
    cases = suite.cases[:12] if arguments.smoke else None
    harness = EvaluationHarness(tools)
    comparison = harness.run_suite(suite, cases=cases, jobs=arguments.jobs)
    print(comparison.figure2_table(), file=out)
    print(file=out)
    print(comparison.figure3_table(), file=out)
    print(file=out)
    print(comparison.runtime_table(), file=out)
    return EXIT_DEFINED


def _cmd_fuzz(arguments: argparse.Namespace, *, out) -> int:
    """Run a fuzzing campaign; exit 0 iff the oracles found no mismatch."""
    from repro.fuzz.campaign import CampaignConfig, run_campaign
    from repro.fuzz.generator import injection_families, template_for
    from repro.fuzz.oracles import OracleConfig

    inject: Optional[str] = arguments.inject
    if inject in ("none", ""):
        inject = None
    elif inject != "mixed" and inject not in injection_families():
        try:
            template_for(inject)
        except KeyError:
            known = ", ".join(["none", "mixed"] + injection_families())
            raise CliInputError(
                f"unknown --inject value {inject!r}; expected one of {known}, "
                "or a template name") from None
    options = _options_for(arguments)
    config = CampaignConfig(
        seed=arguments.seed,
        count=40 if arguments.smoke else arguments.count,
        inject=inject,
        jobs=arguments.jobs,
        oracles=OracleConfig(check_search=arguments.search_oracle),
        corpus_dir=arguments.corpus,
        reduce_failures=arguments.reduce)
    result = run_campaign(config, options=options)
    if arguments.format == "json":
        print(json.dumps(result.to_dict(), indent=2), file=out)
    else:
        print(result.render(), file=out)
    return EXIT_DEFINED if result.ok else EXIT_FLAGGED


def _cmd_tools(arguments: argparse.Namespace, *, out) -> int:
    from repro.analyzers.registry import registered_tools
    from repro.reporting import render_table

    entries = [entry.describe() for entry in registered_tools()]
    if arguments.format == "json":
        print(json.dumps(entries, indent=2), file=out)
        return EXIT_DEFINED
    rows = [[entry["key"], entry["name"], entry["models"],
             ", ".join(entry["aliases"]) or "—",
             "yes" if entry["default_lineup"] else "no"]
            for entry in entries]
    print(render_table(["tool", "table name", "models", "aliases", "default lineup"],
                       rows, title="Registered analysis tools (@register_tool)"),
          file=out)
    return EXIT_DEFINED


def _parse_units_slice(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep or not lo.isdigit() or not hi.isdigit() or int(lo) >= int(hi):
        raise CliInputError(
            f"bad --units value {text!r}; expected LO:HI with LO < HI")
    return int(lo), int(hi)


def _campaign_schedule(arguments: argparse.Namespace, *, out):
    from repro.campaign.scheduler import ScheduleConfig

    def progress(snapshot: dict) -> None:
        findings = len(snapshot.get("findings", ()))
        print(f"  unit {snapshot.get('unit', '?')}: "
              f"{snapshot['units_done']}/{snapshot['units_total']} units, "
              f"{snapshot['cases']} cases, {findings} finding(s), "
              f"{snapshot.get('throughput') or '—'} cases/sec",
              file=out, flush=True)

    quiet = getattr(arguments, "quiet", False)
    wants_json = getattr(arguments, "format", "text") == "json"
    return ScheduleConfig(
        jobs=max(1, arguments.jobs),
        endpoints=tuple(arguments.endpoints),
        retries=max(0, arguments.retries),
        bias=arguments.bias,
        store_records=not arguments.no_records,
        units_slice=_parse_units_slice(arguments.units),
        baseline=arguments.baseline,
        progress=None if (quiet or wants_json) else progress,
    )


def _render_campaign_outcome(outcome, *, out) -> None:
    from repro.reporting import render_table

    payload = outcome.to_dict()
    rows = []
    for family, row in payload["families"].items():
        rate = f"{row['rate']:.0%}" if row["rate"] is not None else "—"
        rows.append([family, row["cases"], row["correct"], rate])
    print(render_table(
        ["family", "cases", "ground truth upheld", "rate"],
        rows,
        title=(f"Campaign {payload['campaign'][:12]}: "
               f"{payload['units_done']}/{payload['units_total']} units, "
               f"{payload['cases']} cases"),
    ), file=out)
    findings = payload["findings"]
    print(f"\n{len(findings)} distinct finding(s); "
          f"result digest {payload['result_digest'][:16]}", file=out)
    for finding in findings[:20]:
        print(f"  {finding['signature']} "
              f"(family {finding.get('family') or '—'}, "
              f"case {finding.get('case', '?')})", file=out)
    if len(findings) > 20:
        print(f"  ... and {len(findings) - 20} more", file=out)
    deltas = payload.get("deltas")
    if deltas:
        moved = {family: entry for family, entry in deltas.items()
                 if entry.get("delta")}
        if moved:
            print("regression deltas vs baseline:", file=out)
            for family, entry in moved.items():
                print(f"  {family}: {entry['delta']:+.4f} "
                      f"(now {entry['rate']}, baseline {entry['baseline']})",
                      file=out)
        else:
            print("no family rate moved against the baseline", file=out)


def _campaign_exit(outcome, arguments, *, out) -> int:
    if getattr(arguments, "format", "text") == "json":
        print(json.dumps(outcome.to_dict(), indent=2), file=out)
    else:
        _render_campaign_outcome(outcome, out=out)
    return EXIT_FLAGGED if outcome.to_dict()["findings"] else EXIT_DEFINED


def _cmd_campaign(arguments: argparse.Namespace, *, out) -> int:
    """Journaled campaigns: run / resume / status / merge."""
    from repro.campaign import CampaignSpec
    from repro.campaign.scheduler import (
        CampaignError,
        campaign_status,
        merge_campaign_journals,
        resume_campaign,
        run_campaign_spec,
    )

    command = arguments.campaign_command
    try:
        if command == "status":
            outcome = campaign_status(arguments.journal,
                                      baseline=arguments.baseline)
            return _campaign_exit(outcome, arguments, out=out)
        if command == "merge":
            outcome = merge_campaign_journals(arguments.inputs, arguments.out,
                                              baseline=arguments.baseline)
            print(f"merged {len(arguments.inputs)} journal(s) into "
                  f"{arguments.out}", file=out)
            return _campaign_exit(outcome, arguments, out=out)
        schedule = _campaign_schedule(arguments, out=out)
        if command == "resume":
            outcome = resume_campaign(arguments.journal, schedule)
            return _campaign_exit(outcome, arguments, out=out)
        assert command == "run"
        import pathlib

        from repro.service.protocol import options_to_dict

        journal = arguments.journal or arguments.resume_from
        if journal is None:
            raise CliInputError(
                "campaign run needs --journal PATH (or --resume-from PATH "
                "to pick up an existing journal)")
        inject: Optional[str] = arguments.inject
        if inject in ("none", ""):
            inject = None
        source = None
        if arguments.kind == "search":
            if arguments.file is None:
                raise CliInputError("search campaigns need a C source file")
            source = _read_source(arguments.file)
        try:
            spec = CampaignSpec(
                kind=arguments.kind,
                seed=arguments.seed,
                count=arguments.count,
                unit_size=arguments.unit_size,
                inject=inject,
                options=options_to_dict(_options_for(arguments)),
                suite=arguments.suite,
                source=source,
                filename=arguments.file or "<input>",
                budget=arguments.budget,
            )
        except ValueError as error:
            raise CliInputError(str(error)) from None
        path = pathlib.Path(journal)
        if arguments.resume_from and path.exists() and path.stat().st_size:
            outcome = resume_campaign(path, schedule)
        else:
            outcome = run_campaign_spec(spec, path, schedule)
        return _campaign_exit(outcome, arguments, out=out)
    except CampaignError as error:
        raise CliInputError(str(error)) from None


def _cmd_serve(arguments: argparse.Namespace, *, out) -> int:
    """Run the checking service until SIGTERM/SIGINT, then drain."""
    import asyncio
    import contextlib
    import signal as signal_module

    from repro.service.server import CheckService

    service = CheckService(socket_path=arguments.socket, host=arguments.host,
                           port=arguments.port, jobs=arguments.jobs)

    async def _serve() -> None:
        await service.start()
        print(f"kcc-check serve: listening on {service.endpoint}", file=out,
              flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, service.request_stop)
        await service.serve_forever()

    asyncio.run(_serve())
    print("kcc-check serve: drained (jobs finished, workers reaped)", file=out,
          flush=True)
    return EXIT_DEFINED


def main(argv: Optional[list[str]] = None, *, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat with the seed's single-file CLI: `kcc-check prog.c [...]`.
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv = ["check"] + argv
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "check":
            return _cmd_check(arguments, search=arguments.search, out=out)
        if arguments.command == "search":
            return _cmd_search(arguments, out=out)
        if arguments.command == "prove":
            return _cmd_prove(arguments, out=out)
        if arguments.command == "run":
            return _cmd_run(arguments, out=out)
        if arguments.command == "tools":
            return _cmd_tools(arguments, out=out)
        if arguments.command == "fuzz":
            return _cmd_fuzz(arguments, out=out)
        if arguments.command == "serve":
            return _cmd_serve(arguments, out=out)
        if arguments.command == "campaign":
            return _cmd_campaign(arguments, out=out)
        assert arguments.command == "bench"
        return _cmd_bench(arguments, out=out)
    except CliInputError as error:
        print(f"kcc-check: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The consumer closed the pipe (e.g. `kcc-check ... | head`); die
        # quietly the way Unix tools do instead of tracebacking.  Point the
        # stdout fd at devnull so the interpreter's exit-time flush of the
        # buffered stream cannot trip over the dead pipe.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_PIPE_CLOSED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
