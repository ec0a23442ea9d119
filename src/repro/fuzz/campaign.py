"""Fuzzing campaigns: generate, oracle-check, fan out, stream mismatches.

A campaign is a deterministic function of ``(seed, count, configs)``: case
``i`` derives every random decision from ``(seed, "fuzz", "case", i)``, so
the result is **byte-identical** however :mod:`repro.campaign`'s scheduler,
the one campaign driver, slices and places the work units (``jobs=N``,
journaled or not).  That identity is pinned by
``tests/fuzz/test_campaign.py``.

Mismatches stream to a corpus directory as replayable JSON (the generating
``(seed, index, config)`` triple plus the rendered source and the oracle
failures), deduplicated by diagnostic signature so a systematic bug yields
one corpus entry, not ``count`` of them.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.fuzz.generator import GeneratorConfig, generate_case, regenerate
from repro.fuzz.oracles import OracleConfig, OracleReport, run_oracles
from repro.reporting import render_table

if TYPE_CHECKING:
    from repro.campaign.workunit import CampaignSpec

#: Corpus entries carry a schema tag so future layout changes stay readable.
CORPUS_SCHEMA = "repro.fuzz.corpus/1"


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign run depends on (picklable)."""

    seed: int = 0
    count: int = 100
    #: None → clean programs only; a family/template name → always inject
    #: from it; "mixed" → ~40% clean, else a random template.
    inject: Optional[str] = "mixed"
    jobs: int = 1
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    oracles: OracleConfig = field(default_factory=OracleConfig)
    corpus_dir: Optional[str] = None
    reduce_failures: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "count": self.count,
            "inject": self.inject,
            "jobs": self.jobs,
            "generator": self.generator.to_dict(),
            "oracles": self.oracles.to_dict(),
            "corpus_dir": self.corpus_dir,
            "reduce_failures": self.reduce_failures,
        }


@dataclass
class CaseRecord:
    """The campaign-level record of one case (small and picklable)."""

    index: int
    name: str
    injected: Optional[str]
    family: Optional[str]
    verdict: str
    detected_kind: Optional[str]
    ok: bool
    failures: list[dict[str, str]] = field(default_factory=list)
    #: Present only on mismatching cases (bounds worker→parent IPC).
    source: Optional[str] = None
    reduced_source: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "index": self.index,
            "name": self.name,
            "injected": self.injected,
            "family": self.family,
            "verdict": self.verdict,
            "detected_kind": self.detected_kind,
            "ok": self.ok,
        }
        if self.failures:
            data["failures"] = self.failures
        if self.source is not None:
            data["source"] = self.source
        if self.reduced_source is not None:
            data["reduced_source"] = self.reduced_source
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CaseRecord":
        """Rehydrate a record from its ``to_dict`` form (journal replay)."""
        return cls(**data)


@dataclass
class CampaignResult:
    """The outcome of one campaign."""

    config: CampaignConfig
    records: list[CaseRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    corpus_entries: list[str] = field(default_factory=list)

    @property
    def mismatches(self) -> list[CaseRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def programs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.records) / self.elapsed_seconds

    def family_table(self) -> dict[str, dict[str, int]]:
        """Ground-truth detection per injected family (clean under "clean")."""
        from repro.campaign.workunit import family_table

        return family_table([record.to_dict() for record in self.records])

    def to_dict(self) -> dict[str, Any]:
        # "timing" is the one machine-dependent key: comparisons asserting
        # the jobs=N-equals-serial byte identity drop it (and config.jobs)
        # before comparing.
        return {
            "config": self.config.to_dict(),
            "cases": len(self.records),
            "mismatches": [record.to_dict() for record in self.mismatches],
            "family_table": self.family_table(),
            "records": [record.to_dict() for record in self.records],
            "corpus_entries": list(self.corpus_entries),
            "timing": {
                "elapsed_seconds": self.elapsed_seconds,
                "programs_per_second": self.programs_per_second(),
            },
        }

    def render(self) -> str:
        rows = []
        for family, row in sorted(self.family_table().items()):
            rate = f"{row['correct'] / row['cases']:.0%}" if row["cases"] else "—"
            rows.append([family, row["cases"], row["correct"], rate])
        table = render_table(
            ["family", "cases", "ground truth upheld", "rate"],
            rows,
            title=(
                f"Fuzz campaign: seed={self.config.seed} "
                f"count={self.config.count} inject={self.config.inject}"
            ),
        )
        lines = [
            table,
            "",
            f"{len(self.records)} programs, "
            f"{len(self.mismatches)} oracle mismatch(es), "
            f"{self.programs_per_second():.1f} programs/sec "
            f"({self.elapsed_seconds:.2f}s)",
        ]
        if self.corpus_entries:
            lines.append("corpus entries written:")
            lines.extend(f"  {path}" for path in self.corpus_entries)
        return "\n".join(lines)


def examine_case(
    seed: int,
    index: int,
    inject: Optional[str],
    generator: GeneratorConfig,
    oracles: OracleConfig,
    options: CheckerOptions,
) -> CaseRecord:
    """Generate case ``index`` and run the oracle stack on it (any process)."""
    case = generate_case(seed, index, config=generator, inject=inject)
    report = run_oracles(case, options=options, oracle_config=oracles)
    record = CaseRecord(
        index=index,
        name=case.name,
        injected=case.injected,
        family=case.family,
        verdict=report.verdict,
        detected_kind=report.detected_kind,
        ok=report.ok,
        failures=[failure.to_dict() for failure in report.failures],
    )
    if not report.ok:
        record.source = case.source
    return record


def campaign_spec(
    config: CampaignConfig,
    options: CheckerOptions = DEFAULT_OPTIONS,
    *,
    workers: Optional[int] = None,
) -> CampaignSpec:
    """The work-unit spec of a fuzz campaign (corpus and reduction aside).

    Units are sized by the pool's chunk rule for ``workers`` (default:
    ``config.jobs``), so a parallel run keeps every worker busy.
    """
    from repro.campaign.workunit import CampaignSpec
    from repro.service.pool import chunk_size, resolve_jobs
    from repro.service.protocol import options_to_dict

    jobs = resolve_jobs(config.jobs if workers is None else workers)
    return CampaignSpec(
        kind="fuzz",
        seed=config.seed,
        count=config.count,
        unit_size=chunk_size(config.count, jobs),
        inject=config.inject,
        generator=config.generator.to_dict(),
        oracles=config.oracles.to_dict(),
        options=options_to_dict(options),
    )


def case_records(results: Iterable[dict[str, Any]]) -> list[CaseRecord]:
    """The case records of fuzz unit results, in the order given."""
    return [
        CaseRecord.from_dict(entry)
        for result in results
        for entry in result.get("records", ())
    ]


def finalize_campaign(
    config: CampaignConfig,
    records: list[CaseRecord],
    *,
    options: CheckerOptions = DEFAULT_OPTIONS,
    elapsed_seconds: float = 0.0,
) -> CampaignResult:
    """Assemble a result from examined records; reduce/stream the corpus.

    Split out of :func:`run_campaign` so the checking service, which runs
    the units itself to stream progress and honor cancellation, shares the
    exact corpus/reduction semantics.
    """
    result = CampaignResult(config, records, elapsed_seconds)
    if config.reduce_failures:
        _reduce_mismatches(result, options)
    if config.corpus_dir is not None:
        _write_corpus(result, options)
    return result


def run_campaign(
    config: CampaignConfig,
    *,
    options: CheckerOptions = DEFAULT_OPTIONS,
    journal: Optional[str] = None,
) -> CampaignResult:
    """Run one campaign as work units through the campaign scheduler.

    With ``journal`` set, progress is journaled to that path, a unit that
    raises is retried with backoff, and a journal left by a killed run is
    resumed (completed units never re-execute).  Without one, the first
    exception in a case ends the run as :class:`repro.campaign.CampaignError`.
    Apart from ``timing`` and ``config.jobs``, the result is byte-identical
    for every ``jobs`` value, with or without a journal.
    """
    from repro.campaign.scheduler import (
        ScheduleConfig,
        resume_campaign,
        run_campaign_spec,
    )

    start = time.perf_counter()
    # Without a journal a retry would only repeat the same work, so an
    # exception in a case fails the run at once.
    retries = ScheduleConfig.retries if journal is not None else 0
    schedule = ScheduleConfig(jobs=max(1, int(config.jobs)), retries=retries)
    path = None if journal is None else pathlib.Path(journal)
    if path is not None and path.exists() and path.stat().st_size > 0:
        outcome = resume_campaign(path, schedule)
    else:
        outcome = run_campaign_spec(campaign_spec(config, options), path, schedule)
    state = outcome.state
    records = case_records(state.results[unit_id] for unit_id in state.units)
    return finalize_campaign(
        config, records, options=options, elapsed_seconds=time.perf_counter() - start
    )


# ---------------------------------------------------------------------------
# Corpus: replayable JSON mismatch entries, deduped by signature
# ---------------------------------------------------------------------------


def _entry_signature(record: CaseRecord) -> str:
    return record.failures[0]["signature"] if record.failures else "unknown"


def write_corpus_entry(
    directory: pathlib.Path,
    record: CaseRecord,
    config: CampaignConfig,
) -> pathlib.Path:
    """Write one mismatch as a replayable JSON corpus entry."""
    directory.mkdir(parents=True, exist_ok=True)
    signature = _entry_signature(record)
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in signature)
    safe = safe[:80]
    path = directory / f"{safe}.json"
    entry = {
        "schema": CORPUS_SCHEMA,
        "signature": signature,
        "seed": config.seed,
        "index": record.index,
        "inject_mode": config.inject,
        "config": config.generator.to_dict(),
        "oracles": config.oracles.to_dict(),
        "source": record.source,
        "reduced_source": record.reduced_source,
        "failures": record.failures,
        "verdict": record.verdict,
    }
    path.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    return path


def _write_corpus(result: CampaignResult, options: CheckerOptions) -> None:
    directory = pathlib.Path(result.config.corpus_dir)
    seen: set[str] = set()
    for record in result.mismatches:
        signature = _entry_signature(record)
        if signature in seen:
            continue
        seen.add(signature)
        path = write_corpus_entry(directory, record, result.config)
        result.corpus_entries.append(str(path))


def replay_corpus_entry(
    path: str | pathlib.Path,
    *,
    options: CheckerOptions = DEFAULT_OPTIONS,
) -> OracleReport:
    """Re-run the oracle stack on a corpus entry (regenerated from its seed)."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    case = regenerate(data)
    oracle_config = OracleConfig.from_dict(data.get("oracles", {}))
    return run_oracles(case, options=options, oracle_config=oracle_config)


#: Failure signatures the reducer cannot hold a shrinking program to: the
#: output-drift oracles compare against the generator's simulation of the
#: *original* IR, and any statement removal legitimately changes the output,
#: so no source-only predicate can preserve "drifts from the simulation".
_UNREDUCIBLE_SIGNATURES = ("clean-stdout-drift", "clean-exit-drift")


def _reduce_mismatches(result: CampaignResult, options: CheckerOptions) -> None:
    from repro.fuzz.reduce import make_failure_predicate, reduce_source

    reduced_signatures: set[str] = set()
    for record in result.mismatches:
        if record.source is None:
            continue
        signature = _entry_signature(record)
        if signature in _UNREDUCIBLE_SIGNATURES:
            continue
        if signature in reduced_signatures:
            # A systematic bug fails many cases the same way; reduce one
            # representative per signature — the first record, which is
            # also the one the deduped corpus keeps.
            continue
        reduced_signatures.add(signature)
        case = generate_case(
            result.config.seed,
            record.index,
            config=result.config.generator,
            inject=result.config.inject,
        )
        predicate = make_failure_predicate(
            case,
            signature,
            options=options,
            oracle_config=result.config.oracles,
        )
        record.reduced_source = reduce_source(record.source, predicate)


__all__ = [
    "CORPUS_SCHEMA",
    "CampaignConfig",
    "CampaignResult",
    "CaseRecord",
    "campaign_spec",
    "case_records",
    "examine_case",
    "finalize_campaign",
    "replay_corpus_entry",
    "run_campaign",
    "write_corpus_entry",
]
