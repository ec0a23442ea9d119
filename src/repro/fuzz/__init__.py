"""``repro.fuzz``: ground-truth program generation, oracles, campaigns.

The paper's evaluation rests on fixed, hand-written suites; this package
turns the repo's machinery — two differential engines, the probe bus, the
process pool — into an *unbounded, seedable* source of labeled C programs:

* :mod:`repro.fuzz.generator` — a seeded, grammar-directed generator that
  emits programs **well-defined by construction** (it simulates every
  generated statement concretely, so each clean program carries its own
  predicted stdout and exit code), plus a UB-injection mode that plants
  exactly one known defect from templates keyed to the undefinedness
  catalog's check families;
* :mod:`repro.fuzz.oracles` — the differential oracle stack run per
  program: walker-vs-lowered equality, strict-vs-observed consistency,
  event-stream equality, ground-truth verdicts, ablation monotonicity,
  optional bounded evaluation-order-search agreement;
* :mod:`repro.fuzz.campaign` — campaigns: runs one as work units through
  the :mod:`repro.campaign` scheduler (verdict-identical for any ``jobs``,
  journaled or not), streams mismatches to a replayable JSON corpus, dedups
  by diagnostic signature;
* :mod:`repro.fuzz.reduce` — a ddmin-style statement/expression reducer
  that shrinks any mismatching program while preserving its oracle failure.
"""

from repro.fuzz.generator import (
    FuzzCase,
    GeneratorConfig,
    INJECTION_TEMPLATES,
    UNGENERATED,
    generate_case,
    generate_cases,
    injection_families,
    template_for,
)
from repro.fuzz.oracles import OracleConfig, OracleFailure, run_oracles
from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignResult,
    CaseRecord,
    run_campaign,
    write_corpus_entry,
)
from repro.fuzz.reduce import make_failure_predicate, reduce_source

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CaseRecord",
    "FuzzCase",
    "GeneratorConfig",
    "INJECTION_TEMPLATES",
    "OracleConfig",
    "OracleFailure",
    "UNGENERATED",
    "generate_case",
    "generate_cases",
    "injection_families",
    "make_failure_predicate",
    "reduce_source",
    "run_campaign",
    "run_oracles",
    "template_for",
    "write_corpus_entry",
]
