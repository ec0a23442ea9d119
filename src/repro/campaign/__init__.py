"""``repro.campaign``: journaled, resumable, distributed work-unit campaigns.

This package is the one campaign driver: every fuzz campaign
(:func:`repro.fuzz.campaign.run_campaign`, ``Checker.fuzz``, ``kcc-check
fuzz``, the service's ``fuzz`` op) and every ``kcc-check campaign`` run
goes through its scheduler.  It converts a campaign into **relocatable work
units** — serializable slices of a deterministic workload, each with a
stable content-addressed id — plus an optional **append-only journal** of
every unit claimed and completed, so a journaled campaign survives restarts
(replay the journal, re-dispatch only what is missing), shards across
processes and machines (run disjoint ``--units`` slices, then ``merge``
the journals), and reports continuously (``campaign-progress`` events
stream per-family rates and throughput while units complete).

Layer map:

* :mod:`repro.campaign.workunit` — :class:`CampaignSpec` (what the campaign
  is), :class:`WorkUnit` (one slice of it), :func:`campaign_units`
  (partition), :func:`execute_unit` (run one unit anywhere);
* :mod:`repro.campaign.journal` — the JSONL journal: fsync batching,
  crash-safe truncated-tail recovery, replay, merge;
* :mod:`repro.campaign.scheduler` — dispatch units inline, over the warm
  pool or to ``kcc-check serve`` endpoints, journaled or in memory, with
  retries, backoff, global finding dedup, and coverage-guided family bias;
* :mod:`repro.campaign.aggregate` — the incremental results plane.

Every guarantee rests on PR 5's per-item seed derivation: a unit's result
depends only on the unit's identity, never on where or when it ran, which
is what makes resumed, sharded, and merged campaigns byte-identical to an
uninterrupted serial run.
"""

from repro.campaign.aggregate import CampaignAggregate
from repro.campaign.journal import (
    JournalError,
    JournalState,
    JournalWriter,
    merge_journals,
    read_journal,
    recover_journal,
    replay,
)
from repro.campaign.scheduler import (
    CampaignError,
    CampaignOutcome,
    ScheduleConfig,
    resume_campaign,
    run_campaign_spec,
)
from repro.campaign.workunit import (
    CampaignSpec,
    WorkUnit,
    campaign_units,
    execute_unit,
    unit_result_digest,
)

__all__ = [
    "CampaignAggregate",
    "CampaignError",
    "CampaignOutcome",
    "CampaignSpec",
    "JournalError",
    "JournalState",
    "JournalWriter",
    "ScheduleConfig",
    "WorkUnit",
    "campaign_units",
    "execute_unit",
    "merge_journals",
    "read_journal",
    "recover_journal",
    "replay",
    "resume_campaign",
    "run_campaign_spec",
    "unit_result_digest",
]
