"""The drive loop: run, resume, shard+merge, retry, bias, fuzz routing."""

import shutil

import pytest

import repro.campaign.scheduler as scheduler_module
from repro.campaign.journal import load_journal
from repro.campaign.scheduler import (
    CampaignError,
    ScheduleConfig,
    backoff_delay,
    campaign_status,
    merge_campaign_journals,
    resume_campaign,
    run_campaign_spec,
)
from repro.campaign.workunit import CampaignSpec, execute_unit

SPEC = CampaignSpec(seed=17, count=6, unit_size=2, inject="rotate")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run of SPEC; every identity test compares to it."""
    path = tmp_path_factory.mktemp("campaign") / "reference.jsonl"
    outcome = run_campaign_spec(SPEC, path)
    assert outcome.complete
    return outcome, path


def test_backoff_delay_is_capped_exponential():
    base, cap = 0.25, 5.0
    delays = [backoff_delay(n, base=base, cap=cap) for n in range(1, 8)]
    assert delays[:4] == [0.25, 0.5, 1.0, 2.0]
    assert delays[-1] == cap
    assert delays == sorted(delays)


def test_run_refuses_to_clobber_an_existing_journal(reference):
    _, path = reference
    with pytest.raises(CampaignError, match="already exists"):
        run_campaign_spec(SPEC, path)


def test_in_memory_run_matches_the_journaled_one(reference):
    outcome, _ = reference
    in_memory = run_campaign_spec(SPEC)
    assert in_memory.journal_path is None
    assert in_memory.executed == outcome.state.units_total
    assert in_memory.to_dict() == outcome.to_dict()
    for unit_id, result in outcome.state.results.items():
        assert in_memory.state.results[unit_id]["records"] == result["records"]


def test_resume_of_a_complete_campaign_executes_nothing(reference):
    outcome, path = reference
    resumed = resume_campaign(path)
    assert resumed.executed == 0
    assert resumed.skipped == outcome.state.units_total
    assert resumed.to_dict() == outcome.to_dict()
    assert resumed.state.duplicate_done == 0


def test_resume_after_a_crash_truncated_tail(reference, tmp_path):
    outcome, path = reference
    crashed = tmp_path / "crashed.jsonl"
    raw = path.read_bytes()
    crashed.write_bytes(raw[: int(len(raw) * 0.55)])  # mid-record, mid-run
    resumed = resume_campaign(crashed)
    assert resumed.recovered_bytes > 0
    assert resumed.executed > 0
    assert resumed.executed + resumed.skipped == outcome.state.units_total
    assert resumed.to_dict() == outcome.to_dict()
    assert resumed.state.duplicate_done == 0


def test_disjoint_slices_merge_to_the_uninterrupted_result(
    reference, tmp_path
):
    outcome, _ = reference
    total = outcome.state.units_total
    half = total // 2
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    part_a = run_campaign_spec(SPEC, a, ScheduleConfig(units_slice=(0, half)))
    part_b = run_campaign_spec(
        SPEC, b, ScheduleConfig(units_slice=(half, total))
    )
    assert not part_a.complete and not part_b.complete
    merged_ab = merge_campaign_journals([a, b], tmp_path / "ab.jsonl")
    merged_ba = merge_campaign_journals([b, a], tmp_path / "ba.jsonl")
    assert (tmp_path / "ab.jsonl").read_bytes() == (
        tmp_path / "ba.jsonl"
    ).read_bytes()
    assert merged_ab.to_dict() == outcome.to_dict()
    assert merged_ba.complete


def test_bias_reorders_execution_but_not_the_result(reference, tmp_path):
    outcome, _ = reference
    biased = run_campaign_spec(
        SPEC, tmp_path / "biased.jsonl", ScheduleConfig(bias=True)
    )
    assert biased.to_dict() == outcome.to_dict()


def test_store_records_false_keeps_the_canonical_result(reference, tmp_path):
    outcome, _ = reference
    slim = run_campaign_spec(
        SPEC, tmp_path / "slim.jsonl", ScheduleConfig(store_records=False)
    )
    assert slim.to_dict() == outcome.to_dict()
    state, _ = load_journal(tmp_path / "slim.jsonl")
    assert all("records" not in result for result in state.results.values())


def test_status_is_read_only(reference, tmp_path):
    outcome, path = reference
    copy = tmp_path / "status.jsonl"
    shutil.copy(path, copy)
    before = copy.read_bytes()
    status = campaign_status(copy)
    assert copy.read_bytes() == before
    assert status.to_dict() == outcome.to_dict()
    assert status.skipped == outcome.state.units_total


def test_progress_callback_sees_every_completed_unit(tmp_path):
    snapshots = []
    spec = CampaignSpec(seed=17, count=4, unit_size=2)
    run_campaign_spec(
        spec, tmp_path / "p.jsonl", ScheduleConfig(progress=snapshots.append)
    )
    assert len(snapshots) == 2
    assert snapshots[-1]["units_done"] == 2
    assert all("elapsed_seconds" in snapshot for snapshot in snapshots)
    assert all("unit" in snapshot for snapshot in snapshots)


class TestRetries:
    def test_transient_failures_retry_and_converge(
        self, reference, tmp_path, monkeypatch
    ):
        outcome, _ = reference
        seen: set[str] = set()

        def flaky(header, unit_dict):
            if unit_dict["id"] not in seen:
                seen.add(unit_dict["id"])
                raise RuntimeError("transient worker loss")
            return execute_unit(header, unit_dict)

        monkeypatch.setattr(scheduler_module, "execute_unit", flaky)
        path = tmp_path / "flaky.jsonl"
        result = run_campaign_spec(
            SPEC, path, ScheduleConfig(retries=2, backoff_base=0.0)
        )
        assert result.to_dict() == outcome.to_dict()
        state, _ = load_journal(path)
        # Every unit failed once, was journaled, and then succeeded.
        assert len(state.failures) == state.units_total
        assert all(
            errors == ["RuntimeError: transient worker loss"]
            for errors in state.failures.values()
        )

    def test_exhausted_retries_abort_but_keep_progress(
        self, tmp_path, monkeypatch
    ):
        def doomed(header, unit_dict):
            if unit_dict["index"] == 1:
                raise RuntimeError("hardware on fire")
            return execute_unit(header, unit_dict)

        monkeypatch.setattr(scheduler_module, "execute_unit", doomed)
        path = tmp_path / "doomed.jsonl"
        with pytest.raises(CampaignError, match="failed after 2 attempt"):
            run_campaign_spec(
                SPEC, path, ScheduleConfig(retries=1, backoff_base=0.0)
            )
        state, _ = load_journal(path)
        assert state.done_units >= 1  # unit 0 completed before the abort
        # The journal is resumable once the fault clears.
        monkeypatch.setattr(scheduler_module, "execute_unit", execute_unit)
        resumed = resume_campaign(path)
        assert resumed.complete
        assert resumed.state.duplicate_done == 0


def test_fuzz_run_campaign_routes_through_the_journal(reference, tmp_path):
    from repro.fuzz.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(seed=17, count=6, inject="mixed")
    direct = run_campaign(config)
    journaled = run_campaign(config, journal=str(tmp_path / "fuzz.jsonl"))
    assert [r.to_dict() for r in journaled.records] == [
        r.to_dict() for r in direct.records
    ]
    assert journaled.family_table() == direct.family_table()
    # A second call with the same journal resumes (no units re-execute)
    # and reconstructs the identical records.
    again = run_campaign(config, journal=str(tmp_path / "fuzz.jsonl"))
    assert [r.to_dict() for r in again.records] == [
        r.to_dict() for r in direct.records
    ]
