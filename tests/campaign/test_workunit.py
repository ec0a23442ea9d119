"""Work-unit identity, partitioning, and placement-independent execution."""

import pytest

from repro.campaign.workunit import (
    DEFAULT_UNIT_SIZE,
    ROTATE,
    CampaignSpec,
    WorkUnit,
    campaign_units,
    execute_unit,
    strip_result,
    unit_result_digest,
)
from repro.fuzz.generator import injection_families


class TestCampaignSpec:
    def test_defaults_roundtrip(self):
        spec = CampaignSpec()
        assert spec.kind == "fuzz"
        assert spec.unit_size == DEFAULT_UNIT_SIZE
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_digest_is_stable_and_content_addressed(self):
        a = CampaignSpec(seed=7, count=40)
        b = CampaignSpec(seed=7, count=40)
        c = CampaignSpec(seed=8, count=40)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_default_profile_normalizes_out_of_the_options(self):
        # ``options_to_dict`` always emits the profile name; a spec built
        # with it must digest identically to one built with bare defaults.
        bare = CampaignSpec(seed=1, count=10)
        wired = CampaignSpec(seed=1, count=10, options={"profile": "lp64"})
        assert bare.options == wired.options == {}
        assert bare.digest() == wired.digest()

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec fields"):
            CampaignSpec.from_dict({"kind": "fuzz", "bogus": 1})

    def test_bad_kind_and_bad_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            CampaignSpec(kind="stress")
        with pytest.raises(ValueError, match="non-negative"):
            CampaignSpec(count=-1)
        with pytest.raises(ValueError, match="unit_size"):
            CampaignSpec(unit_size=0)

    def test_search_kind_requires_source(self):
        with pytest.raises(ValueError, match="source"):
            CampaignSpec(kind="search")

    def test_units_estimate_matches_partition(self):
        for count, size in [(10, 3), (10, 10), (1, 25), (9, 2)]:
            spec = CampaignSpec(seed=0, count=count, unit_size=size)
            assert spec.units_estimate() == len(campaign_units(spec))


class TestPartitioning:
    def test_fuzz_spans_cover_the_campaign_exactly(self):
        spec = CampaignSpec(seed=3, count=10, unit_size=3)
        units = campaign_units(spec)
        assert [u.index for u in units] == [0, 1, 2, 3]
        spans = [(u.params["lo"], u.params["hi"]) for u in units]
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert sum(u.cases for u in units) == 10

    def test_rotate_assigns_families_round_robin(self):
        families = injection_families()
        spec = CampaignSpec(
            seed=3, count=len(families) + 1, unit_size=1, inject=ROTATE
        )
        units = campaign_units(spec)
        assigned = [u.params["inject"] for u in units]
        assert assigned[: len(families)] == list(families)
        assert assigned[len(families)] == families[0]

    def test_unit_ids_are_distinct_and_deterministic(self):
        spec = CampaignSpec(seed=3, count=10, unit_size=3)
        first = [u.unit_id for u in campaign_units(spec)]
        second = [u.unit_id for u in campaign_units(spec)]
        assert first == second
        assert len(set(first)) == len(first)
        assert all(unit_id.startswith("wu-") for unit_id in first)

    def test_suite_partition_covers_the_suite(self):
        spec = CampaignSpec(kind="suite", suite="ubsuite", count=5, unit_size=2)
        units = campaign_units(spec)
        assert [u.kind for u in units] == ["suite"] * len(units)
        assert sum(u.cases for u in units) == 5


class TestWorkUnitSerialization:
    def test_roundtrip(self):
        spec = CampaignSpec(seed=3, count=4, unit_size=2)
        unit = campaign_units(spec)[1]
        assert WorkUnit.from_dict(unit.to_dict()) == unit

    def test_tampered_unit_is_rejected(self):
        spec = CampaignSpec(seed=3, count=4, unit_size=2)
        data = campaign_units(spec)[0].to_dict()
        data["params"] = dict(data["params"], hi=999)
        with pytest.raises(ValueError, match="altered in transit"):
            WorkUnit.from_dict(data)

    def test_malformed_unit_is_rejected(self):
        with pytest.raises(ValueError, match="malformed work unit"):
            WorkUnit.from_dict({"kind": "fuzz"})


class TestExecuteUnit:
    def test_fuzz_unit_is_deterministic(self):
        spec = CampaignSpec(seed=11, count=4, unit_size=2, inject="mixed")
        unit = campaign_units(spec)[0]
        header = (spec.to_dict(), None)
        first = execute_unit(header, unit.to_dict())
        second = execute_unit(header, unit.to_dict())
        assert first["digest"] == second["digest"]
        assert first["records"] == second["records"]
        assert first["cases"] == 2
        assert first["digest"] == unit_result_digest(first["records"])

    def test_unit_summaries_sum_to_the_monolithic_family_table(self):
        from repro.fuzz.campaign import CampaignConfig, run_campaign

        spec = CampaignSpec(seed=11, count=6, unit_size=2, inject="mixed")
        header = (spec.to_dict(), None)
        merged: dict = {}
        for unit in campaign_units(spec):
            for family, row in execute_unit(header, unit.to_dict())[
                "summary"
            ].items():
                mine = merged.setdefault(family, {"cases": 0, "correct": 0})
                mine["cases"] += row["cases"]
                mine["correct"] += row["correct"]
        result = run_campaign(CampaignConfig(seed=11, count=6, inject="mixed"))
        assert merged == {
            family: {"cases": row["cases"], "correct": row["correct"]}
            for family, row in result.family_table().items()
        }

    def test_spec_options_apply_without_header_options(self):
        # The remote backend and the service's campaign op send no header
        # options; the spec's own options must still govern the unit.
        spec = CampaignSpec(
            seed=11, count=2, unit_size=2, inject="memory",
            options={"check_memory": False},
        )
        unit = campaign_units(spec)[0].to_dict()
        bare = execute_unit((spec.to_dict(), None), unit)
        explicit = execute_unit((spec.to_dict(), spec.options), unit)
        defaults = execute_unit((spec.to_dict(), {"check_memory": True}), unit)
        assert bare["records"] == explicit["records"]
        assert bare["records"] != defaults["records"]

    def test_unit_of_another_spec_is_rejected(self):
        spec = CampaignSpec(seed=11, count=4, unit_size=2)
        other = CampaignSpec(seed=12, count=4, unit_size=2)
        unit = campaign_units(other)[0]
        with pytest.raises(ValueError, match="belongs to spec"):
            execute_unit((spec.to_dict(), None), unit.to_dict())

    def test_suite_unit_executes(self):
        spec = CampaignSpec(kind="suite", suite="ubsuite", count=2, unit_size=2)
        unit = campaign_units(spec)[0]
        result = execute_unit((spec.to_dict(), None), unit.to_dict())
        assert result["cases"] == 2
        assert result["kind"] == "suite"

    def test_strip_result_keeps_summary_and_digest(self):
        spec = CampaignSpec(seed=11, count=2, unit_size=2)
        unit = campaign_units(spec)[0]
        result = execute_unit((spec.to_dict(), None), unit.to_dict())
        slim = strip_result(result)
        assert "records" not in slim
        assert slim["digest"] == result["digest"]
        assert slim["summary"] == result["summary"]
        assert "records" in result  # the original is untouched
