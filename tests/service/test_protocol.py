"""Protocol layer: frame round-trips, validation, options serialization."""

import dataclasses

import pytest

from repro.cfront import ctypes as ct
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.service import protocol
from repro.service.protocol import ProtocolError


def _round_trip(frame):
    return protocol.decode_frame(protocol.encode_frame(frame))


def test_encode_decode_round_trip():
    frame = {"op": "ping", "nested": {"a": [1, 2, 3]}, "text": "café"}
    assert _round_trip(frame) == frame
    assert protocol.encode_frame(frame).endswith(b"\n")


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        protocol.decode_frame(b"not json at all")
    with pytest.raises(ProtocolError, match="must be an object"):
        protocol.decode_frame(b"[1, 2, 3]")
    with pytest.raises(ProtocolError, match="not UTF-8"):
        protocol.decode_frame(b"\xff\xfe{}")


# -- request round-trips, one per job kind ----------------------------------


def test_check_request_round_trip():
    frame = protocol.check_request(
        "job-1",
        ["int main(void){return 0;}", ("a.c", "int main(void){return 1;}")],
        search=True,
        budget="paths=32",
    )
    request = protocol.validate_request(_round_trip(frame))
    assert request["op"] == "check"
    assert request["id"] == "job-1"
    assert request["sources"] == [
        ("<input:0>", "int main(void){return 0;}"),
        ("a.c", "int main(void){return 1;}"),
    ]
    assert request["search"] is True
    assert request["budget"].max_paths == 32
    assert request["options"] == DEFAULT_OPTIONS


def test_fuzz_request_round_trip():
    frame = protocol.fuzz_request("job-2", seed=7, count=50, inject="memory")
    request = protocol.validate_request(_round_trip(frame))
    assert request["op"] == "fuzz"
    assert request["seed"] == 7
    assert request["count"] == 50
    assert request["inject"] == "memory"
    none_frame = protocol.fuzz_request("job-3", inject=None)
    assert protocol.validate_request(_round_trip(none_frame))["inject"] is None


def test_search_request_round_trip():
    frame = protocol.search_request(
        "job-4",
        "int main(void){return 0;}",
        filename="prog.c",
        strategy="random",
        seed=99,
        budget="paths=8,seconds=2",
    )
    request = protocol.validate_request(_round_trip(frame))
    assert request["op"] == "search"
    assert request["filename"] == "prog.c"
    assert request["strategy"] == "random"
    assert request["seed"] == 99
    assert request["budget"].max_paths == 8
    assert request["budget"].max_seconds == 2.0


# -- options over the wire ---------------------------------------------------


def test_options_round_trip_defaults_are_compact():
    assert protocol.options_to_dict(DEFAULT_OPTIONS) == {"profile": "lp64"}
    assert protocol.options_from_dict(None) == DEFAULT_OPTIONS


def test_options_round_trip_non_default_fields():
    options = CheckerOptions(
        profile=ct.PROFILES["ilp32"],
        check_sequencing=False,
        max_steps=1234,
        evaluation_order="right-to-left",
    )
    data = protocol.options_to_dict(options)
    assert data["profile"] == "ilp32"
    assert data["check_sequencing"] is False
    assert protocol.options_from_dict(data) == options


#: Non-default values for the option fields that are neither bool nor int.
_ALTERNATE_VALUES = {
    # Not a registered profile, though it reuses the "lp64" name: it must
    # travel by its fields (the registered ones travel by name, above).
    "profile": ct.ImplementationProfile(sizeof_int=8),
    "engine": "walker",
    "evaluation_order": "search",
}


def _alternate(name):
    if name in _ALTERNATE_VALUES:
        return _ALTERNATE_VALUES[name]
    default = getattr(DEFAULT_OPTIONS, name)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    raise AssertionError(f"no non-default test value for option field {name!r}")


@pytest.mark.parametrize(
    "name", [field.name for field in dataclasses.fields(CheckerOptions)]
)
def test_every_option_field_survives_the_wire(name):
    # Walks the dataclass, so a field added later cannot be dropped on the
    # wire unnoticed.
    options = CheckerOptions(**{name: _alternate(name)})
    data = _round_trip(protocol.options_to_dict(options))
    assert protocol.options_from_dict(data) == options


@pytest.mark.parametrize(
    "data, match",
    [
        ({"profile": "pdp11"}, "unknown profile"),
        ({"profile": {"endian": "big"}}, "unknown profile field 'endian'"),
        ({"profile": {"sizeof_int": "8"}}, "must be an integer"),
        ({"frobnicate": True}, "unknown option field"),
        ({"check_memory": "yes"}, "must be a boolean"),
        ({"max_steps": True}, "must be an integer"),
        ({"evaluation_order": 3}, "must be a string"),
        ({"engine": "jit"}, "unknown engine 'jit'"),
        ("not-a-dict", "must be a JSON object"),
    ],
)
def test_options_validation_errors(data, match):
    with pytest.raises(ProtocolError, match=match):
        protocol.options_from_dict(data)


# -- request validation errors ----------------------------------------------


@pytest.mark.parametrize(
    "frame, match",
    [
        ({}, "needs a string 'op'"),
        ({"op": 7}, "needs a string 'op'"),
        ({"op": "frobnicate"}, "unknown op"),
        ({"op": "check", "sources": ["x"]}, "needs 'id'"),
        ({"op": "check", "id": "j", "sources": []}, "non-empty list"),
        ({"op": "check", "id": "j", "sources": [42]}, "sources\\[0\\]"),
        ({"op": "check", "id": "j", "sources": ["x"], "search": "y"}, "boolean"),
        ({"op": "fuzz", "id": "j", "count": -1}, "non-negative integer"),
        ({"op": "fuzz", "id": "j", "seed": "zero"}, "non-negative integer"),
        ({"op": "search", "id": "j"}, "needs 'source'"),
        ({"op": "search", "id": "j", "source": "x", "strategy": "omniscient"},
         "unknown search strategy"),
        ({"op": "check", "id": "j", "sources": ["x"], "budget": "paths=lots"},
         "bad budget value"),
        ({"op": "cancel"}, "needs 'id'"),
    ],
)
def test_validate_request_rejects_bad_frames(frame, match):
    with pytest.raises(ProtocolError, match=match):
        protocol.validate_request(frame)


def test_bad_request_errors_carry_the_right_code():
    try:
        protocol.validate_request({"op": "nope"})
    except ProtocolError as error:
        assert error.code == protocol.ERROR_BAD_REQUEST
    try:
        protocol.validate_request({})
    except ProtocolError as error:
        assert error.code == protocol.ERROR_PROTOCOL


# -- response frames ---------------------------------------------------------


def test_response_frame_shapes():
    assert protocol.done_frame("j", "ok")["status"] == "ok"
    assert "elapsed_seconds" not in protocol.done_frame("j", "ok")
    assert protocol.done_frame("j", "ok", elapsed_seconds=1.5)["elapsed_seconds"] == 1.5
    error = protocol.error_frame("boom", code="internal", job="j")
    assert (error["code"], error["job"]) == ("internal", "j")
    assert "job" not in protocol.error_frame("boom")
    progress = protocol.progress_frame("j", 3, 9)
    assert (progress["done"], progress["total"]) == (3, 9)
    hello = protocol.hello_frame(version="1.0", pool={"workers": 2})
    assert hello["protocol"] == protocol.PROTOCOL
