"""The checking-service wire protocol: newline-delimited JSON frames.

One frame per line, UTF-8 JSON objects.  Client-to-server frames carry an
``op``; server-to-client frames carry an ``event``.  Every job-bearing
request names a client-chosen job ``id`` (unique per connection), and every
frame the server emits about that job echoes it back as ``job``, so one
connection can multiplex any number of concurrent jobs.

Request vocabulary (``op``):

=========  ================================================================
``check``  ``sources`` (list of ``[filename, source]`` pairs or bare
           strings), optional ``options``, ``search`` (bool), ``budget``
           (a ``paths=256,seconds=5`` spec used when ``search`` is true).
``fuzz``   ``seed``, ``count``, ``inject``, optional ``options``.
``search`` ``source``, optional ``filename``, ``strategy``, ``budget``,
           ``seed``, ``options`` — full evaluation-order search of one
           program.
``unit``   ``spec`` (a campaign spec dict) plus ``unit`` (one work-unit
           dict): execute one relocatable campaign work unit and return
           its result — the primitive remote campaign schedulers dispatch.
``campaign`` ``spec`` only: partition and run a whole campaign on the
           service, streaming ``campaign-progress`` aggregate snapshots.
``cancel`` ``id`` of the job to cancel.
``ping``   liveness round-trip.
``stats``  server counters plus warm-pool state.
=========  ================================================================

Response vocabulary (``event``): ``hello`` (sent once on connect),
``accepted``, ``progress`` (``done``/``total``), ``report`` (one
``CheckReport.to_dict()`` per checked program, with its input ``index``),
``result`` (a fuzz campaign's ``CampaignResult.to_dict()``, a work unit's
result dict, or a campaign's canonical aggregate), ``campaign-progress``
(an incremental aggregate snapshot — the live results plane), ``done``
(terminal; ``status`` is ``ok`` / ``error`` / ``cancelled``), ``error``
(malformed or failed requests; ``code`` plus ``message``), ``pong``,
``stats``.  Report and result payloads reuse the established ``to_dict()``
vocabulary unchanged — a service consumer parses exactly what
``kcc-check --format json`` prints.

Every frame is validated on receipt; a malformed line yields an ``error``
frame (``code="protocol"``) instead of a dropped connection, so one bad
request cannot take down the stream of a well-formed concurrent job.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterable, Optional

from repro.cfront import ctypes as ct
from repro.core.config import ENGINES, CheckerOptions, DEFAULT_OPTIONS

#: Protocol identifier, announced in the ``hello`` frame.
PROTOCOL = "repro.service/1"

#: Ops that start a job (carry an ``id``, end with a ``done`` frame).
JOB_OPS = ("check", "fuzz", "search", "unit", "campaign")
#: Ops answered inline with a single frame.
CONTROL_OPS = ("cancel", "ping", "stats")

#: Terminal job statuses (the ``status`` field of a ``done`` frame).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CANCELLED = "cancelled"

#: ``error`` frame codes.
ERROR_PROTOCOL = "protocol"  # unparseable or structurally invalid frame
ERROR_BAD_REQUEST = "bad-request"  # well-formed frame, bad contents
ERROR_INTERNAL = "internal"  # the job itself raised

_MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """A frame violated the protocol; ``code`` picks the error-frame code."""

    def __init__(self, message: str, *, code: str = ERROR_PROTOCOL) -> None:
        super().__init__(message)
        self.code = code


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One frame as a newline-terminated JSON line."""
    line = json.dumps(frame, separators=(",", ":"), sort_keys=True)
    return (line + "\n").encode("utf-8")


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one line into a frame dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        if len(line) > _MAX_FRAME_BYTES:
            raise ProtocolError("frame exceeds the 64 MiB limit")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"frame is not UTF-8: {error}") from None
    try:
        frame = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be an object, got {type(frame).__name__}")
    return frame


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------


def _bad(message: str) -> ProtocolError:
    return ProtocolError(message, code=ERROR_BAD_REQUEST)


def _require_str(frame: dict[str, Any], field: str, what: str) -> str:
    value = frame.get(field)
    if not isinstance(value, str):
        raise _bad(f"{frame.get('op', '?')!r} request needs {field!r} ({what})")
    return value


def normalize_sources(raw: Any) -> list[tuple[str, str]]:
    """Validate a ``check`` request's program list into (filename, source)."""
    if not isinstance(raw, list) or not raw:
        raise _bad("'check' request needs 'sources' (a non-empty list)")
    pairs: list[tuple[str, str]] = []
    for index, item in enumerate(raw):
        if isinstance(item, str):
            pairs.append((f"<input:{index}>", item))
        elif (
            isinstance(item, (list, tuple))
            and len(item) == 2
            and all(isinstance(part, str) for part in item)
        ):
            pairs.append((item[0], item[1]))
        else:
            raise _bad(
                f"sources[{index}] must be a source string "
                "or a [filename, source] pair",
            )
    return pairs


def _validate_check(frame: dict[str, Any], request: dict[str, Any]) -> None:
    request["sources"] = normalize_sources(frame.get("sources"))
    search = frame.get("search", False)
    if not isinstance(search, bool):
        raise _bad("'check' field 'search' must be a boolean")
    request["search"] = search


def _validate_fuzz(frame: dict[str, Any], request: dict[str, Any]) -> None:
    for field, default in (("seed", 0), ("count", 100)):
        value = frame.get(field, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise _bad(f"'fuzz' field {field!r} must be a non-negative integer")
        request[field] = value
    inject = frame.get("inject", "mixed")
    if inject is not None and not isinstance(inject, str):
        raise _bad("'fuzz' field 'inject' must be a string or null")
    request["inject"] = None if inject in (None, "none", "") else inject


def _validate_search(frame: dict[str, Any], request: dict[str, Any]) -> None:
    _require_str(frame, "source", "the program text")
    request.setdefault("filename", "<input>")
    if not isinstance(request["filename"], str):
        raise _bad("'search' field 'filename' must be a string")
    strategy = frame.get("strategy", "dfs")
    if strategy not in ("dfs", "bfs", "random"):
        raise _bad(f"unknown search strategy {strategy!r}")
    request["strategy"] = strategy
    seed = frame.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _bad("'search' field 'seed' must be an integer")
    request["seed"] = seed


def _validate_unit(frame: dict[str, Any], request: dict[str, Any]) -> None:
    # Lazy import: protocol is a leaf module; the campaign layer imports it.
    from repro.campaign.workunit import CampaignSpec, WorkUnit

    try:
        spec = CampaignSpec.from_dict(frame.get("spec"))
    except ValueError as error:
        raise _bad(f"'unit' field 'spec' is invalid: {error}") from None
    try:
        unit = WorkUnit.from_dict(frame.get("unit"))
    except ValueError as error:
        raise _bad(f"'unit' field 'unit' is invalid: {error}") from None
    if unit.spec_digest != spec.digest():
        raise _bad(
            f"unit {unit.unit_id} does not belong to the request's campaign "
            f"spec ({unit.spec_digest[:12]} vs {spec.digest()[:12]})"
        )
    request["spec"] = spec.to_dict()
    request["unit"] = unit.to_dict()
    request["options_dict"] = frame.get("options")


def _validate_campaign(frame: dict[str, Any], request: dict[str, Any]) -> None:
    from repro.campaign.workunit import CampaignSpec

    try:
        spec = CampaignSpec.from_dict(frame.get("spec"))
    except ValueError as error:
        raise _bad(f"'campaign' field 'spec' is invalid: {error}") from None
    request["spec"] = spec.to_dict()
    request["options_dict"] = frame.get("options")


def validate_request(frame: dict[str, Any]) -> dict[str, Any]:
    """Check a request frame's shape; returns it with defaults filled in.

    Raises :class:`ProtocolError` with ``code="bad-request"`` for a frame
    that parses but cannot be executed (unknown op, missing or wrongly
    typed fields, unknown option or profile names).  Payload-bearing fields
    are normalized in place — ``sources`` into pairs, ``options`` into
    :class:`CheckerOptions`, ``budget`` into a ``SearchBudget`` — so the
    server executes exactly what validation approved.
    """
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request frame needs a string 'op'")
    if op not in JOB_OPS and op not in CONTROL_OPS:
        known = ", ".join(JOB_OPS + CONTROL_OPS)
        raise _bad(f"unknown op {op!r}; expected one of {known}")
    request = dict(frame)
    if op in JOB_OPS or op == "cancel":
        _require_str(frame, "id", "a client-chosen job id string")
    if op in JOB_OPS:
        request["options"] = options_from_dict(frame.get("options"))
    if op == "check":
        _validate_check(frame, request)
    elif op == "fuzz":
        _validate_fuzz(frame, request)
    elif op == "search":
        _validate_search(frame, request)
    elif op == "unit":
        _validate_unit(frame, request)
    elif op == "campaign":
        _validate_campaign(frame, request)
    if frame.get("budget") is not None:
        from repro.kframework.search import SearchBudget

        if not isinstance(frame["budget"], str):
            raise _bad("'budget' must be a spec string like 'paths=256,seconds=5'")
        try:
            request["budget"] = SearchBudget.parse(frame["budget"])
        except ValueError as error:
            raise _bad(str(error)) from None
    else:
        request["budget"] = None
    return request


# ---------------------------------------------------------------------------
# CheckerOptions over the wire
# ---------------------------------------------------------------------------

def _wire_types(cls: type) -> dict[str, type]:
    """Each scalar field of dataclass ``cls`` with its type (its default's)."""
    return {
        field.name: type(field.default)
        for field in dataclasses.fields(cls)
        if field.default is not dataclasses.MISSING
    }


#: Option fields a client may set, and the fields of a profile sent as an
#: object, each with its expected scalar type.
_OPTION_FIELDS = _wire_types(CheckerOptions)
_PROFILE_FIELDS = _wire_types(ct.ImplementationProfile)
_TYPE_NAMES = {bool: "a boolean", int: "an integer", str: "a string"}


def _scalars_from_wire(
    data: dict[str, Any], types: dict[str, type], what: str
) -> dict[str, Any]:
    """Check every field of ``data`` against ``types``; return ``data``."""
    for key, value in data.items():
        expected = types.get(key)
        if expected is None:
            raise _bad(f"unknown {what} field {key!r}")
        if type(value) is not expected:  # exact: a JSON bool is no integer
            raise _bad(f"{what} {key!r} must be {_TYPE_NAMES[expected]}")
    return data


def _profile_from_wire(value: Any) -> ct.ImplementationProfile:
    if isinstance(value, dict):
        fields = _scalars_from_wire(value, _PROFILE_FIELDS, "profile")
        return ct.ImplementationProfile(**fields)
    if value not in ct.PROFILES:
        known = ", ".join(sorted(ct.PROFILES))
        raise _bad(f"unknown profile {value!r}; expected one of {known}")
    return ct.PROFILES[value]


def options_to_dict(options: CheckerOptions) -> dict[str, Any]:
    """Serialize options for a request frame: only non-default fields.

    A registered profile travels by name; any other profile (a custom one,
    or one that merely reuses a registered name) travels as its fields.
    """
    profile = options.profile
    registered = ct.PROFILES.get(profile.name) == profile
    data: dict[str, Any] = {
        "profile": profile.name if registered else dataclasses.asdict(profile)
    }
    for field in _OPTION_FIELDS:
        value = getattr(options, field)
        if value != getattr(DEFAULT_OPTIONS, field):
            data[field] = value
    return data


def options_from_dict(data: Optional[dict[str, Any]]) -> CheckerOptions:
    """Rebuild :class:`CheckerOptions` from a request frame's dict form."""
    if data is None:
        return DEFAULT_OPTIONS
    if not isinstance(data, dict):
        raise _bad("'options' must be a JSON object")
    fields = dict(data)
    profile = fields.pop("profile", DEFAULT_OPTIONS.profile.name)
    _scalars_from_wire(fields, _OPTION_FIELDS, "option")
    if fields.get("engine", DEFAULT_OPTIONS.engine) not in ENGINES:
        known = ", ".join(ENGINES)
        raise _bad(f"unknown engine {fields['engine']!r}; expected one of {known}")
    fields["profile"] = _profile_from_wire(profile)
    return CheckerOptions(**fields)


# ---------------------------------------------------------------------------
# Response frame constructors (one place decides the field names)
# ---------------------------------------------------------------------------


def hello_frame(*, version: str, pool: dict[str, Any]) -> dict[str, Any]:
    return {"event": "hello", "protocol": PROTOCOL, "version": version, "pool": pool}


def accepted_frame(job: str, op: str, total: int) -> dict[str, Any]:
    return {"event": "accepted", "job": job, "op": op, "total": total}


def progress_frame(job: str, done: int, total: int) -> dict[str, Any]:
    return {"event": "progress", "job": job, "done": done, "total": total}


def report_frame(job: str, index: int, report: dict[str, Any]) -> dict[str, Any]:
    return {"event": "report", "job": job, "index": index, "report": report}


def result_frame(job: str, result: dict[str, Any]) -> dict[str, Any]:
    return {"event": "result", "job": job, "result": result}


def campaign_progress_frame(job: str, snapshot: dict[str, Any]) -> dict[str, Any]:
    """One incremental aggregate snapshot — the live results plane."""
    return {"event": "campaign-progress", "job": job, "snapshot": snapshot}


def done_frame(
    job: str,
    status: str,
    *,
    elapsed_seconds: Optional[float] = None,
) -> dict[str, Any]:
    frame: dict[str, Any] = {"event": "done", "job": job, "status": status}
    if elapsed_seconds is not None:
        frame["elapsed_seconds"] = round(elapsed_seconds, 6)
    return frame


def error_frame(
    message: str,
    *,
    code: str = ERROR_BAD_REQUEST,
    job: Optional[str] = None,
) -> dict[str, Any]:
    frame: dict[str, Any] = {"event": "error", "code": code, "message": message}
    if job is not None:
        frame["job"] = job
    return frame


# ---------------------------------------------------------------------------
# Request frame constructors (the client side of the same vocabulary)
# ---------------------------------------------------------------------------


def check_request(
    job: str,
    sources: Iterable[Any],
    *,
    options: Optional[CheckerOptions] = None,
    search: bool = False,
    budget: Optional[str] = None,
) -> dict[str, Any]:
    """The client-side constructor for a ``check`` request frame."""
    listed = [item if isinstance(item, str) else list(item) for item in sources]
    frame: dict[str, Any] = {
        "op": "check",
        "id": job,
        "sources": listed,
        "search": search,
    }
    if options is not None:
        frame["options"] = options_to_dict(options)
    if budget is not None:
        frame["budget"] = budget
    return frame


def fuzz_request(
    job: str,
    *,
    seed: int = 0,
    count: int = 100,
    inject: Optional[str] = "mixed",
    options: Optional[CheckerOptions] = None,
) -> dict[str, Any]:
    frame: dict[str, Any] = {
        "op": "fuzz",
        "id": job,
        "seed": seed,
        "count": count,
        "inject": inject,
    }
    if options is not None:
        frame["options"] = options_to_dict(options)
    return frame


def search_request(
    job: str,
    source: str,
    *,
    filename: str = "<input>",
    strategy: str = "dfs",
    seed: int = 0,
    budget: Optional[str] = None,
    options: Optional[CheckerOptions] = None,
) -> dict[str, Any]:
    frame: dict[str, Any] = {
        "op": "search",
        "id": job,
        "source": source,
        "filename": filename,
        "strategy": strategy,
        "seed": seed,
    }
    if budget is not None:
        frame["budget"] = budget
    if options is not None:
        frame["options"] = options_to_dict(options)
    return frame


def unit_request(
    job: str,
    spec: dict[str, Any],
    unit: dict[str, Any],
    *,
    options: Optional[CheckerOptions] = None,
) -> dict[str, Any]:
    """Execute one campaign work unit remotely."""
    frame: dict[str, Any] = {"op": "unit", "id": job, "spec": spec, "unit": unit}
    if options is not None:
        frame["options"] = options_to_dict(options)
    return frame


def campaign_request(
    job: str,
    spec: dict[str, Any],
    *,
    options: Optional[CheckerOptions] = None,
) -> dict[str, Any]:
    """Run a whole campaign on the service (progress streamed)."""
    frame: dict[str, Any] = {"op": "campaign", "id": job, "spec": spec}
    if options is not None:
        frame["options"] = options_to_dict(options)
    return frame


__all__ = [
    "CONTROL_OPS",
    "ERROR_BAD_REQUEST",
    "ERROR_INTERNAL",
    "ERROR_PROTOCOL",
    "JOB_OPS",
    "PROTOCOL",
    "STATUS_CANCELLED",
    "STATUS_ERROR",
    "STATUS_OK",
    "ProtocolError",
    "accepted_frame",
    "campaign_progress_frame",
    "campaign_request",
    "check_request",
    "decode_frame",
    "done_frame",
    "encode_frame",
    "error_frame",
    "fuzz_request",
    "hello_frame",
    "normalize_sources",
    "options_from_dict",
    "options_to_dict",
    "progress_frame",
    "report_frame",
    "result_frame",
    "search_request",
    "unit_request",
    "validate_request",
]
