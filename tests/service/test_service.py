"""The checking service end to end: identity, concurrency, cancel, errors.

One background server (module fixture) serves every test; each test talks
to it with fresh client connections, exactly as concurrent users would.
"""

import json
import socket
import threading

import pytest

from repro.api.session import Checker
from repro.core.config import CheckerOptions
from repro.cfront import ctypes as ct
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.service.client import JobCancelled, ServiceClient, ServiceError
from repro.service.server import serve_in_background

PROGRAMS = [
    "int main(void) { return 0; }",
    "int main(void) { int x = 0; return 1 / x; }",
    "int main(void) { int i = 0; return i++ + i++; }",
    "int main(void) { int *p = 0; return *p; }",
    "int main(void) { int a[2] = {1, 2}; return a[1]; }",
]


@pytest.fixture(scope="module")
def endpoint():
    with serve_in_background(jobs=2) as running:
        yield running


@pytest.fixture(scope="module")
def expected_reports():
    return [report.to_dict() for report in Checker().check_many(PROGRAMS)]


def _raw_connection(endpoint):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60.0)
    sock.connect(endpoint[len("unix:") :])
    reader = sock.makefile("rb")
    hello = json.loads(reader.readline())
    assert hello["event"] == "hello"
    return sock, reader


def test_check_job_identical_to_direct_checker(endpoint, expected_reports):
    with ServiceClient(endpoint) as client:
        events = []
        reports = client.check(PROGRAMS, on_event=lambda f: events.append(f))
    assert reports == expected_reports
    assert events[0]["event"] == "accepted"
    assert events[0]["total"] == len(PROGRAMS)
    assert events[-1]["event"] == "progress"
    assert events[-1]["done"] == len(PROGRAMS)


def test_check_job_honors_options_profile(endpoint):
    source = "int main(void) { return sizeof(long) == 8; }"
    options = CheckerOptions(profile=ct.PROFILES["ilp32"])
    direct = Checker(options).check_many([source])[0].to_dict()
    with ServiceClient(endpoint) as client:
        via_service = client.check([source], options=options)[0]
    assert via_service == direct
    assert via_service != Checker().check_many([source])[0].to_dict()


def test_eight_concurrent_clients_get_identical_verdicts(endpoint, expected_reports):
    results: dict[int, object] = {}

    def drive(worker: int) -> None:
        try:
            with ServiceClient(endpoint) as client:
                results[worker] = client.check(PROGRAMS)
        except Exception as error:  # surfaced through the assertion below
            results[worker] = error

    threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert sorted(results) == list(range(8))
    for worker in range(8):
        assert results[worker] == expected_reports, f"client {worker} diverged"


def test_fuzz_job_matches_direct_campaign(endpoint):
    direct = run_campaign(CampaignConfig(seed=11, count=10, inject="mixed"))
    direct_dict = direct.to_dict()
    direct_dict.pop("timing")
    with ServiceClient(endpoint) as client:
        via_service = client.fuzz(seed=11, count=10, inject="mixed")
    via_service.pop("timing")
    assert via_service == direct_dict


def test_search_job_finds_order_dependent_ub(endpoint):
    source = "int main(void) { int i = 0; return (i = 1) + (i = 2); }"
    with ServiceClient(endpoint) as client:
        report = client.search(source, budget="paths=16")
    assert report["outcome"]["kind"] == "undefined"
    assert report["search"] is not None


def test_mid_job_cancellation_stops_between_chunks(endpoint):
    with ServiceClient(endpoint) as client:
        job = client.next_job_id()

        def on_event(frame):
            if frame.get("event") == "progress":
                client.cancel(job)

        with pytest.raises(JobCancelled) as caught:
            client.check(PROGRAMS * 12, job=job, on_event=on_event)
        assert len(caught.value.partial) < len(PROGRAMS) * 12
        # The connection survives a cancelled job.
        assert client.check([PROGRAMS[0]])[0]["outcome"]["kind"] == "defined"


def test_mid_job_fuzz_cancellation_stops_at_a_unit_boundary(endpoint):
    count = 40
    with ServiceClient(endpoint) as client:
        job = client.next_job_id()
        done = []

        def on_event(frame):
            if frame.get("event") == "progress":
                done.append(frame["done"])
                if len(done) == 1:
                    client.cancel(job)

        with pytest.raises(JobCancelled):
            client.fuzz(seed=11, count=count, job=job, on_event=on_event)
        assert done and done[-1] < count
        # The connection survives a cancelled fuzz job.
        assert client.ping() is True


def test_malformed_requests_get_error_frames(endpoint):
    sock, reader = _raw_connection(endpoint)
    try:
        probes = [
            (b"not json\n", "protocol", None),
            (b'{"op": "frobnicate"}\n', "bad-request", None),
            (b'{"op": "check", "id": "j1", "sources": []}\n', "bad-request", "j1"),
            (
                b'{"op": "check", "id": "j2", "sources": ["int main(void){}"], '
                b'"options": {"profile": "pdp11"}}\n',
                "bad-request",
                "j2",
            ),
            (b'{"op": "cancel", "id": "ghost"}\n', "bad-request", "ghost"),
        ]
        for line, code, job in probes:
            sock.sendall(line)
            frame = json.loads(reader.readline())
            assert frame["event"] == "error"
            assert frame["code"] == code
            assert frame.get("job") == job
        # Five bad frames later, the connection still serves good requests.
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline())["event"] == "pong"
    finally:
        sock.close()


def test_duplicate_job_id_is_rejected(endpoint):
    sock, reader = _raw_connection(endpoint)
    try:
        request = {"op": "check", "id": "dup", "sources": [PROGRAMS[0]] * 30}
        sock.sendall((json.dumps(request) + "\n").encode())
        sock.sendall((json.dumps(request) + "\n").encode())
        saw_duplicate_error = False
        while True:
            frame = json.loads(reader.readline())
            if frame["event"] == "error" and "already active" in frame["message"]:
                saw_duplicate_error = True
            if frame["event"] == "done":
                break
        assert saw_duplicate_error
    finally:
        sock.close()


def test_stats_and_ping(endpoint):
    with ServiceClient(endpoint) as client:
        assert client.ping() is True
        stats = client.stats()
    assert stats["connections"] >= 1
    assert stats["jobs_completed"] >= 1
    assert "workers" in stats["pool"]


def test_internal_job_failure_keeps_connection_alive(endpoint):
    # max_steps=0 is structurally valid but the engine rejects it at run
    # time — whatever the failure mode, the job must end in a clean frame
    # and leave the connection usable.
    with ServiceClient(endpoint) as client:
        options = CheckerOptions(max_steps=1)
        reports = client.check([PROGRAMS[0]], options=options)
        assert reports[0]["outcome"]["kind"] in ("inconclusive", "defined")
        assert client.check([PROGRAMS[0]])[0]["outcome"]["kind"] == "defined"


def test_client_rejects_bad_endpoint():
    with pytest.raises(ServiceError, match="bad endpoint"):
        ServiceClient("no-port-here")
    with pytest.raises(ServiceError, match="cannot connect"):
        ServiceClient("unix:/nonexistent/path.sock")
