"""HTTP front-end: request validation, the status mapping, and one
in-process daemon drill for routing/introspection endpoints."""

import asyncio
import concurrent.futures
import json
import os
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.api import UsageError
from repro.obs.trace import disable_tracing, enable_tracing
from repro.serve.qos import DEFAULT_BUDGET, QosPolicy
from repro.serve.server import (
    OUTCOME_FOR_EXIT,
    STATUS_FOR_EXIT,
    ServeDaemon,
    validate_request,
)
from repro.pool import ERROR, Outcome, PoolClosed

SOURCE = "int main(void) { return 0; }"


class TestStatusMapping:
    def test_every_cli_exit_code_has_a_status(self):
        assert STATUS_FOR_EXIT == {0: 200, 2: 403, 3: 403, 4: 422,
                                   5: 500, 64: 400}
        assert set(OUTCOME_FOR_EXIT) == set(STATUS_FOR_EXIT)


class TestValidateRequest:
    def test_minimal_run_request(self):
        payload = validate_request({"source": SOURCE})
        assert payload["profile"] == "none"
        assert payload["budget"] == DEFAULT_BUDGET
        assert payload["input"] == b""
        assert payload["mode"] == "run"

    def test_unknown_field_rejected(self):
        with pytest.raises(UsageError, match="profle"):
            validate_request({"source": SOURCE, "profle": "spatial"})

    def test_unknown_profile_rejected(self):
        with pytest.raises(UsageError, match="registered"):
            validate_request({"source": SOURCE, "profile": "bogus"})

    def test_source_required(self):
        with pytest.raises(UsageError, match="source"):
            validate_request({"profile": "spatial"})
        with pytest.raises(UsageError, match="source"):
            validate_request({"source": "   "})

    def test_non_object_body_rejected(self):
        with pytest.raises(UsageError, match="JSON object"):
            validate_request([1, 2, 3])

    def test_check_route_selects_profile(self):
        assert validate_request({"source": SOURCE},
                                route="/check")["profile"] == "spatial"
        assert validate_request({"source": SOURCE, "temporal": True},
                                route="/check")["profile"] == "temporal"

    def test_check_route_rejects_explicit_profile(self):
        with pytest.raises(UsageError, match="/check"):
            validate_request({"source": SOURCE, "profile": "full"},
                             route="/check")

    def test_temporal_field_is_check_only(self):
        with pytest.raises(UsageError, match="temporal"):
            validate_request({"source": SOURCE, "temporal": True})

    def test_compile_route_sets_mode(self):
        payload = validate_request({"source": SOURCE, "profile": "full"},
                                   route="/compile")
        assert payload["mode"] == "compile"

    def test_input_utf8(self):
        payload = validate_request({"source": SOURCE, "input": "hi\n"})
        assert payload["input"] == b"hi\n"

    def test_input_b64(self):
        payload = validate_request({"source": SOURCE,
                                    "input_b64": "AAEC"})
        assert payload["input"] == b"\x00\x01\x02"

    def test_input_b64_invalid(self):
        with pytest.raises(UsageError, match="base64"):
            validate_request({"source": SOURCE, "input_b64": "!!!"})

    def test_input_and_b64_conflict(self):
        with pytest.raises(UsageError, match="not both"):
            validate_request({"source": SOURCE, "input": "x",
                              "input_b64": "eA=="})

    def test_budget_validated_through_qos(self):
        qos = QosPolicy(max_budget=100)
        assert validate_request({"source": SOURCE, "budget": 50},
                                qos=qos)["budget"] == 50
        with pytest.raises(UsageError, match="ceiling"):
            validate_request({"source": SOURCE, "budget": 101}, qos=qos)

    def test_engine_validated(self):
        payload = validate_request({"source": SOURCE, "engine": "interp"})
        assert payload["engine"] == "interp"
        with pytest.raises(UsageError, match="engine"):
            validate_request({"source": SOURCE, "engine": "jit"})

    def test_test_fault_gated_behind_flag(self):
        with pytest.raises(UsageError, match="allow-test-faults"):
            validate_request({"source": SOURCE, "test_fault": "hang"})
        payload = validate_request({"source": SOURCE,
                                    "test_fault": "hang"},
                                   allow_test_faults=True)
        assert payload["test_fault"] == "hang"
        with pytest.raises(UsageError, match="test_fault"):
            validate_request({"source": SOURCE, "test_fault": "fire"},
                             allow_test_faults=True)


class _ClosingPool:
    """Stands in for WorkerPool: the first submit fails as a draining pool
    does, later ones resolve at once to a worker-error outcome."""

    queue_depth = 0

    def __init__(self):
        self.submits = 0

    def submit(self, call, args):
        self.submits += 1
        if self.submits == 1:
            raise PoolClosed("worker pool is closed")
        future = concurrent.futures.Future()
        future.set_result(Outcome(ERROR, error="boom"))
        return future


class TestRequestSpan:
    def test_failed_submit_does_not_parent_later_requests(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        daemon = ServeDaemon()
        daemon.pool = _ClosingPool()
        payload = validate_request({"source": SOURCE})
        enable_tracing(sink)
        try:
            with pytest.raises(PoolClosed):
                asyncio.run(daemon._execute("/run", payload))
            status, _, _ = asyncio.run(daemon._execute("/run", payload))
        finally:
            disable_tracing()
        assert status == 500
        spans = [json.loads(line) for line in sink.read_text().splitlines()]
        requests = [span for span in spans if span["name"] == "serve.request"]
        assert len(requests) == 2
        assert requests[0]["attrs"]["error"] == "PoolClosed"
        assert "parent" not in requests[1]
        assert requests[1]["attrs"]["outcome"] == "error"


@pytest.mark.skipif(os.name != "posix",
                    reason="POSIX daemon integration drill")
class TestDaemonEndToEnd:
    """One shared in-process daemon; the heavier chaos drills live in
    the serve-smoke CI leg (scripts/ci.py --serve-smoke)."""

    @pytest.fixture(scope="class")
    def daemon(self, tmp_path_factory):
        from repro.api.env import resolve_serve
        from repro.serve.server import BackgroundDaemon

        store = str(tmp_path_factory.mktemp("serve-store"))
        config = resolve_serve(host="127.0.0.1", port=0, workers=2,
                               queue=8)
        with BackgroundDaemon(config=config, store_dir=store) as running:
            yield running

    def _post(self, daemon, path, doc):
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.port}{path}",
            data=json.dumps(doc).encode(), method="POST")
        try:
            with urllib.request.urlopen(request, timeout=120) as resp:
                return resp.status, json.loads(resp.read()), \
                    dict(resp.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), \
                dict(error.headers)

    def _get(self, daemon, path):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{daemon.port}{path}",
                timeout=30) as resp:
            return resp.status, json.loads(resp.read())

    def test_run_report_matches_api(self, daemon):
        source = ('#include <stdio.h>\n'
                  'int main(void) { printf("hello\\n"); return 7; }')
        status, row, headers = self._post(daemon, "/run",
                                          {"source": source,
                                           "profile": "spatial",
                                           "name": "hello"})
        assert status == 200
        assert headers["X-Repro-Exit-Code"] == "7"
        assert row["output"] == "hello\n"
        from repro.api import run_source

        report = run_source(source, profile="spatial",
                            name="hello").to_json()
        for noisy in ("wallclock_seconds", "cache", "obs", "output"):
            row.pop(noisy, None)
            report.pop(noisy, None)
        assert row == report

    def test_detection_is_403(self, daemon):
        status, row, headers = self._post(
            daemon, "/check",
            {"source": "int main(void) { int a[2]; a[5] = 1; return 0; }"})
        assert status == 403
        assert row["trap"]["kind"] == "spatial_violation"
        assert headers["X-Repro-Exit-Code"] == "2"

    def test_malformed_json_is_400(self, daemon):
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.port}/run", data=b"{oops",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_negative_content_length_is_400(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=30) as conn:
            conn.sendall(b"POST /run HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Length: -1\r\n\r\n")
            conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "negative" in json.loads(body)["error"]

    def _raw(self, daemon, request, shutdown=True):
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=30) as conn:
            conn.sendall(request)
            if shutdown:
                conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return head, json.loads(body)

    def test_too_many_headers_is_431(self, daemon):
        from repro.serve.server import MAX_HEADERS

        filler = b"".join(b"X-Filler-%d: x\r\n" % i
                          for i in range(MAX_HEADERS + 1))
        head, body = self._raw(
            daemon, b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n")
        assert head.startswith(b"HTTP/1.1 431 ")
        assert str(MAX_HEADERS) in body["error"]
        # Exactly the limit is still a request.
        filler = b"".join(b"X-Filler-%d: x\r\n" % i
                          for i in range(MAX_HEADERS - 1))
        head, _ = self._raw(
            daemon, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + filler
            + b"\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")

    @pytest.mark.parametrize("request_bytes", [
        b"GET /heal",                                    # request line
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n",        # headers
        b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\n{",  # body
    ], ids=["request-line", "headers", "body"])
    def test_silent_client_is_408(self, daemon, monkeypatch, request_bytes):
        import repro.serve.server as server

        monkeypatch.setattr(server, "READ_TIMEOUT_SECONDS", 0.3)
        start = time.monotonic()
        head, body = self._raw(daemon, request_bytes, shutdown=False)
        assert head.startswith(b"HTTP/1.1 408 ")
        assert "0.3 s" in body["error"]
        assert time.monotonic() - start < 20

    def test_unknown_path_404_and_bad_method_405(self, daemon):
        status, body, _ = self._post(daemon, "/nope", {"source": SOURCE})
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{daemon.port}/run", timeout=30)
        assert excinfo.value.code == 405

    def test_healthz(self, daemon):
        status, health = self._get(daemon, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert len(health["worker_pids"]) == 2
        assert health["queue_limit"] == 8
        assert "spatial" in health["profiles"]

    def test_metrics_counts_requests(self, daemon):
        self._post(daemon, "/run", {"source": SOURCE, "profile": "none"})
        status, metrics = self._get(daemon, "/metrics")
        assert status == 200
        series = metrics["series"]
        assert series.get("repro_serve_requests_total{outcome=ok}", 0) >= 1
        assert series.get("repro_serve_request_seconds_count", 0) >= 1
        assert "request_seconds_p50" in metrics["derived"]
        assert "request_seconds_p99" in metrics["derived"]

    def test_store_shared_across_workers(self, daemon):
        doc = {"source": "int main(void) { return 41; }",
               "profile": "full"}
        origins = []
        for _ in range(4):
            _, row, _ = self._post(daemon, "/run", doc)
            origins.append(row["cache"]["origin"])
        assert origins[0] == "compile"
        assert set(origins[1:]) <= {"memory", "store"}
