"""Warm pool semantics against real worker subprocesses: results,
deadline kills, crash respawn+retry, and the worker-side cache stack."""

import os

import pytest

from repro.api.profiles import as_profile
from repro.pool import CRASH, OK, TIMEOUT, WorkerPool
from repro.serve.qos import DEFAULT_BUDGET
from repro.serve.workers import (
    REQUEST_CALL,
    WARMUP_CALL,
    compile_coalesced,
    compiled_fingerprint,
    execute_serve_request,
)

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="POSIX subprocess pool drills")

SOURCE = """\
#include <stdio.h>
int main(void) {
    int a[4]; int i; int sum = 0;
    for (i = 0; i < 4; i++) a[i] = i + 1;
    for (i = 0; i < 4; i++) sum += a[i];
    printf("sum=%d\\n", sum);
    return 0;
}
"""


def payload(**overrides):
    base = {"mode": "run", "name": "t", "source": SOURCE,
            "profile": "spatial", "opt": True, "input": b"",
            "entry": "main", "engine": None, "budget": DEFAULT_BUDGET,
            "store_dir": None}
    base.update(overrides)
    return base


class TestExecuteServeRequest:
    """The worker-side function, run in-process for speed."""

    def test_clean_run(self):
        result = execute_serve_request(payload())
        assert result["cli_exit"] == 0
        assert result["row"]["output"] == "sum=10\n"
        assert result["row"]["trap"] is None
        assert result["pid"] == os.getpid()

    def test_compile_error_maps_to_exit_4(self):
        result = execute_serve_request(payload(source="int main( {"))
        assert result["cli_exit"] == 4
        assert "compile error" in result["error"]

    def test_budget_exhaustion_traps_resource_limit(self):
        loop = "int main(void) { int x = 0; while (1) { x++; } return x; }"
        result = execute_serve_request(payload(source=loop, profile="none",
                                               budget=50_000))
        assert result["cli_exit"] == 5
        assert result["row"]["trap"]["kind"] == "resource_limit"

    def test_memory_cache_hit_on_repeat(self):
        first = execute_serve_request(payload())
        again = execute_serve_request(payload())
        assert first["row"]["cache"]["origin"] in ("compile", "memory")
        assert again["row"]["cache"]["origin"] == "memory"

    def test_compile_mode_skips_execution(self, tmp_path):
        result = execute_serve_request(payload(
            mode="compile", store_dir=str(tmp_path / "store")))
        assert result["cli_exit"] == 0
        assert len(result["row"]["key"]) == 64
        assert len(result["row"]["output"]) == 64  # the fingerprint


class TestCoalescedCompile:
    def test_no_store_compiles(self):
        compiled, origin, fingerprint = compile_coalesced(
            SOURCE, as_profile("spatial"))
        assert origin == "compile"
        assert fingerprint == compiled_fingerprint(compiled)
        assert len(fingerprint) == 64

    def test_store_roundtrip(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(str(tmp_path / "store"))
        profile = as_profile("spatial")
        cold, origin_cold, fp_cold = compile_coalesced(
            SOURCE, profile, store=store)
        warm, origin_warm, fp_warm = compile_coalesced(
            SOURCE, profile, store=store)
        assert (origin_cold, origin_warm) == ("compile", "store")
        # Both fingerprints are the store entry's payload digest, so
        # winner and loader agree byte-for-byte.
        assert fp_cold == fp_warm
        assert len(fp_cold) == 64


class TestWarmPool:
    def test_submit_resolves_ok(self):
        with WorkerPool(workers=1, warmup=WARMUP_CALL).start() as pool:
            outcome = pool.submit(REQUEST_CALL,
                                  (payload(),)).result(timeout=120)
            assert outcome.status == OK
            assert outcome.value["row"]["output"] == "sum=10\n"
            # The work ran in the worker subprocess, not in-process.
            assert outcome.value["pid"] != os.getpid()
            assert outcome.value["pid"] in pool.worker_pids()

    def test_concurrent_submissions_all_resolve(self):
        with WorkerPool(workers=2, warmup=WARMUP_CALL).start() as pool:
            futures = [pool.submit(REQUEST_CALL, (payload(name=f"r{n}"),))
                       for n in range(6)]
            outcomes = [f.result(timeout=240) for f in futures]
            assert all(o.status == OK for o in outcomes)
            outputs = {o.value["row"]["output"] for o in outcomes}
            assert outputs == {"sum=10\n"}

    def test_hang_resolves_timeout_and_respawns(self):
        with WorkerPool(workers=1, deadline=3.0,
                        warmup=WARMUP_CALL).start() as pool:
            hung = pool.submit(REQUEST_CALL, (payload(test_fault="hang"),))
            outcome = hung.result(timeout=60)
            assert outcome.status == TIMEOUT
            # The pool respawned the worker: the next request succeeds.
            healed = pool.submit(REQUEST_CALL,
                                 (payload(),)).result(timeout=120)
            assert healed.status == OK

    def test_worker_death_retries_then_crash(self):
        with WorkerPool(workers=1, warmup=WARMUP_CALL).start() as pool:
            # The fault rides the payload, so the retry dies too:
            # after the single infra retry the outcome is CRASH.
            outcome = pool.submit(
                REQUEST_CALL, (payload(test_fault="exit"),)).result(timeout=120)
            assert outcome.status == CRASH
            assert outcome.attempts == 2
            healed = pool.submit(REQUEST_CALL,
                                 (payload(),)).result(timeout=120)
            assert healed.status == OK

    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(workers=1, warmup=WARMUP_CALL).start()
        pool.close()
        from repro.pool import PoolClosed

        with pytest.raises(PoolClosed):
            pool.submit(REQUEST_CALL, (payload(),))
