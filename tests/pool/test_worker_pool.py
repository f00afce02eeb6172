"""`repro.pool.WorkerPool` lifecycle: close() must settle everything it
leaves behind and spawn nothing after it."""

import os
import sys
import threading
import time

import pytest

from repro.pool import PoolClosed, WorkerPool

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="POSIX subprocess pool drills")

HANG = "repro.harness.faults:hang"
ECHO = "repro.harness.faults:echo"


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split()[2] != "Z"
    except OSError:
        return False


class TestClose:
    def test_close_settles_inflight_and_queued_without_respawn(self):
        pool = WorkerPool(workers=1, deadline=60).start()
        hung = pool.submit(HANG, (3600.0,))
        queued = pool.submit(ECHO, ("never",))
        time.sleep(2)
        (pid,) = pool.worker_pids()
        spawns = pool.spawns
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 4
        for future in (hung, queued):
            assert isinstance(future.exception(timeout=5), PoolClosed)
        assert pool.spawns == spawns
        assert pool.worker_pids() == []
        assert not _alive(pid)

    def test_pool_closed_is_a_runtime_error(self):
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(ECHO, (1,))

    def test_close_before_start_spawns_nothing(self):
        pool = WorkerPool(workers=2)
        pool.close()
        assert pool.spawns == 0
        assert pool.run([]) == []


class TestQueueDepth:
    def test_only_work_beyond_the_workers_counts_as_queued(self):
        # Admission control sheds on queue_depth; two near-simultaneous
        # submits to two idle workers must not see each other as queued,
        # however fast the drain threads happen to pick them up.
        with WorkerPool(workers=2, deadline=60).start() as pool:
            pool.submit(HANG, (3600.0,))
            pool.submit(HANG, (3600.0,))
            assert pool.queue_depth == 0
            pool.submit(ECHO, ("behind",))
            assert pool.queue_depth == 1


class TestStress:
    def test_concurrent_submitters_get_their_own_results(self):
        # More workers than cores, several submitting threads and a short
        # switch interval: every future gets its own task's value, and the
        # shared bookkeeping settles back to idle.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(workers=4, deadline=60).start() as pool:
                futures = {}

                def submitter(base):
                    for value in range(base, base + 25):
                        futures[value] = pool.submit(ECHO, (value,))

                threads = [threading.Thread(target=submitter, args=(base,))
                           for base in (0, 100, 200, 300)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for value, future in futures.items():
                    outcome = future.result(timeout=60)
                    assert (outcome.status, outcome.value,
                            outcome.attempts) == ("ok", value, 1)
                deadline = time.monotonic() + 5
                while pool.inflight and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert (pool.inflight, pool.queue_depth) == (0, 0)
                assert (pool.spawns, pool.respawns) == (4, 0)
        finally:
            sys.setswitchinterval(interval)


class TestReplyBoundary:
    def test_reply_the_parent_cannot_unpickle_is_an_error(self):
        # The worker returns a function of its own __main__ module, which
        # pickles by reference and cannot be found in this process.
        with WorkerPool(workers=1, deadline=60) as pool:
            (outcome,) = pool.run([("repro.pool:resolve",
                                    ("__main__:_transferable",))])
            assert outcome.status == "error"
            assert isinstance(outcome.error, AttributeError)
            (healthy,) = pool.run([(ECHO, ("alive",))])
            assert healthy.value == "alive"
