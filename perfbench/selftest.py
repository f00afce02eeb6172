"""The benchmark's own tests.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Each test runs ``perfbench/run.py`` as a subprocess with short runs
(``--seconds 1`` still measures one whole lap, two when traced), so the
file takes a few minutes.  It checks that:

* an operation checked against a deliberately wrong expectation is
  counted as failed (negative control), on every workload, in-process;
* every count metric and both ``cost_ratio.*`` repeat exactly for one
  seed, and two seeds give different inputs but the same metric names;
* each workload's traced run shows the layer the workload was designed
  to stress (``vm.run`` on exec-corpus, compile + instantiate on
  check-stream, no compile on serve-warm), with no failed operation;
* the benchmark refuses to run, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

import copy
import dataclasses
import functools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
WORKLOADS = ("exec-corpus", "check-stream", "serve-warm")
SECONDS = "1"
#: Counts that depend on which serve worker took which request: the
#: split between a worker's memory cache and the shared store.
SCHEDULING_DEPENDENT = {
    "serve-warm": {"serve.origin.memory", "serve.origin.store",
                   "store.hits"},
}
#: The static busy layers making up a compile.
COMPILE_LAYERS = ("frontend.parse", "frontend.typecheck", "lower",
                  "opt.optimize", "softbound.instrument",
                  "opt.post_optimize")


@functools.lru_cache(maxsize=None)
def bench(workload, seed, trace, repeat=0):
    """One run's parsed result line; ``repeat`` > 0 asks for another
    run of the same arguments."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS,
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(result):
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def exact_metrics(workload):
    names = {m["name"] for m in spec()["per_layer"]
             if m["unit"] == "count"}
    names |= {"opt.checks_removed_ratio", "cost_ratio.spatial-O1",
              "cost_ratio.full-O2"}
    return names - SCHEDULING_DEPENDENT.get(workload, set())


def _failed_after(bench_run, key, action):
    """Failed ops of ``bench_run`` once it has attempted ``action``."""
    bench_run.attempt(0, key, action)
    return bench_run.failed_ops


def test_negative_control_counts_as_failed():
    """One op per check, first against the right reference, then against
    a deliberately wrong one, which must count as failed."""
    import check_stream
    import exec_corpus
    import serve_warm
    from measure import Run
    from repro.api import Toolchain, as_profile
    from repro.serve.loadgen import build_mix
    from repro.store import ArtifactStore
    from repro.workloads.programs import all_workloads
    from spans import StageCounts

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as workdir:
        run = Run(seed=7, seconds=1, trace=False, workdir=workdir)

        workload = min(all_workloads(), key=lambda w: len(w.source))
        compiled = Toolchain(profile="none", optimize=1).compile(
            workload.source)
        for expected_exit, failed in ((workload.expected_exit, 0),
                                      (workload.expected_exit + 1, 1)):
            target = dataclasses.replace(workload,
                                         expected_exit=expected_exit)
            assert _failed_after(run, (workload.name, "none-O1"),
                                 functools.partial(
                exec_corpus._one_op, run, 0, target, "none-O1",
                as_profile("none"), compiled, {}, {})) == failed

        rng = random.Random(7)
        clean = check_stream.Slot(rng, "clean")
        clean.compute_reference()
        spatial = check_stream.Slot(rng, "spatial")
        wrong_clean = copy.copy(clean)
        wrong_clean.reference = (clean.reference[0] + 1, clean.reference[1])
        wrong_spatial = copy.copy(spatial)
        wrong_spatial.expected_class = "use_after_free"
        store = ArtifactStore(os.path.join(workdir, "store"))
        for slot, failed in ((clean, 1), (spatial, 1), (wrong_clean, 2),
                             (wrong_spatial, 3)):
            assert _failed_after(run, slot, functools.partial(
                check_stream._one_op, run, 0, slot, store, StageCounts(),
                {"hits": 0, "misses": 0}, {})) == failed, slot.name

        # A shell's background job starts with SIGINT ignored, and the
        # daemon would inherit that; its graceful stop is a SIGINT.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        daemon = serve_warm.Daemon(str(ROOT), workdir, 0)
        try:
            item = next(i for i in build_mix(seed=7)
                        if i.category == "server")
            wrong = dataclasses.replace(item, expect_status=(599,))
            for target, failed in ((item, 3), (wrong, 4)):
                assert _failed_after(run, target.name, functools.partial(
                    serve_warm._one_request, run, daemon.port, 0, target,
                    {}, [])) == failed
        finally:
            daemon.stop()


def test_counts_repeat_exactly_for_one_seed():
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = values(bench(workload, 7, trace))
            second = values(bench(workload, 7, trace, repeat=1))
            for name in exact_metrics(workload) & set(first):
                assert first[name] == second[name], \
                    (workload, name, first[name], second[name])


def test_seeds_change_inputs_not_metric_names():
    import check_stream
    from repro.serve.loadgen import build_mix

    def pool(seed):
        return check_stream.Slot(random.Random(seed), "clean").source

    assert pool(7) != pool(8)
    assert [i.name for i in build_mix(seed=7)] \
        != [i.name for i in build_mix(seed=8)]
    for workload in WORKLOADS:
        for trace in (0, 1):
            assert set(bench(workload, 7, trace)["metrics"]) \
                == set(bench(workload, 8, trace)["metrics"]), workload


def test_traced_runs_confirm_each_workload_design():
    corpus = values(bench("exec-corpus", 7, 1))
    busy = {name: value for name, value in corpus.items()
            if name.endswith(".busy_ms")}
    assert max(busy, key=busy.get) == "vm.run.busy_ms", busy

    stream = values(bench("check-stream", 7, 1))
    compile_ms = sum(stream[f"{layer}.busy_ms"] for layer in COMPILE_LAYERS)
    front = compile_ms + stream["vm.instantiate.busy_ms"]
    rest = sum(value for name, value in stream.items()
               if name.endswith(".busy_ms")) - front
    assert front > rest, (front, rest)
    assert stream["store.misses"] == 1.0 and stream["store.hits"] == 0.0

    serve = values(bench("serve-warm", 7, 1))
    assert serve["serve.origin.compile"] == 0
    assert serve["serve.execute_ms"] > 0 and serve["serve.overhead_ms"] > 0

    for workload in WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, 7, trace)
            assert result["correct"] and result["failed"] == 0, workload


def test_refuses_to_run_without_the_program():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "exec-corpus", "--seed", "1", "--seconds", SECONDS,
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, PYTHONPATH=""))
        assert done.returncode != 0
        assert done.stdout.strip() == ""


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
