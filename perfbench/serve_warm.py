"""serve-warm: HTTP requests to a warm ``repro serve --workers 2``.

Setup boots the daemon on a fresh artifact store and replays the seeded
``serve.loadgen.build_mix`` once (the cold pass), so every program in
the mix is compiled before measurement.  It does this five times and
keeps the last daemon.  One lap is ``build_mix`` with a per-lap seed,
repeated ``LAP_REPEATS`` times, sent by two client threads in a closed
loop: each sends its next request when the previous one has answered.
Each response is checked against loadgen's ``expect_status`` and
``expect_fragments``.

The daemon's ``/metrics`` endpoint is read before and after the measured
laps; its cache-origin counters must agree with the origins the
responses reported.
"""

import functools
import http.client
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.serve.loadgen import build_mix

import layers

CLIENTS = 2
WORKERS = 2
SETUP_ROUNDS = 5
LAP_REPEATS = 4
CATEGORIES = ("server", "attack", "bugbench", "malformed")
ORIGINS = ("memory", "store", "compile")
BOOT_TIMEOUT = 60.0
CLIENT_TIMEOUT = 60.0


class SetupError(RuntimeError):
    """The daemon could not be started; no output check can run."""


class Daemon:
    """One ``repro serve`` subprocess, in its own process group."""

    def __init__(self, root, workdir, index):
        self.store = os.path.join(workdir, f"serve-store-{index}")
        self.log_path = os.path.join(workdir, f"serve-{index}.log")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for name in ("REPRO_TRACE", "REPRO_STORE", "REPRO_METRICS"):
            env.pop(name, None)
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--store", self.store],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root,
                start_new_session=True)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self):
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                text = log.read()
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise SetupError(f"daemon exited {self.proc.returncode}: "
                                 f"{text[-2000:]}")
            time.sleep(0.02)
        raise SetupError("daemon did not print its ready line in time")

    def process_ids(self):
        """The daemon and its worker processes."""
        pids = [self.proc.pid]
        task_dir = f"/proc/{self.proc.pid}/task"
        try:
            for task in os.listdir(task_dir):
                with open(f"{task_dir}/{task}/children") as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
        return pids

    def stop(self):
        """SIGINT (graceful drain), then SIGKILL whatever is left of the
        process group; waits until every process has ended."""
        pids = self.process_ids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(
                os.path.exists(f"/proc/{pid}") for pid in pids[1:]):
            time.sleep(0.02)


def post(port, item):
    """One HTTP round trip; returns (status, decoded JSON body)."""
    if isinstance(item.doc, (bytes, bytearray)):
        body = bytes(item.doc)
    else:
        body = json.dumps(item.doc, sort_keys=True).encode("utf-8")
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=CLIENT_TIMEOUT)
    try:
        connection.request("POST", item.route, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def origin_counters(port):
    """The daemon's ``repro_serve_cache_origin_total`` series."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=CLIENT_TIMEOUT)
    try:
        connection.request("GET", "/metrics")
        series = json.loads(connection.getresponse().read())["series"]
    finally:
        connection.close()
    return {origin: series.get(
                f"repro_serve_cache_origin_total{{origin={origin}}}", 0)
            for origin in ORIGINS}


def check(item, status, body):
    """None if the response meets the item's oracle, else why not."""
    problem = None
    if status not in item.expect_status:
        problem = f"status {status} not in {item.expect_status}"
    else:
        output = body.get("output") or ""
        missing = [f for f in item.expect_fragments if f not in output]
        if missing:
            problem = f"output missing fragments {missing}"
    return problem


def drive(items, clients, send):
    """Send every item through ``send(item)`` from ``clients`` threads,
    each taking the next item once its previous request has answered."""
    cursor = itertools.count()

    def client():
        while True:
            index = next(cursor)
            if index >= len(items):
                return
            send(items[index])

    threads = [threading.Thread(target=client, name=f"bench-client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _cold_pass(bench, daemon):
    problems = []

    def send(item):
        try:
            status, body = post(daemon.port, item)
        except (OSError, ValueError) as error:
            problems.append(f"cold pass {item.name}: {error!r}")
            return
        problem = check(item, status, body)
        if problem:
            problems.append(f"cold pass {item.name}: {problem}")

    drive(build_mix(seed=bench.seed), CLIENTS, send)
    for problem in problems:
        bench.fail(None, problem)


def run(bench, root):
    daemon = None
    durations = []
    try:
        for index in range(SETUP_ROUNDS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            started = time.perf_counter()
            daemon = Daemon(root, bench.workdir, index)
            _cold_pass(bench, daemon)
            durations.append(time.perf_counter() - started)
        return _measure(bench, daemon, statistics.median(durations))
    finally:
        if daemon is not None:
            daemon.stop()


def _measure(bench, daemon, setup_s):
    rng = random.Random(bench.seed)
    samples = {}    # op id -> (category, execute seconds or None, origin)
    first_lap = []  # CostStats dicts of lap 0's executed requests
    before = origin_counters(daemon.port)
    bench.rss_pids = tuple(daemon.process_ids())

    def do_lap(lap):
        items = build_mix(seed=rng.getrandbits(31), repeats=LAP_REPEATS)
        drive(items, CLIENTS, lambda item: bench.attempt(
            lap, item.name, functools.partial(
                _one_request, bench, daemon.port, lap, item, samples,
                first_lap)))

    bench.run_laps(do_lap)
    after = origin_counters(daemon.port)
    seen = {origin: sum(1 for _, _, o in samples.values() if o == origin)
            for origin in ORIGINS}
    delta = {origin: after[origin] - before[origin] for origin in ORIGINS}
    if seen != delta:
        bench.fail(None, f"/metrics origin counters moved by {delta}, "
                         f"responses reported {seen}")
    metrics = bench.common_metrics()
    metrics["setup_s"] = setup_s
    if bench.trace:
        metrics.update(_layer_metrics(bench, samples, first_lap))
    return metrics


def _one_request(bench, port, lap, item, samples, first_lap, op_id,
                 recorder):
    with recorder.span("serve.request", op_id):
        status, body = post(port, item)
    seconds = body.get("wallclock_seconds")
    origin = (body.get("cache") or {}).get("origin")
    samples[op_id] = (item.category, seconds, origin)
    if body.get("stats") and seconds is not None:
        bench.record_vm(op_id, body["stats"], seconds)
        if lap == 0:
            first_lap.append(body["stats"])
    problem = check(item, status, body)
    if problem:
        bench.fail(op_id, f"{item.name}: {problem}")


def _layer_metrics(bench, samples, first_lap):
    traced = {op.op_id: op.seconds * 1000.0 for op in bench.ops if op.traced}
    executed = [(traced[op_id], seconds * 1000.0)
                for op_id, (_, seconds, _) in samples.items()
                if op_id in traced and seconds is not None]
    metrics = {
        "serve.execute_ms": _median([e for _, e in executed]),
        "serve.overhead_ms": _median([l - e for l, e in executed]),
    }
    for category in CATEGORIES:
        metrics[f"serve.{category}.latency_ms_p50"] = _median([
            latency for op_id, latency in traced.items()
            if samples.get(op_id, (None,))[0] == category])
    lap_zero = [op.op_id for op in bench.ops if op.lap == 0]
    lap_ops = len(lap_zero)
    origins = [samples[op_id][2] for op_id in lap_zero if op_id in samples]
    for origin in ORIGINS:
        metrics[f"serve.origin.{origin}"] = origins.count(origin)
    metrics["store.hits"] = origins.count("store") / lap_ops
    metrics["store.misses"] = origins.count("compile") / lap_ops
    metrics.update(layers.vm_count_metrics(first_lap))
    metrics.update(layers.instrs_per_s(bench))
    return metrics


def _median(values):
    return statistics.median(values) if values else 0.0
