"""The serve worker side: warmup and the request executor.

The daemon never compiles or runs untrusted C in its own process: every
request is shipped to one of a fixed set of persistent
:class:`repro.pool.WorkerPool` workers, which call
:func:`execute_serve_request`.

* **Warm.**  Workers are spawned eagerly at daemon boot and call
  :func:`warmup` before reading their first frame, so the first request
  pays no import cost; a respawned worker re-warms the same way.
* **Isolated.**  The pool's one outcome rule: a worker past its
  wallclock deadline is SIGKILLed, respawned, and the request resolves
  ``timeout``; a request whose worker dies (segfault, OOM kill, chaos
  drill) or that raises in-band is retried once — requests are pure
  compile+run, so idempotent — before resolving ``crash``/``error``.
  Other in-flight requests never notice: each worker slot owns a
  private pipe pair.
* **Shared artifacts, three cache levels.**  Inside each worker a
  sharded, size-bounded LRU (:class:`repro.store.LRUCache` per shard)
  fronts the persistent artifact store (``REPRO_STORE``), which all
  workers share; a cold key is compiled **once** per store thanks to
  single-flight coalescing (:func:`compile_coalesced`): the first
  worker takes an advisory flight lock and compiles while the herd
  blocks on the lock, re-checks the store, and loads the bytes the
  winner wrote.
"""

import os
import threading
import time

#: How long a cold-key loser waits on the winner's flight lock before
#: degrading to its own compile (liveness beats dedup).
COALESCE_WAIT_SECONDS = 120.0

#: Worker-side compiled-program cache geometry: ``SHARDS`` independent
#: LRUs so one hot profile cannot evict everything else, each bounded.
CACHE_SHARDS = 8
CACHE_ENTRIES_PER_SHARD = 32

#: The pool task path of one request, and the worker warmup hook.
REQUEST_CALL = "repro.serve.workers:execute_serve_request"
WARMUP_CALL = "repro.serve.workers:warmup"

#: Per-process sharded compiled-program cache, created on first use.
_shards = None
_shard_lock = threading.Lock()
_store = None
_store_dir_opened = None


def _worker_cache():
    global _shards
    if _shards is None:
        from ..store import LRUCache

        with _shard_lock:
            if _shards is None:
                _shards = [LRUCache(max_entries=CACHE_ENTRIES_PER_SHARD)
                           for _ in range(CACHE_SHARDS)]
    return _shards


def _shard_for(key):
    return _worker_cache()[hash(key) % CACHE_SHARDS]


def worker_cache_counters():
    """Summed counters over every shard (the response cache block)."""
    totals = {"entries": 0, "hits": 0, "misses": 0, "evictions": 0}
    for shard in _worker_cache():
        counters = shard.counters()
        for name in totals:
            totals[name] += counters[name]
    totals["shards"] = CACHE_SHARDS
    return totals


def _open_store(store_dir):
    """The worker's store handle, reopened only when the directory
    changes (tests point one worker at several stores)."""
    global _store, _store_dir_opened
    if not store_dir:
        return None
    if _store is None or _store_dir_opened != store_dir:
        from ..store import ArtifactStore

        try:
            _store = ArtifactStore(store_dir)
            _store_dir_opened = store_dir
        except OSError:
            return None
    return _store


def compile_coalesced(source, profile, optimize=True, verify=True,
                      store=None, wait=COALESCE_WAIT_SECONDS):
    """Compile through the store with cold-key single-flight.

    On a store miss the caller takes an advisory *flight lock* (distinct
    from the store's internal entry lock, which the winner's ``save``
    takes itself) and re-checks the store once it holds it — so of N
    processes racing the same cold key, exactly one compiles and the
    rest load the winner's bytes.  A loser that cannot get the lock
    within ``wait`` compiles anyway: liveness beats dedup.  Returns
    ``(compiled, origin, fingerprint)`` with origin ``"store"`` or
    ``"compile"``; the fingerprint is the sha256 of the serialized
    artifact, taken *at the serialization boundary* — the store entry's
    own payload digest when the store is involved, a fresh pickle
    otherwise — because a program that has since been instantiated does
    not re-pickle canonically (or at all).
    """
    from ..api.toolchain import Toolchain
    from ..store.format import compute_key

    def fresh_compile():
        return Toolchain(profile=profile, optimize=optimize,
                         verify=verify).compile(source)

    if store is None:
        compiled = fresh_compile()
        return compiled, "compile", compiled_fingerprint(compiled)
    key = compute_key(source, profile, optimize)
    compiled = store.load(source, profile, optimize)
    if compiled is not None:
        return compiled, "store", store.payload_sha256(key)
    from ..store.locks import FileLock

    lock_path = os.path.join(store.locks_dir, "flight." + key[:32] + ".lock")
    with FileLock(lock_path, timeout=wait) as acquired:
        if acquired:
            compiled = store.load(source, profile, optimize)
            if compiled is not None:
                return compiled, "store", store.payload_sha256(key)
        compiled = fresh_compile()
        if store.save(source, profile, optimize, compiled):
            return compiled, "compile", store.payload_sha256(key)
        # Degraded store (lock timeout, disk error): the in-process
        # artifact is still good, so fingerprint it directly.
        return compiled, "compile", compiled_fingerprint(compiled)


def execute_serve_request(payload):
    """Compile (three-level cached) and run one validated request.

    Runs inside the worker process.  ``payload`` is the dict the server
    validated: ``source``, ``profile`` (registered name), ``opt``,
    ``input`` (bytes), ``entry``, ``engine``, ``budget`` (the resolved
    instruction limit), ``store_dir`` and ``name``.  Returns a plain
    picklable dict: the ``RunReport.to_json()`` row (with a ``cache``
    block), the CLI exit code for the HTTP status mapping, and the
    worker pid (the kill drills target it).
    """
    fault = payload.get("test_fault")
    if fault == "hang":
        # Armed only when the daemon runs with --allow-test-faults: a
        # request wedged outside the VM, for the deadline-kill drill.
        time.sleep(3600)
    elif fault == "exit":
        # Worker suicide mid-request, for the respawn/retry drill.
        os._exit(17)

    from ..api.profiles import as_profile
    from ..api.session import run_compiled
    from ..cli import EX_COMPILE, exit_code_for
    from ..frontend.errors import FrontendError
    from ..harness.linker import LinkError
    from ..obs.trace import tracer

    profile = as_profile(payload["profile"])
    optimize = payload.get("opt", True)
    budget = payload["budget"]
    cache_key = (payload["source"], profile.cache_key(), optimize)
    shard = _shard_for(cache_key)
    cached = shard.get(cache_key)
    if cached is not None:
        compiled, fingerprint = cached
        origin = "memory"
    else:
        store = _open_store(payload.get("store_dir"))
        try:
            with tracer().span("serve.compile", profile=profile.name,
                               program=payload.get("name", "program")):
                compiled, origin, fingerprint = compile_coalesced(
                    payload["source"], profile, optimize=optimize,
                    store=store)
        except (FrontendError, LinkError) as error:
            return {"error": f"compile error: {error}",
                    "cli_exit": EX_COMPILE, "origin": None,
                    "pid": os.getpid()}
        shard.put(cache_key, (compiled, fingerprint))
    if payload.get("mode") == "compile":
        from ..store.format import compute_key

        row = {"name": payload.get("name", "program"),
               "profile": profile.name, "opt": optimize, "origin": origin,
               "key": compute_key(payload["source"], profile, optimize),
               "output": fingerprint}
        return {"row": row, "cli_exit": 0, "origin": origin,
                "pid": os.getpid()}
    # run_compiled is the same execution path one-shot CLI runs take, so
    # serve responses are bit-identical to `repro run --json` apart from
    # wallclock and the cache block.
    report = run_compiled(compiled, profile=profile,
                          name=payload.get("name", "program"),
                          input_data=payload.get("input", b""),
                          entry=payload.get("entry", "main"),
                          engine=payload.get("engine"),
                          max_instructions=budget)
    report.cache = dict(origin=origin, memory=worker_cache_counters())
    row = report.to_json()
    # One serve-only extension: the program's stdout.  Clients talking
    # HTTP have no other channel for it; strip "output" (plus the
    # wallclock/cache/obs blocks) to recover the exact CLI --json row.
    row["output"] = report.output
    return {"row": row, "cli_exit": exit_code_for(report),
            "origin": origin, "pid": os.getpid()}


def compiled_fingerprint(compiled):
    """sha256 over a fresh pickle of ``compiled``.

    Only valid for a program that has **never been instantiated** —
    running attaches runtime closures that do not pickle.  Store-backed
    paths should prefer the entry's own ``payload_sha256`` (what
    :func:`compile_coalesced` returns), which is canonical for everyone
    who loaded those bytes."""
    import hashlib

    from ..store.format import dumps_program

    return hashlib.sha256(dumps_program(compiled)).hexdigest()


def warmup():
    """Pre-warm hook the worker entry point calls before serving: load
    the policy registry and touch the toolchain so the first real
    request pays neither import nor registry-build cost."""
    from ..api.profiles import as_profile
    from ..api.toolchain import Toolchain  # noqa: F401  (import warmth)

    as_profile("spatial")
    _worker_cache()
    return os.getpid()
