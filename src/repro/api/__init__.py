"""``repro.api`` — the unified public facade.

One stable, composable surface over the whole reproduction; everything
the CLI, the harness tables, the benchmarks and the examples do goes
through here.

The pieces:

* :class:`ProtectionProfile` / :data:`PROFILES` — the configuration
  space as a declarative registry (``from_name``/``from_flags``), from
  uninstrumented through full spatial+temporal SoftBound to each
  baseline checker.
* :class:`Toolchain` — the staged compilation pipeline (parse →
  typecheck → lower → optimize → instrument → post-optimize) with
  observer hooks and retrievable per-stage artifacts.
* :class:`RunReport` / :class:`BatchReport` — structured results
  (trap kind, dynamic cost, pass stats, wallclock) with ``to_json()``
  in the recorded ``bench-v2`` schema.
* :class:`Session` — a compiled-program cache plus ``run_many`` batch
  execution over the process-pool fan-out.
* :func:`resolve_env` — the one place ``REPRO_ENGINE``/``REPRO_JOBS``
  are parsed (flag > environment > default).

Quickstart::

    from repro.api import Session

    session = Session()
    report = session.run(C_SOURCE, profile="spatial")
    if report.detected_violation:
        print("stopped:", report.trap)
"""

from .env import (
    DEFAULT_ENGINE,
    DEFAULT_JOBS,
    DEFAULT_STORE,
    ENGINES,
    ResolvedEnv,
    ResolvedServe,
    resolve_engine,
    resolve_env,
    resolve_jobs,
    resolve_serve,
    resolve_store,
)
from .profiles import (
    FULL_PROTECTION,
    PROFILES,
    ProtectionProfile,
    UsageError,
    all_profiles,
    as_profile,
)
from .reports import BatchReport, RunReport, report_from_result
from .session import (
    DEFAULT_CACHE_ENTRIES,
    RunRequest,
    Session,
    execute_run_request,
    open_store,
    run_compiled,
    run_source,
)
from .toolchain import (
    STAGES,
    CompiledProgram,
    Toolchain,
    ToolchainObserver,
    compile_source,
    compile_sources,
)

__all__ = [
    # env
    "DEFAULT_ENGINE", "DEFAULT_JOBS", "DEFAULT_STORE", "ENGINES",
    "ResolvedEnv", "ResolvedServe", "resolve_engine", "resolve_env",
    "resolve_jobs", "resolve_serve", "resolve_store",
    # profiles
    "FULL_PROTECTION", "PROFILES", "ProtectionProfile", "UsageError",
    "all_profiles", "as_profile",
    # toolchain
    "STAGES", "CompiledProgram", "Toolchain", "ToolchainObserver",
    "compile_source", "compile_sources",
    # reports
    "BatchReport", "RunReport", "report_from_result",
    # session
    "DEFAULT_CACHE_ENTRIES", "RunRequest", "Session",
    "execute_run_request", "open_store", "run_compiled", "run_source",
]
