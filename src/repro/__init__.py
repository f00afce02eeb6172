"""SoftBound reproduction.

A from-scratch Python reimplementation of *SoftBound: Highly Compatible
and Complete Spatial Memory Safety for C* (Nagarakatte, Zhao, Martin,
Zdancewic — UPenn TR MS-CIS-09-01 / PLDI 2009), including every substrate
the paper depends on: a C-subset compiler frontend, a typed register IR
with an optimizer, an interpreting virtual machine over simulated
byte-addressable memory, the SoftBound transformation itself with both
metadata facilities (hash table and shadow space), the baseline checkers
the paper compares against, and an executable version of the paper's
formal semantics.

Quickstart (the :mod:`repro.api` facade)::

    from repro.api import Session

    session = Session()
    report = session.run(C_SOURCE)                      # unprotected
    report = session.run(C_SOURCE, profile="spatial")   # protected
    report = session.run(C_SOURCE, profile="temporal")  # + lock-and-key

or, one compile reused across runs::

    from repro.api import compile_source

    program = compile_source(C_SOURCE, profile="spatial")
    result = program.run(input_data=b"...")
"""

__version__ = "2.0.0"

__all__ = [
    # The facade (re-exported from repro.api).
    "ProtectionProfile",
    "Toolchain",
    "Session",
    "RunReport",
    "BatchReport",
    "resolve_env",
    "compile_source",
    "run_source",
    "CompiledProgram",
    "compile_and_link",
    "CheckMode",
    "MetadataScheme",
    "SoftBoundConfig",
]

_API_NAMES = {"ProtectionProfile", "Toolchain", "Session", "RunReport",
              "BatchReport", "resolve_env", "compile_source", "run_source",
              "CompiledProgram"}
_CONFIG_NAMES = {"CheckMode", "MetadataScheme", "SoftBoundConfig"}
_LINKER_NAMES = {"compile_and_link"}


def __getattr__(name):
    # Lazy re-exports keep `import repro.frontend` usable even when only
    # part of the package is needed, and avoid import cycles.
    if name in _API_NAMES:
        from . import api

        return getattr(api, name)
    if name in _CONFIG_NAMES:
        from .softbound import config

        return getattr(config, name)
    if name in _LINKER_NAMES:
        from .harness import linker

        return getattr(linker, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
