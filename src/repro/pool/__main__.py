"""Worker entry point: ``python -m repro.pool [WARMUP]``.

Calls the optional ``WARMUP`` ``module:function`` first, then reads
``(call, args, kwargs, observed)`` pickle frames from stdin, resolves
``call`` (a ``module:function`` path) and writes one
``(status, payload, delta)`` frame per task to the *original* stdout.
``sys.stdout`` itself is re-routed onto stderr before anything runs, so
nothing a task prints can corrupt the framing.

Exceptions a task lets escape come back in-band with status
``"error"``; only process death (the parent sees pipe EOF) or a missed
deadline (the parent kills us) are out-of-band failures.  ``delta`` is
the registry growth the task caused when the submitting process had
observability on, else ``None`` — and then no snapshot is taken.
"""

import gc
import os
import pickle
import sys

from .. import obs
from ..obs.metrics import snapshot_delta
from . import _HEADER, ERROR, OK, resolve, write_frame


def _read_exact(stream, count):
    blob = stream.read(count)
    return blob if blob is not None and len(blob) == count else None


def _transferable(error):
    """``error`` if it survives a pickle round trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def main(argv):
    stdin = sys.stdin.buffer
    frames = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    if len(argv) > 1:
        resolve(argv[1])()
    # What the imports and the warmup built lives as long as the worker:
    # keep it out of every later full collection's scan.
    gc.freeze()
    registry = obs.default_registry()
    while True:
        header = _read_exact(stdin, _HEADER.size)
        if header is None:
            return 0
        blob = _read_exact(stdin, _HEADER.unpack(header)[0])
        if blob is None:
            return 0
        call, args, kwargs, observed = pickle.loads(blob)
        if observed:
            obs.enable_metrics()
            before = registry.snapshot()
        else:
            obs.disable_metrics()
        try:
            reply = (OK, resolve(call)(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 — isolation boundary
            reply = (ERROR, _transferable(error))
        delta = snapshot_delta(before, registry.snapshot()) if observed \
            else None
        try:
            write_frame(frames, reply + (delta,))
        except Exception as error:
            write_frame(frames, (ERROR, RuntimeError(
                f"unpicklable task result: {error}"), delta))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
