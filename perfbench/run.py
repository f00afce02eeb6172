"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload exec-corpus --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, both as named in ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A readable table, next to the recorded baseline
(``perfbench/baseline.json``), goes to standard error.  Traced runs also
write their spans to ``.bench_work/spans-<workload>-<seed>.jsonl``.

The benchmark drives the program only through its public API and
``repro serve``; it builds nothing.  It exits non-zero, printing no
result, when the program's sources are missing or an output check cannot
run.  See ``perfbench/README.md`` for every metric's definition.
"""

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> module in this directory.
WORKLOADS = {
    "exec-corpus": "exec_corpus",
    "check-stream": "check_stream",
    "serve-warm": "serve_warm",
}
#: End-to-end metrics defined only where a workload runs both an
#: unprotected and an instrumented build; elsewhere they read 1.0.
RATIO_PREFIXES = ("host_ratio.", "cost_ratio.")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def select_metrics(spec, measured, trace, failed, attempted):
    """The metrics of this mode, by name, in ``BENCHMARK.json`` order,
    each with its unit.  Raises on a measured name the spec lacks."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: "
                       f"{unknown}")
    measured = dict(measured)
    if trace:
        wanted = spec["per_layer"]
        measured["fail_ratio"] = failed / attempted
    else:
        wanted = spec["end_to_end"]
        measured["ok_ratio"] = 1.0 - failed / attempted
    selected = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif trace:
            value = 0.0     # the layer is not on this workload's path
        elif name.startswith(RATIO_PREFIXES):
            value = 1.0
        else:
            raise KeyError(f"workload did not measure {name}")
        selected[name] = {"value": value, "unit": metric["unit"]}
    return selected


def print_table(workload, metrics, trace):
    try:
        with open(HERE / "baseline.json") as handle:
            baseline = json.load(handle).get(workload, {})
    except FileNotFoundError:
        baseline = {}
    recorded = baseline.get("per_layer" if trace else "end_to_end", {})
    print(f"{workload}: {'per-layer' if trace else 'end-to-end'} metrics "
          f"(baseline: {baseline.get('recorded', 'none')})",
          file=sys.stderr)
    for name, metric in metrics.items():
        base = recorded.get(name)
        base_text = f"{base:>12.4f}" if base is not None else f"{'-':>12}"
        print(f"  {name:<36} {metric['value']:>12.4f} {base_text}  "
              f"{metric['unit']}", file=sys.stderr)


def _exit_on_sigterm(signum, frame):
    # Unwind through the finally blocks that stop the serve daemon.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # A background job of a non-interactive shell starts with SIGINT
    # ignored, and child processes inherit that; the serve daemon's
    # graceful stop is a SIGINT, so take the default back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    from measure import Run

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                workdir=str(workdir),
                concurrent=args.workload == "serve-warm")
    try:
        if args.workload == "serve-warm":
            measured = module.run(bench, str(ROOT))
        else:
            measured = module.run(bench)
    except (OSError, RuntimeError) as error:
        print(f"error: {args.workload} could not run: {error!r}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        bench.recorder.write(
            work_root / f"spans-{args.workload}-{args.seed}.jsonl")
    failed = bench.failed_ops
    metrics = select_metrics(spec, measured, args.trace, failed,
                             bench.attempted)
    for op_id, message in bench.failures[:20]:
        print(f"FAILED op {op_id}: {message}", file=sys.stderr)
    print_table(args.workload, metrics, args.trace)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
