"""Statement-level delta debugging for discrepancy reproducers.

``minimize(source, predicate)`` shrinks a program while the predicate
keeps returning True ("still reproduces").  The loop is a ddmin-style
greedy line remover: try dropping chunks of contiguous lines, halving
the chunk size down to single lines, and repeat until a whole sweep
removes nothing.  Invariants (property-tested in ``tests/fuzz``):

* every *accepted* step reproduces — a candidate is only kept after the
  predicate confirms it;
* size is monotonically non-increasing, measured in lines;
* structural breakage is self-rejecting — a removal that makes the
  program unparseable fails to compile, the predicate returns False,
  and the removal is discarded.  No grammar knowledge needed.

``predicate_for`` builds the reproduction predicate from an oracle
:class:`~repro.fuzz.oracle.Discrepancy`: "policy X still misses the
violation the reference policy still sees", "these two configurations
still disagree", "this configuration still exhausts its instruction
budget", and so on.  Candidates run under a small VM instruction budget
(and inside a crash-isolated pool when the finding is a host crash), so
minimizing a hang cannot hang the minimizer.
"""

from dataclasses import dataclass

from .oracle import RUN_CALL, run_config

#: Instruction budget for minimization runs — far smaller than the
#: campaign budget; reproducers are tiny.
MINIMIZE_MAX_INSTRUCTIONS = 5_000_000


@dataclass
class MinimizeResult:
    """Outcome of one minimization."""

    source: str
    original: str
    reproduced: bool        # did the *original* satisfy the predicate?
    steps: int = 0          # accepted removals
    tests: int = 0          # predicate invocations

    @property
    def original_lines(self):
        return self.original.count("\n")

    @property
    def minimized_lines(self):
        return self.source.count("\n")


def minimize(source, predicate, max_tests=2000):
    """Shrink ``source`` while ``predicate(candidate)`` stays True.

    Returns a :class:`MinimizeResult`; if the original itself does not
    reproduce (``reproduced=False``) the source comes back unchanged —
    the caller archives it unminimized rather than minimizing noise.
    ``max_tests`` bounds predicate invocations so a pathological
    predicate cannot stall the campaign.
    """
    result = MinimizeResult(source=source, original=source, reproduced=False)
    result.tests += 1
    if not predicate(source):
        return result
    result.reproduced = True

    lines = source.splitlines()
    changed = True
    while changed and result.tests < max_tests:
        changed = False
        chunk = max(len(lines) // 2, 1)
        while chunk >= 1 and result.tests < max_tests:
            index = 0
            while index < len(lines) and result.tests < max_tests:
                candidate = lines[:index] + lines[index + chunk:]
                if not candidate:
                    index += chunk
                    continue
                result.tests += 1
                if predicate(_join(candidate)):
                    lines = candidate
                    result.steps += 1
                    changed = True
                    # keep index: the next chunk slid into place
                else:
                    index += chunk
            chunk //= 2
    result.source = _join(lines)
    return result


def _join(lines):
    return "\n".join(lines) + "\n"


# -- reproduction predicates ------------------------------------------------


def parse_config_key(key):
    """``"spatial/compiled/O1"`` -> ``("spatial", "compiled", 1)``.

    The opt component comes back as the integer level (0, 1 or 2), which
    every run entry point accepts directly."""
    policy, engine, opt = key.split("/")
    return policy, engine, int(opt[1:] or 0)


def _make_runner(pool=None, max_instructions=MINIMIZE_MAX_INSTRUCTIONS,
                 timeout=None):
    """A ``run(source, policy, engine, optimize)`` callable returning
    oracle run-value dicts, in-process by default or via a crash-
    isolated pool when candidates may kill the host process."""
    if pool is None:
        def run(source, policy, engine, optimize):
            return run_config(source, policy, engine, optimize,
                              max_instructions=max_instructions)
        return run

    from ..pool import PoolTask

    def run(source, policy, engine, optimize):
        task = PoolTask(RUN_CALL, (source, policy, engine, optimize),
                        {"max_instructions": max_instructions},
                        deadline=timeout)
        (outcome,) = pool.run([task])
        if outcome.status != "ok":
            return {"status": outcome.status}
        return outcome.value

    return run


def _reference_for(discrepancy):
    """A policy that *should* still detect the class — the positive
    anchor that stops a missed-detection predicate from accepting the
    empty program."""
    if discrepancy.reference_policy:
        return discrepancy.reference_policy
    from ..policy import all_policies

    for policy in all_policies():
        if (policy.name != discrepancy.policy
                and discrepancy.expected_class in policy.detects):
            return policy.name
    return None


def predicate_for(discrepancy, pool=None,
                  max_instructions=MINIMIZE_MAX_INSTRUCTIONS, timeout=None):
    """Build ``predicate(source) -> bool`` reproducing ``discrepancy``.

    Returns None when the discrepancy kind has no meaningful shrink
    predicate (e.g. ``infra``) — the caller archives it unminimized.
    """
    kind = discrepancy.kind
    # crash candidates must run isolated (they can kill their process);
    # everything else runs in-process — cheaper per step, and the VM
    # instruction budget already defangs hangs.
    if kind == "crash" and pool is None:
        return None
    run = _make_runner(pool if kind == "crash" else None,
                       max_instructions, timeout)

    if not discrepancy.configs:
        return None
    primary = discrepancy.configs[0]

    if kind == "missed_detection":
        reference = _reference_for(discrepancy)
        if reference is None:
            return None
        policy, engine, optimize = parse_config_key(primary)

        def predicate(source):
            seen = run(source, reference, engine, optimize)
            if seen.get("status") != "ok" or not seen.get("detected"):
                return False
            missed = run(source, policy, engine, optimize)
            return missed.get("status") == "ok" and not missed.get("detected")

        return predicate

    if kind in ("undeclared_detection", "transparency"):
        policy, engine, optimize = parse_config_key(primary)

        def predicate(source):
            value = run(source, policy, engine, optimize)
            if value.get("status") != "ok":
                return False
            if value.get("detected"):
                return True
            # Baseline-divergence transparency findings reproduce as
            # "still disagrees with the unprotected run".
            if (kind == "transparency"
                    and len(discrepancy.configs) > 1):
                base_policy, base_engine, base_opt = parse_config_key(
                    discrepancy.configs[1])
                base = run(source, base_policy, base_engine, base_opt)
                return (base.get("status") == "ok"
                        and not base.get("trap_kind")
                        and not value.get("trap_kind")
                        and ((value["exit_code"], value["output"])
                             != (base["exit_code"], base["output"])))
            return False

        return predicate

    if kind in ("divergence", "parallel_divergence"):
        if kind == "parallel_divergence" or len(discrepancy.configs) < 2:
            return None  # batch-level findings don't shrink per-config

        def predicate(source):
            signatures = set()
            for key in discrepancy.configs[:4]:
                policy, engine, optimize = parse_config_key(key)
                value = run(source, policy, engine, optimize)
                if value.get("status") != "ok":
                    return False
                if value.get("trap_kind"):
                    signatures.add(("trap", value["trap_kind"],
                                    value["detected"]))
                else:
                    signatures.add(("clean", value["exit_code"],
                                    value["output"]))
            return len(signatures) > 1

        return predicate

    if kind == "hang":
        policy, engine, optimize = parse_config_key(primary)

        def predicate(source):
            value = run(source, policy, engine, optimize)
            return (value.get("status") == "ok"
                    and value.get("trap_kind") == "resource_limit") \
                or value.get("status") == "timeout"

        return predicate

    if kind == "crash":
        policy, engine, optimize = parse_config_key(primary)

        def predicate(source):
            value = run(source, policy, engine, optimize)
            return value.get("status") == "crash"

        return predicate

    return None
