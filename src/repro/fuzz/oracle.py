"""The differential oracle: plan a config matrix, judge the outcomes.

For one generated program the oracle runs every registered
:class:`~repro.policy.CheckerPolicy` × both VM engines (the reference
interpreter and the closure-compiled engine) × every optimization
level — including ``-O2`` (solver-backed static check elimination) for
policies declaring ``provable`` — then diffs:

* **transparency** on clean programs — identical exit code and output
  everywhere, and no checker may claim a violation (the paper's
  "no false positives" claim, continuously);
* **detection** on mutated programs — each policy must detect the
  injected defect's violation class exactly when its ``detects``
  declaration claims it (both directions), and every configuration of
  one policy must agree on the outcome;
* **serial == parallel** — a sampled ``Session.run_many`` batch must be
  identical at ``jobs=1`` and ``jobs=2``.

The ``-O2`` cells are the prove subsystem's adversary: a wrong proof
deletes a check that should have fired, which surfaces here as a
``missed_detection`` (mutated seed, O2 ran past the defect while O0/O1
trapped) or a per-policy ``divergence`` finding — never silently.

Execution happens inside :class:`repro.pool.WorkerPool` workers under a VM
instruction budget (the cost model's ``RESOURCE_LIMIT`` trap) plus the
pool's wallclock deadline, so the judge also sees ``timeout``/``crash``
verdicts and turns them into findings instead of infra failures.

Comparison rule: clean (non-trapping) runs are compared on the full
``(exit code, output)``; trapping runs are compared on the trap kind
only — check-motion passes may legitimately move *where* an expected
trap fires, never *whether* or *what kind*.
"""

from dataclasses import dataclass, field

#: Default per-run VM instruction budget.  Generated programs execute a
#: few thousand instructions; anything nearing this is wedged.
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

RUN_CALL = "repro.fuzz.oracle:run_config"
PARALLEL_CALL = "repro.fuzz.oracle:run_parallel_check"


@dataclass(frozen=True)
class RunConfig:
    """One cell of the differential matrix."""

    policy: str
    engine: str
    optimize: object  # an opt level: False/True/0/1/2 (see repro.prove)
    kind: str = "run"  # "run" | "parallel" | "chaos"

    @property
    def key(self):
        if self.kind != "run":
            return f"{self.kind}:{self.policy}"
        from ..prove import opt_level

        return f"{self.policy}/{self.engine}/O{opt_level(self.optimize)}"


@dataclass(frozen=True)
class ConfigMatrix:
    """Which configurations a campaign sweeps."""

    policies: tuple
    engines: tuple = ("compiled", "interp")
    opt_levels: tuple = (True, False)
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: Run the serial==parallel batch check on every Nth clean seed
    #: (0 disables it).
    parallel_every: int = 8

    def __post_init__(self):
        # The unprotected baseline anchors clean-run transparency
        # judging — every matrix carries it.
        if "none" not in self.policies:
            object.__setattr__(self, "policies",
                               ("none",) + tuple(self.policies))

    @classmethod
    def full(cls, policies=None, **kwargs):
        """Every registered policy × both engines × every opt level
        (O2 cells run only for policies declaring ``provable``)."""
        kwargs.setdefault("opt_levels", (True, False, 2))
        return cls(policies=_policy_names(policies), **kwargs)

    @classmethod
    def quick(cls, policies=None, **kwargs):
        """Every registered policy on the default engine/opt cell, with
        the cross-engine and cross-opt diffs carried by the reference
        ``spatial`` policy — the time-boxed CI shape."""
        names = _policy_names(policies)
        kwargs.setdefault("engines", ("compiled",))
        kwargs.setdefault("opt_levels", (True,))
        return cls(policies=names, **kwargs)

    def configs(self):
        from ..prove import opt_level

        for policy in self.policies:
            provable = _policy_provable(policy)
            for engine in self.engines:
                for optimize in self.opt_levels:
                    if opt_level(optimize) >= 2 and not provable:
                        # -O2 is a typed refusal for these policies (by
                        # design); not a differential cell.
                        continue
                    yield RunConfig(policy, engine, optimize)

    @property
    def baseline(self):
        return RunConfig("none", self.engines[0], self.opt_levels[0])


def _policy_provable(name):
    from ..policy import get_policy

    try:
        return bool(getattr(get_policy(name), "provable", False))
    except KeyError:
        return False


def _policy_names(policies=None):
    if policies is not None:
        names = tuple(policies)
    else:
        from ..policy import all_policies

        names = tuple(policy.name for policy in all_policies())
    if "none" not in names:
        names = ("none",) + names
    return names


# -- worker-side task functions ---------------------------------------------


def run_config(source, policy, engine, optimize,
               max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Compile and run ``source`` under one configuration (executed
    inside a pool worker).  Expected compile-stage failures come back
    in-band as a ``compile_error`` record, not an exception."""
    from ..api import run_source
    from ..frontend.errors import FrontendError
    from ..harness.linker import LinkError

    try:
        report = run_source(source, profile=policy, engine=engine,
                            optimize=optimize,
                            max_instructions=max_instructions)
    except (FrontendError, LinkError) as error:
        return {"status": "compile_error", "detail": str(error)}
    return {
        "status": "ok",
        "exit_code": report.exit_code,
        "output": report.output,
        "trap_kind": report.trap_kind,
        "trap": str(report.trap) if report.trap is not None else None,
        "detected": report.detected_violation,
        "cost": report.stats.cost if report.stats is not None else 0,
    }


def run_parallel_check(source, policies, optimize=True):
    """``Session.run_many`` serial vs two-worker batch over ``policies``
    (executed inside a pool worker; the nested fan-out starts its own
    short-lived :class:`repro.pool.WorkerPool`)."""
    from ..api import Session

    items = [(name, source, name) for name in policies]
    serial = Session(jobs=1).run_many(items, jobs=1)
    parallel = Session(jobs=2).run_many(items, jobs=2)
    diffs = []
    for name in serial.reports:
        a, b = serial.reports[name], parallel.reports[name]
        left = (a.exit_code, a.output, a.trap_kind,
                a.stats.cost if a.stats else None)
        right = (b.exit_code, b.output, b.trap_kind,
                 b.stats.cost if b.stats else None)
        if left != right:
            diffs.append(f"{name}: serial={left} parallel={right}")
    return {"status": "ok", "equal": not diffs, "detail": "; ".join(diffs)}


# -- planning ---------------------------------------------------------------


def plan_program(program, matrix, parallel_check=False):
    """The task plan for one program: an ordered list of
    ``(RunConfig, PoolTask)`` pairs."""
    from ..pool import PoolTask

    plan = []
    for config in matrix.configs():
        plan.append((config, PoolTask(
            RUN_CALL,
            (program.source, config.policy, config.engine, config.optimize),
            {"max_instructions": matrix.max_instructions})))
    if parallel_check:
        config = RunConfig("batch", matrix.engines[0], True, kind="parallel")
        plan.append((config, PoolTask(
            PARALLEL_CALL, (program.source, matrix.policies))))
    return plan


# -- judging ----------------------------------------------------------------


@dataclass
class Discrepancy:
    """One cross-configuration disagreement, carrying everything the
    minimizer needs to rebuild its reproduction predicate."""

    kind: str           # missed_detection | undeclared_detection |
                        # transparency | divergence | parallel_divergence |
                        # hang | crash | compile_error | infra
    detail: str
    configs: tuple = ()
    policy: str = None
    expected_class: str = None
    #: A policy observed detecting the class in this very seed — the
    #: minimizer's positive reference for missed detections.
    reference_policy: str = None

    def to_json(self):
        return {
            "kind": self.kind,
            "detail": self.detail,
            "configs": list(self.configs),
            "policy": self.policy,
            "expected_class": self.expected_class,
            "reference_policy": self.reference_policy,
        }

    @classmethod
    def from_json(cls, data):
        data = dict(data)
        data["configs"] = tuple(data.get("configs") or ())
        return cls(**data)


@dataclass
class SeedJudgment:
    """The oracle's verdict on one seed."""

    verdict: str  # clean | discrepancy | infra
    discrepancies: list = field(default_factory=list)
    infra: list = field(default_factory=list)
    #: config key -> short per-run verdict string ("ok", "trap:...",
    #: "timeout", ...), for the corpus record.
    runs: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.verdict == "clean"


def _run_verdict(outcome):
    if outcome.status != "ok":
        return outcome.status
    value = outcome.value
    if value["status"] == "compile_error":
        return "compile_error"
    if value["status"] == "ok" and value.get("trap_kind"):
        return f"trap:{value['trap_kind']}"
    if value["status"] == "ok":
        return "ok"
    return value["status"]


def judge_program(program, results, matrix):
    """Judge one program's matrix ``results`` (``(RunConfig,
    TaskOutcome)`` pairs).  ``program`` is a
    :class:`~repro.workloads.randprog.RandomProgram` (clean) or
    :class:`~repro.workloads.randprog.MutatedProgram` (defect with
    ground truth)."""
    from ..policy import get_policy

    expected_class = getattr(program, "expected_class", None)
    judgment = SeedJudgment(verdict="clean")
    usable = {}
    for config, outcome in results:
        judgment.runs[config.key] = _run_verdict(outcome)
        if config.kind == "chaos":
            continue  # injected faults: recorded, never judged
        if outcome.status == "timeout":
            judgment.discrepancies.append(Discrepancy(
                "hang", f"{config.key}: {outcome.error}",
                configs=(config.key,), policy=config.policy,
                expected_class=expected_class))
        elif outcome.status == "crash":
            judgment.discrepancies.append(Discrepancy(
                "crash", f"{config.key}: {outcome.error}",
                configs=(config.key,), policy=config.policy,
                expected_class=expected_class))
        elif outcome.status == "error":
            judgment.infra.append(f"{config.key}: {outcome.error!r}")
        elif outcome.value["status"] == "compile_error":
            judgment.discrepancies.append(Discrepancy(
                "compile_error",
                f"{config.key}: {outcome.value['detail']}",
                configs=(config.key,), policy=config.policy,
                expected_class=expected_class))
        else:
            value = outcome.value
            if value.get("trap_kind") == "resource_limit":
                judgment.discrepancies.append(Discrepancy(
                    "hang", f"{config.key}: VM instruction budget "
                            f"exhausted", configs=(config.key,),
                    policy=config.policy, expected_class=expected_class))
            elif config.kind == "parallel":
                if not value["equal"]:
                    judgment.discrepancies.append(Discrepancy(
                        "parallel_divergence", value["detail"],
                        configs=(config.key,)))
            else:
                usable[config] = value

    by_policy = {}
    for config, value in usable.items():
        by_policy.setdefault(config.policy, []).append((config, value))

    if expected_class is None:
        _judge_clean(judgment, usable, matrix)
    else:
        _judge_mutated(judgment, by_policy, expected_class, get_policy)
    _judge_consistency(judgment, by_policy)

    if judgment.discrepancies:
        judgment.verdict = "discrepancy"
    elif judgment.infra:
        judgment.verdict = "infra"
    return judgment


def _judge_clean(judgment, usable, matrix):
    baseline = usable.get(matrix.baseline)
    if baseline is None:
        return  # baseline itself hung/crashed: already a discrepancy
    expected = (baseline["exit_code"], baseline["output"])
    for config, value in usable.items():
        if value["detected"]:
            judgment.discrepancies.append(Discrepancy(
                "transparency",
                f"{config.key} claimed a violation on a safe-by-"
                f"construction program: {value['trap']}",
                configs=(config.key,), policy=config.policy))
        elif value["trap_kind"]:
            judgment.discrepancies.append(Discrepancy(
                "transparency",
                f"{config.key} trapped on a safe-by-construction "
                f"program: {value['trap']}",
                configs=(config.key,), policy=config.policy))
        elif (value["exit_code"], value["output"]) != expected:
            judgment.discrepancies.append(Discrepancy(
                "transparency",
                f"{config.key} diverged from the unprotected baseline: "
                f"exit {value['exit_code']} != {expected[0]} or output "
                f"differs", configs=(config.key, matrix.baseline.key),
                policy=config.policy))


def _judge_mutated(judgment, by_policy, expected_class, get_policy):
    detecting = sorted(
        policy for policy, runs in by_policy.items()
        if any(value["detected"] for _, value in runs))
    for policy_name, runs in by_policy.items():
        try:
            declared = expected_class in get_policy(policy_name).detects
        except KeyError:
            continue  # policy vanished from the registry mid-campaign
        for config, value in runs:
            if declared and not value["detected"]:
                reference = next((p for p in detecting
                                  if p != policy_name), None)
                judgment.discrepancies.append(Discrepancy(
                    "missed_detection",
                    f"{config.key} declares {expected_class} but ran "
                    f"past the injected defect "
                    f"(outcome: {_value_summary(value)})",
                    configs=(config.key,), policy=policy_name,
                    expected_class=expected_class,
                    reference_policy=reference))
            elif not declared and value["detected"]:
                judgment.discrepancies.append(Discrepancy(
                    "undeclared_detection",
                    f"{config.key} detected {expected_class} but does "
                    f"not declare it: {value['trap']}",
                    configs=(config.key,), policy=policy_name,
                    expected_class=expected_class))


def _judge_consistency(judgment, by_policy):
    """Every configuration of one policy must agree: full
    (exit, output) equality among clean runs, trap-kind equality among
    trapping runs, and no clean/trapping split."""
    for policy_name, runs in by_policy.items():
        if len(runs) < 2:
            continue
        signatures = set()
        for _, value in runs:
            if value["trap_kind"]:
                signatures.add(("trap", value["trap_kind"],
                                value["detected"]))
            else:
                signatures.add(("clean", value["exit_code"],
                                value["output"]))
        if len(signatures) > 1:
            keys = tuple(config.key for config, _ in runs)
            judgment.discrepancies.append(Discrepancy(
                "divergence",
                f"{policy_name}: configurations disagree: "
                + "; ".join(f"{config.key}={_value_summary(value)}"
                            for config, value in runs),
                configs=keys, policy=policy_name))


def _value_summary(value):
    if value["trap_kind"]:
        return f"trap:{value['trap_kind']}"
    return f"exit={value['exit_code']}"
