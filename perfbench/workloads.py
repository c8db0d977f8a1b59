"""Seeded workloads: the command lines the benchmark sends to the CLI.

Every workload is a closed loop with one client: the next command is sent
only after the previous one returned.  Commands come in rounds of a fixed
composition, and each round draws fresh inputs from a generator seeded by
the workload name and the benchmark seed, so the same seed always gives
the same commands, and no two rounds repeat a command (a result cache in the
program would not be rewarded).

plan-mix
    Planning requests in the style of acceptance criterion 2 (random
    ``p``, gap, density ratio, norm and target error), as heuristic-slack
    ``plan``, ``plan --delta``, ``plan --regime uniform`` and ``optimize``,
    plus one ``tables`` per run.  Only ``cli``, ``planner`` and ``bounds``
    run, so this is the control for every simulation change and the
    workload that shows planner changes.
mc-short
    ``validate --suite oracle`` on ``two-state`` and ``lazy-cycle-3``: every
    window with n + n0 <= 8, many replications.  Walks are at most 8 steps,
    so per-replication stream derivation and the exact oracle dominate.
mc-long
    Few replications of long walks: bound dominance (uniform regime, n up
    to 1e4) on ``two-state`` and on ``lazy-cycle-50`` (a 50-state kernel, a
    larger per-step working set), and the heavy-tail rate suite on
    ``iid-uniform`` with ``x**-0.65`` (n up to 1e5; draws without
    stepping).  Stepping, draws, the integrand and window reduction
    dominate.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Op:
    """One CLI command and the inputs a correctness gate needs for it."""

    kind: str                  # plan, optimize, tables or validate
    argv: tuple
    inputs: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _sim_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


# ---------------------------------------------------------------------------
# plan-mix

# Per round: 8 + 8 + 8 plan requests and 4 optimize requests, shuffled.
PLAN_MIX_ROUND = (("plan-heuristic", 8), ("plan-delta", 8),
                  ("plan-uniform", 8), ("optimize", 4))
_CAP_LOG_N = 290.0 * math.log(10.0)   # stay well below the planner's 1e300


def _gap_feasible(p, delta, gap, norm, eps) -> bool:
    """Whether the gap bound drops below ``eps`` long before n = 1e290.

    For ``n * gap >= 1`` the bound is at most ``16 * norm * (n*gap)**a``
    with ``a = (1 + delta)/p - 1 < 0``, so this closed form decides it
    without calling the program under test.
    """
    a = (1.0 + delta) / p - 1.0
    return math.log(16.0 * norm) + a * (_CAP_LOG_N + math.log(gap)) \
        < math.log(eps)


def _heuristic_delta(p, eps, dratio) -> float:
    # The closed form the CLI uses when --delta is absent (see README).  It
    # is written out here so that a change to the planner cannot change the
    # benchmark's inputs.
    log_ratio = math.log(16.0 / eps)
    inner = (math.log(math.log(64.0 * dratio))
             - (p / (p - 1.0)) * log_ratio - math.log(log_ratio))
    return math.sqrt((p - 1.0) / p) * math.exp(0.5 * inner)


def _plan_inputs(rng: random.Random, kind: str, stratum: int,
                 strata: int) -> dict:
    """Draw one feasible planning problem of the given kind.

    Inputs follow criterion 2's distribution, except that ``p`` is drawn
    from slice ``stratum`` of ``strata`` equal slices of its range: the
    planner's cost depends mostly on ``p``, and stratifying it keeps the
    work in one round close to the work in every other.  The target error stays
    below ``4 * norm`` (the bound at the planner's floor ``n = 1/gap`` is at
    least that in both regimes), so the floor never binds and minimality
    is well defined; problems whose answer would pass the planner's cap
    are redrawn, as are heuristic slacks outside ``(0, min(1, p - 1))``.
    """
    while True:
        p = 1.05 + 0.9 * (stratum + rng.random()) / strata
        gap = 10.0 ** rng.uniform(-4.0, 0.0)
        norm = 10.0 ** rng.uniform(-2.0, 2.0)
        # the heuristic slack needs dratio > 1/64 and eps <= 1
        dratio = 10.0 ** rng.uniform(-1.5, 6.0)
        eps = min(1.0, norm) * 10.0 ** rng.uniform(-3.0, 0.0)
        inputs = {"p": p, "eps": eps, "gap": gap, "dratio": dratio,
                  "norm": norm, "regime": "gap"}
        if kind == "plan-uniform":
            inputs.update(regime="uniform", alpha=1.0 - gap,
                          big_m=10.0 ** rng.uniform(0.0, 3.0))
            return inputs
        if kind == "plan-delta":
            inputs["delta"] = rng.uniform(0.05, 0.95) * min(1.0, p - 1.0)
            if _gap_feasible(p, inputs["delta"], gap, norm, eps):
                return inputs
            continue
        heuristic = _heuristic_delta(p, eps, dratio)
        if not 0.0 < heuristic < min(1.0, p - 1.0) or \
                not _gap_feasible(p, heuristic, gap, norm, eps):
            continue
        if kind == "optimize":
            # the optimum needs one feasible slack; half the range will do
            if not _gap_feasible(p, 0.5 * min(1.0, p - 1.0), gap, norm, eps):
                continue
        return inputs


def _plan_argv(kind: str, inputs: dict) -> tuple:
    command = "optimize" if kind == "optimize" else "plan"
    argv = [command]
    for flag in ("p", "eps", "gap", "dratio", "norm", "delta", "alpha",
                 "big_m"):
        if flag in inputs:
            argv += [f"--{flag.replace('_', '-')}", repr(inputs[flag])]
    if inputs["regime"] == "uniform":
        argv += ["--regime", "uniform"]
    return tuple(argv + ["--format", "json"])


def _plan_mix_round(rng: random.Random) -> list:
    slots = [(kind, stratum, count) for kind, count in PLAN_MIX_ROUND
             for stratum in range(count)]
    rng.shuffle(slots)
    ops = []
    for kind, stratum, count in slots:
        inputs = _plan_inputs(rng, kind, stratum, count)
        ops.append(Op(kind="optimize" if kind == "optimize" else "plan",
                      argv=_plan_argv(kind, inputs), inputs=inputs))
    return ops


# ---------------------------------------------------------------------------
# Monte Carlo workloads

MC_SHORT_REPLICATIONS = 20_000
ORACLE_MAX_TOTAL = 8
MC_LONG_DOMINANCE = (("two-state", 1_000), ("lazy-cycle-50", 300))
DOMINANCE_GRID = (10, 100, 1000, 10_000)
MC_LONG_RATE_REPLICATIONS = 500
RATE_GRID = (100, 1000, 10_000, 100_000)
RECHUNK_ELEMENTS = "123457"   # prime, divides none of the batch sizes


def _validate(rng: random.Random, inputs: dict, *flags) -> Op:
    """A validate command; ``inputs`` is the request the gate checks."""
    argv = ("validate", "--chain", inputs["chain"], "--suite",
            inputs["suite"], *flags, "--replications",
            str(inputs["replications"]), "--seed", _sim_seed(rng))
    return Op(kind="validate", argv=argv, inputs=inputs)


def _grid(values) -> str:
    return ",".join(str(value) for value in values)


def _mc_short_round(rng: random.Random) -> list:
    return [_validate(rng, {"suite": "oracle", "chain": chain,
                            "max_total": ORACLE_MAX_TOTAL,
                            "replications": MC_SHORT_REPLICATIONS},
                      "--max-total", str(ORACLE_MAX_TOTAL))
            for chain in ("two-state", "lazy-cycle-3")]


def _mc_long_round(rng: random.Random) -> list:
    ops = [_validate(rng, {"suite": "bound-dominance", "regime": "uniform",
                           "chain": chain, "n_grid": DOMINANCE_GRID,
                           "replications": replications},
                     "--regime", "uniform", "--n-grid", _grid(DOMINANCE_GRID))
           for chain, replications in MC_LONG_DOMINANCE]
    ops.append(_validate(rng, {"suite": "rate", "chain": "iid-uniform",
                               "n_grid": RATE_GRID,
                               "replications": MC_LONG_RATE_REPLICATIONS},
                         "--gamma", "0.65", "--p", "1.5",
                         "--rate-grid", _grid(RATE_GRID)))
    return ops


def rechunked(op: Op) -> Op:
    """The same validate command at a second ``--chunk-elements``."""
    return Op(kind=op.kind, inputs=op.inputs,
              argv=op.argv + ("--chunk-elements", RECHUNK_ELEMENTS))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named workload: its zoo models and its seeded command stream."""

    name: str
    chains: tuple            # zoo models the workload's commands resolve
    make_round: object       # random.Random -> list[Op]
    per_run: tuple = ()      # commands sent once per run, before the rounds
    rechunk_first_round: bool = False

    def stream(self, seed: int):
        """Endless rounds of commands; the same seed gives the same ones."""
        rng = _rng(self.name, seed)
        while True:
            yield self.make_round(rng)


WORKLOADS = {
    "plan-mix": Workload(
        name="plan-mix", chains=(), make_round=_plan_mix_round,
        per_run=(Op(kind="tables", argv=("tables", "--format", "json")),)),
    "mc-short": Workload(
        name="mc-short", chains=("two-state", "lazy-cycle-3"),
        make_round=_mc_short_round, rechunk_first_round=True),
    "mc-long": Workload(
        name="mc-long", chains=("two-state", "lazy-cycle-50", "iid-uniform"),
        make_round=_mc_long_round),
}
