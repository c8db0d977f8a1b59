"""Span recording around the package's public functions, from outside it.

A :class:`Tracer` replaces module attributes (and two sampler methods) with
wrappers that record one span per call: the function's name, its start and
end on the ``perf_counter`` clock, the span that was open when it was called
(its parent), and an optional work count taken from the arguments or the
result.  Callers inside the package look these names up at call time, in
their own module namespace, so every namespace that holds the original
object gets the wrapper.  A name that no longer exists is skipped: it then
shows up as zero calls, not as an error.

Spans are kept in flat arrays while the run goes on and written out once at
the end; self times (a span's duration minus the time its direct children
cover) and the per-layer metrics are derived from those arrays.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """One traced callable: where it lives and how its work is counted."""

    module: str
    name: str
    owner: str | None = None   # class name for a method, else None
    work: object = None        # (args, kwargs, result) -> float, or None
    failures: object = None    # same signature; failing checks reported

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.name}" if self.owner else self.name


def _batch_elements(args, kwargs, result):
    # batch_values(self, f, length, rngs): one element per row and step
    return float(len(args[3]) * args[2])


def _report_rows(args, kwargs, result):
    return float(len(result.rows))


def _report_failures(args, kwargs, result):
    return float(sum(not row.passed for row in result.rows))


_BOUNDS = ("gap_error_bound", "uniform_error_bound", "gap_burnin",
           "uniform_burnin", "refined_gap_bound", "refined_uniform_bound",
           "gap_endpoint_bounds", "uniform_endpoint_bounds",
           "interpolated_error_bound", "interpolation_exponent",
           "riesz_thorin_exponents")
_PLANNER = ("budget_for_delta", "budget_table", "delta_hat", "delta_star",
            "plan_uniform", "required_n")
_ESTIMATOR = ("estimate_e1", "estimate_e1_windows", "estimate_ep",
              "abs_deviations", "rate_regression", "sample_mean")
_SUITES = ("oracle_suite", "bound_dominance_suite", "rate_suite",
           "constants_suite")

TARGETS: tuple[Target, ...] = (
    Target("mcmc_budget.cli", "main"),
    *(Target("mcmc_budget.validate", name, work=_report_rows,
             failures=_report_failures) for name in _SUITES),
    Target("mcmc_budget.validate", "resolve_model"),
    *(Target("mcmc_budget.estimator", name) for name in _ESTIMATOR),
    Target("mcmc_budget.estimator", "exact_e1_small"),
    Target("mcmc_budget.chains", "derived_rng"),
    Target("mcmc_budget.chains", "batch_values", owner="FiniteChainModel",
           work=_batch_elements),
    Target("mcmc_budget.chains", "batch_values", owner="IidUniformSampler",
           work=_batch_elements),
    *(Target("mcmc_budget.chains", name)
      for name in ("make_chain", "finite_model", "load_chain")),
    *(Target("mcmc_budget.bounds", name) for name in _BOUNDS),
    *(Target("mcmc_budget.planner", name) for name in _PLANNER),
)


class Tracer:
    """Installs span-recording wrappers and holds the recorded spans."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.labels = [target.label for target in self.targets]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.work = array("d")
        self.failures = array("d")
        self._stack = [NO_PARENT]
        self._patches = []   # (holder, attribute, original)
        self.missing = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for name_id, target in enumerate(self.targets):
            module = sys.modules.get(target.module)
            holder = module
            if module is not None and target.owner is not None:
                holder = getattr(module, target.owner, None)
            original = getattr(holder, target.name, None)
            if original is None or not callable(original):
                self.missing.append(target.label)
                continue
            wrapper = self._wrap(original, name_id, target)
            if target.owner is not None:
                self._patch(holder, target.name, original, wrapper)
                continue
            # every package namespace that imported the same object
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mcmc_budget" or \
                        mod_name.startswith("mcmc_budget."):
                    if getattr(mod, target.name, None) is original:
                        self._patch(mod, target.name, original, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        for holder, attribute, original in reversed(self._patches):
            setattr(holder, attribute, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, holder, attribute, original, wrapper) -> None:
        self._patches.append((holder, attribute, original))
        setattr(holder, attribute, wrapper)

    def _wrap(self, fn, name_id: int, target: Target):
        stack = self._stack
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        work, failures = self.work, self.failures
        count_work, count_failures = target.work, target.failures

        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            work.append(0.0)
            failures.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if count_work is not None:
                work[index] = count_work(args, kwargs, result)
            if count_failures is not None:
                failures[index] = count_failures(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output --------------------------------------------------------------

    def spans(self) -> "Spans":
        """A copy of the recorded spans (recording may go on afterwards)."""
        return Spans(labels=list(self.labels),
                     name_ids=np.array(self.name_ids, dtype=np.int32),
                     parents=np.array(self.parents, dtype=np.int32),
                     starts=np.array(self.starts, dtype=np.float64),
                     ends=np.array(self.ends, dtype=np.float64),
                     work=np.array(self.work, dtype=np.float64),
                     failures=np.array(self.failures, dtype=np.float64))


@dataclass
class Spans:
    """Recorded spans as parallel arrays; ``parents`` index into them."""

    labels: list
    name_ids: np.ndarray
    parents: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    work: np.ndarray
    failures: np.ndarray

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), name_ids=self.name_ids,
                 parents=self.parents, starts=self.starts, ends=self.ends,
                 work=self.work, failures=self.failures)

    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Children of one span never overlap (one thread), so summing their
        durations gives the part of the parent's interval they cover.
        """
        durations = self.durations()
        covered = np.zeros_like(durations)
        has_parent = self.parents != NO_PARENT
        np.add.at(covered, self.parents[has_parent], durations[has_parent])
        return durations - covered

    def label_ids(self, *labels) -> np.ndarray:
        """Mask of spans whose label is one of ``labels``."""
        wanted = [self.labels.index(label) for label in labels
                  if label in self.labels]
        return np.isin(self.name_ids, wanted)

    def has_ancestor(self, ancestor_mask: np.ndarray) -> np.ndarray:
        """Mask of spans below (not at) some span selected by the mask.

        Parents are recorded before their children, so one forward pass
        over the spans settles every span.
        """
        below = np.zeros(len(self.parents), dtype=bool)
        inside = ancestor_mask.copy()
        for index, parent in enumerate(self.parents.tolist()):
            if parent != NO_PARENT and inside[parent]:
                below[index] = True
                inside[index] = True
        return below


def layer_metrics(spans: Spans, planning_requests: int) -> dict:
    """Per-layer totals over all recorded spans (seconds and counts)."""
    self_s = spans.self_times()
    durations = spans.durations()

    def self_sum(*labels) -> float:
        return float(self_s[spans.label_ids(*labels)].sum())

    def count(*labels) -> int:
        return int(spans.label_ids(*labels).sum())

    def work_sum(*labels) -> float:
        return float(spans.work[spans.label_ids(*labels)].sum())

    planner_mask = spans.label_ids(*_PLANNER)
    bound_mask = spans.label_ids(*_BOUNDS)
    bound_evals_in_planner = int(
        (bound_mask & spans.has_ancestor(planner_mask)).sum())
    return {
        "cli.self_s": self_sum("main"),
        "validate.self_s": self_sum(*_SUITES, "resolve_model"),
        "validate.checks": work_sum(*_SUITES),
        "validate.checks_failed": float(
            spans.failures[spans.label_ids(*_SUITES)].sum()),
        "estimator.self_s": self_sum(*_ESTIMATOR),
        "estimator.calls": count("estimate_e1", "estimate_e1_windows"),
        "estimator.exact_s": self_sum("exact_e1_small"),
        "estimator.exact_calls": count("exact_e1_small"),
        "chains.derive_s": self_sum("derived_rng"),
        "chains.derive_calls": count("derived_rng"),
        "chains.finite_batch_s": self_sum("FiniteChainModel.batch_values"),
        "chains.finite_batch_elements":
            work_sum("FiniteChainModel.batch_values"),
        "chains.iid_batch_s": self_sum("IidUniformSampler.batch_values"),
        "chains.iid_batch_elements":
            work_sum("IidUniformSampler.batch_values"),
        "chains.model_build_s": self_sum("make_chain", "finite_model",
                                         "load_chain"),
        "bounds.eval_s": self_sum(*_BOUNDS),
        "bounds.eval_calls": count(*_BOUNDS),
        "planner.self_s": self_sum(*_PLANNER),
        "planner.delta_star_s":
            float(durations[spans.label_ids("delta_star")].sum()),
        "planner.required_n_calls": count("required_n"),
        "planner.bound_evals_per_plan":
            bound_evals_in_planner / planning_requests
            if planning_requests else 0.0,
    }
