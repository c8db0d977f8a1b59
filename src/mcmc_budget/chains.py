"""Chain testbeds with exactly computable convergence constants.

Two families are provided.  Finite reversible chains admit brute-force
ground truth: the spectral gap comes from an eigendecomposition of the
stationarity-symmetrized transition matrix, and the total-variation decay
constants are certified against exact matrix powers.  A continuous family
(i.i.d. uniform draws and an independence Metropolis sampler on the unit
interval) hosts the heavy-tailed integrands ``x**-gamma`` whose stationary
variance is infinite, which no finite state space can produce.

Randomness is counter-based (Philox) and derived per replication from a
master seed, so every simulation is reproducible independently of execution
order, chunking, or thread count.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import ChainParams
from .exceptions import (
    ChainValidationError,
    DivergenceError,
    DomainError,
    RegimeError,
)

__all__ = [
    "TV_RESOLUTION",
    "FiniteChain",
    "FiniteChainModel",
    "IidUniformSampler",
    "IndepMHSampler",
    "InitialDistribution",
    "PowerLawDensity",
    "SingularFunction",
    "derived_rng",
    "finite_model",
    "indep_mh_sampler",
    "load_chain",
    "make_chain",
    "simulate_trajectory",
    "singular_f",
    "spectral_gap_exact",
    "uniform_ergodicity_constants",
]

_MAX_STATES = 1000
_TV_HORIZON = 200
_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
_BALANCE_TOL = 1e-10

# Below this total-variation level, float64 matrix powers measure the
# rounding of the matrix entries rather than chain convergence (a matrix
# like [[0.9, 0.1], ...] is not exactly stochastic in binary), so decay
# ratios are certified only above it and treated as zero underneath.
TV_RESOLUTION = 64.0 * float(np.finfo(float).eps)


def derived_rng(master_seed: int, replication: int) -> np.random.Generator:
    """Counter-based generator for one replication of one experiment."""
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


def _uniform_draws(rngs, width: int) -> np.ndarray:
    """``width`` uniforms per generator, written in place: row ``r`` holds
    exactly what ``rngs[r].random(width)`` would return."""
    draws = np.empty((len(rngs), width))
    for rng, row in zip(rngs, draws):
        rng.random(out=row)
    return draws


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# finite chains


class FiniteChain:
    """A validated row-stochastic matrix with its stationary distribution.

    Raises :class:`ChainValidationError` naming the violated invariant when
    the matrix is not square, exceeds 1000 states, has negative entries or
    rows that do not sum to 1, when the stationary vector is not invariant,
    or when declared reversibility fails detailed balance.
    """

    def __init__(self, transition, stationary, reversible: bool = False):
        k = np.array(transition, dtype=float)
        _validate_transition(k)
        pi = np.array(stationary, dtype=float)
        if pi.shape != (k.shape[0],):
            raise ChainValidationError(
                "stationary vector length matches the state count")
        if (pi < 0).any():
            raise ChainValidationError("stationary entries are nonnegative")
        if abs(pi.sum() - 1.0) > _STATIONARY_TOL:
            raise ChainValidationError("stationary vector sums to 1")
        if np.abs(pi @ k - pi).max() > _STATIONARY_TOL:
            raise ChainValidationError(
                "stationary vector is invariant under the transition matrix")
        if reversible:
            flow = pi[:, None] * k
            if np.abs(flow - flow.T).max() > _BALANCE_TOL:
                raise ChainValidationError(
                    "detailed balance holds for a reversible chain")
        self.transition = _frozen_array(k)
        self.stationary = _frozen_array(pi)
        self.reversible = bool(reversible)
        cum = np.cumsum(k, axis=1)
        cum[:, -1] = 1.0
        self._cum_rows = _frozen_array(cum)

    @property
    def size(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def from_matrix(cls, matrix, reversible: bool | None = None,
                    stationary=None) -> "FiniteChain":
        """Build a chain from a transition matrix alone.

        The stationary distribution is computed from the eigenvector of the
        transposed matrix at eigenvalue 1; reversibility is auto-detected
        via detailed balance unless declared explicitly.
        """
        k = np.array(matrix, dtype=float)
        _validate_transition(k)
        if stationary is None:
            eigenvalues, eigenvectors = np.linalg.eig(k.T)
            lead = int(np.argmin(np.abs(eigenvalues - 1.0)))
            pi = np.real(eigenvectors[:, lead])
            pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
            pi = pi / pi.sum()
        else:
            pi = np.array(stationary, dtype=float)
        if reversible is None:
            flow = pi[:, None] * k
            reversible = bool(np.abs(flow - flow.T).max() <= _BALANCE_TOL)
        return cls(k, pi, reversible=reversible)


def _validate_transition(k: np.ndarray) -> None:
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ChainValidationError("transition matrix is square")
    if k.shape[0] > _MAX_STATES:
        raise ChainValidationError("state space has at most 1000 states")
    if (k < 0).any():
        raise ChainValidationError("transition entries are nonnegative")
    if np.abs(k.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
        raise ChainValidationError("rows sum to 1")


@dataclass(frozen=True, eq=False)
class InitialDistribution:
    """A start distribution together with its density-ratio distance.

    ``dratio`` is ``max_i |nu_i / pi_i - 1|``, the quantity the burn-in
    recipes must neutralize; it is 0 for a stationary start.
    """

    nu: np.ndarray
    dratio: float

    def __post_init__(self) -> None:
        nu = _frozen_array(self.nu)
        object.__setattr__(self, "nu", nu)
        if (nu < 0).any():
            raise ChainValidationError("nu entries are nonnegative")
        if abs(nu.sum() - 1.0) > _STATIONARY_TOL:
            raise ChainValidationError("nu sums to 1")

    @classmethod
    def against(cls, nu, chain: FiniteChain) -> "InitialDistribution":
        nu = np.array(nu, dtype=float)
        pi = chain.stationary
        if ((pi == 0) & (nu > 0)).any():
            raise ChainValidationError(
                "dratio is finite (nu puts mass where stationary has none)")
        ratio = np.where(pi > 0, np.abs(np.divide(
            nu, pi, out=np.ones_like(nu), where=pi > 0) - 1.0), 0.0)
        return cls(nu, float(ratio.max()))

    @classmethod
    def stationary(cls, chain: FiniteChain) -> "InitialDistribution":
        return cls(chain.stationary.copy(), 0.0)

    @classmethod
    def point_mass(cls, state: int, chain: FiniteChain) -> "InitialDistribution":
        nu = np.zeros(chain.size)
        nu[state] = 1.0
        return cls.against(nu, chain)


# ---------------------------------------------------------------------------
# exact constants


def spectral_gap_exact(chain: FiniteChain) -> float:
    """1 minus the second-largest eigenvalue modulus, exactly.

    Requires reversibility: the transition matrix is then symmetrizable by
    the stationary weights and its spectrum is real, so the operator norm
    equals the spectral radius on the mean-zero subspace.
    """
    if not chain.reversible:
        raise RegimeError(
            "the exact spectral gap needs a reversible chain")
    pi = chain.stationary
    if (pi <= 0).any():
        raise DomainError("stationary distribution must be strictly positive")
    root = np.sqrt(pi)
    sym = (root[:, None] / root[None, :]) * chain.transition
    sym = 0.5 * (sym + sym.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    if len(eigenvalues) == 1:
        return 1.0
    slem = max(abs(float(eigenvalues[0])), abs(float(eigenvalues[-2])))
    return 1.0 - slem


def uniform_ergodicity_constants(chain: FiniteChain) -> tuple[float, float]:
    """Tightest certified total-variation decay constants ``(alpha, big_m)``.

    ``alpha`` is 1 minus the exact spectral gap; ``big_m`` is the largest
    ratio ``TV_n(x) / alpha**n`` over starts ``x`` and ``n`` up to 200,
    computed from matrix powers, so the decay bound holds on that horizon
    by construction.  The ratio scan stops once the computed distance
    falls below :data:`TV_RESOLUTION`, where float64 powers no longer
    carry decay signal.  An i.i.d. chain returns ``(0.0, 1.0)``.
    """
    gap = spectral_gap_exact(chain)
    alpha = 1.0 - gap
    if alpha <= 1e-12:
        return 0.0, 1.0
    if alpha >= 1.0 - 1e-12:
        raise DomainError(
            "chain is periodic or reducible (an eigenvalue has modulus 1)")
    alpha_pow = 1.0
    big_m = 0.0
    for tv in _worst_start_tv(chain, _TV_HORIZON):
        alpha_pow *= alpha
        if alpha_pow == 0.0 or tv <= TV_RESOLUTION:
            break
        big_m = max(big_m, float(tv) / alpha_pow)
    return alpha, big_m if big_m > 0.0 else 1.0


def _worst_start_tv(chain: FiniteChain, horizon: int):
    """Yield ``max_x TV(P^n(x, .), pi)`` for ``n = 1 .. horizon``."""
    pi = chain.stationary
    power = np.eye(chain.size)
    for _ in range(horizon):
        power = power @ chain.transition
        yield 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()


# ---------------------------------------------------------------------------
# simulation


def _batch_states(chain: FiniteChain, nu: InitialDistribution, length: int,
                  rngs) -> np.ndarray:
    """State trajectories, one row per generator, by inverse-CDF stepping.

    Row ``r`` depends only on ``rngs[r]``, so results are identical however
    replications are grouped into batches.
    """
    draws = _uniform_draws(rngs, length)
    states = np.empty((len(rngs), length), dtype=np.int64)
    cum_nu = np.cumsum(nu.nu)
    cum_nu[-1] = 1.0
    x = (cum_nu[None, :] < draws[:, 0:1]).sum(axis=1)
    states[:, 0] = x
    cum_rows = chain._cum_rows
    for t in range(1, length):
        x = (cum_rows[x, :] < draws[:, t:t + 1]).sum(axis=1)
        states[:, t] = x
    return states


def simulate_trajectory(chain: FiniteChain, nu: InitialDistribution,
                        length: int, seed=None) -> np.ndarray:
    """One state trajectory: ``X_1 ~ nu`` and then transition steps."""
    if length < 1:
        raise DomainError("length must be at least 1")
    return _batch_states(chain, nu, length, [_as_generator(seed)])[0]


# ---------------------------------------------------------------------------
# heavy-tailed integrands and continuous samplers


@dataclass(frozen=True)
class PowerLawDensity:
    """The normalized density ``(k+1) * x**k`` on (0, 1], ``k >= 0``.

    ``k = 0`` is the uniform distribution.  The density is bounded by
    ``beta = k + 1``, which is exactly the constant an independence sampler
    with uniform proposals needs.
    """

    k: float

    def __post_init__(self) -> None:
        if self.k < 0:
            raise DomainError("density is unbounded on (0, 1] for k < 0")

    @property
    def beta(self) -> float:
        return self.k + 1.0

    def pdf(self, x):
        return (self.k + 1.0) * np.power(x, self.k)

    def inverse_cdf(self, u):
        return np.power(u, 1.0 / (self.k + 1.0))


_UNIFORM = PowerLawDensity(0.0)


@dataclass(frozen=True)
class SingularFunction:
    """``f(x) = x**-gamma`` on (0, 1] with analytic moments.

    Under the density ``(k+1) x**k`` the mean is ``(k+1)/(k+1-gamma)`` and
    ``lp_norm(p)**p = (k+1)/(k+1-gamma*p)`` whenever ``gamma*p < k+1``;
    otherwise the moment diverges.  The tail index of ``f(X)`` under the
    uniform law is ``kappa = 1/gamma``; the variance is infinite as soon as
    ``gamma >= 1/2``.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("gamma must lie in (0, 1)")

    @property
    def kappa(self) -> float:
        return 1.0 / self.gamma

    def __call__(self, x):
        return np.power(x, -self.gamma)

    def expectation(self, density: PowerLawDensity | None = None) -> float:
        density = density or _UNIFORM
        scale = density.k + 1.0
        return scale / (scale - self.gamma)

    def lp_norm(self, p: float, density: PowerLawDensity | None = None) -> float:
        if p < 1.0:
            raise DomainError("p must be at least 1")
        density = density or _UNIFORM
        scale = density.k + 1.0
        weight = self.gamma * p
        if weight >= scale:
            raise DivergenceError(
                f"the L_{p:g} norm diverges: gamma * p = {weight:g} "
                f">= {scale:g}")
        return (scale / (scale - weight)) ** (1.0 / p)


def singular_f(gamma: float) -> SingularFunction:
    """Heavy-tailed test integrand ``x**-gamma`` with exact moments."""
    return SingularFunction(gamma)


class _ContinuousSampler:
    """Moments of a singular integrand under the sampler's target."""

    target: PowerLawDensity

    def expectation(self, f: SingularFunction) -> float:
        return f.expectation(self.target)

    def lp_norm(self, f: SingularFunction, p: float) -> float:
        return f.lp_norm(p, self.target)


class IidUniformSampler(_ContinuousSampler):
    """Independent uniform draws, viewed as a chain with gap 1."""

    name = "iid-uniform"

    def __init__(self) -> None:
        self.target = _UNIFORM
        self.params = ChainParams(gap=1.0, alpha=0.0, big_m=1.0, dratio=0.0,
                                  reversible=True)

    def batch_values(self, f, length: int, rngs) -> np.ndarray:
        return f(_uniform_draws(rngs, length))


class IndepMHSampler(_ContinuousSampler):
    """Independence Metropolis sampler with uniform proposals.

    The target density must be bounded by some ``beta``; the sampler is
    then uniformly ergodic with ``alpha = 1 - 1/beta``, prefactor 1, and
    spectral gap at least ``1/beta`` (reported as the certified gap).
    Trajectories start from the target itself, so ``dratio = 0``.
    """

    name = "indep-mh"

    def __init__(self, target: PowerLawDensity) -> None:
        self.target = target
        inv_beta = 1.0 / target.beta
        self.params = ChainParams(gap=inv_beta, alpha=1.0 - inv_beta,
                                  big_m=1.0, dratio=0.0, reversible=True)

    def batch_values(self, f, length: int, rngs) -> np.ndarray:
        # one initial inverse-CDF draw, then a (proposal, acceptance) pair
        # per step; row r consumes only rngs[r], keeping batching irrelevant
        draws = _uniform_draws(rngs, 2 * length - 1)
        x = self.target.inverse_cdf(draws[:, 0])
        values = np.empty((len(rngs), length))
        values[:, 0] = f(x)
        for t in range(1, length):
            proposal = draws[:, 2 * t - 1]
            toss = draws[:, 2 * t]
            accept = toss * self.target.pdf(x) <= self.target.pdf(proposal)
            x = np.where(accept, proposal, x)
            values[:, t] = f(x)
        return values


def indep_mh_sampler(target: PowerLawDensity) -> IndepMHSampler:
    """Build an independence Metropolis sampler for a bounded target."""
    return IndepMHSampler(target)


# ---------------------------------------------------------------------------
# models and the chain zoo


@dataclass(frozen=True, eq=False)
class FiniteChainModel:
    """A finite chain bundled with a start law and certified constants."""

    name: str
    chain: FiniteChain
    nu: InitialDistribution
    params: ChainParams

    def expectation(self, f_values) -> float:
        f = np.asarray(f_values, dtype=float)
        if np.all(f == f.flat[0]):
            # a constant integrates to itself exactly; the weighted dot
            # product would leave last-ulp residue from the computed pi
            return float(f.flat[0])
        return float(self.chain.stationary @ f)

    def lp_norm(self, f_values, p: float) -> float:
        if p < 1.0:
            raise DomainError("p must be at least 1")
        weights = np.abs(np.asarray(f_values, dtype=float)) ** p
        return float(self.chain.stationary @ weights) ** (1.0 / p)

    def batch_values(self, f_values, length: int, rngs) -> np.ndarray:
        f = np.asarray(f_values, dtype=float)
        return f[_batch_states(self.chain, self.nu, length, rngs)]


def finite_model(chain: FiniteChain, nu: InitialDistribution | None = None,
                 name: str = "custom") -> FiniteChainModel:
    """Bundle a reversible finite chain with its exact constants."""
    nu = nu if nu is not None else InitialDistribution.stationary(chain)
    gap = spectral_gap_exact(chain)
    alpha, big_m = uniform_ergodicity_constants(chain)
    params = ChainParams(gap=gap, alpha=alpha, big_m=big_m, dratio=nu.dratio,
                         reversible=True)
    return FiniteChainModel(name=name, chain=chain, nu=nu, params=params)


def make_chain(name: str):
    """Look up a built-in testbed by name.

    Finite members: ``two-state`` and ``lazy-cycle-S`` (hold 1/2, step to a
    neighbor with 1/4 each, ``S >= 3``).  Continuous members:
    ``iid-uniform`` and ``indep-mh-2x`` (independence sampler targeting the
    density ``2x``).
    """
    if name == "two-state":
        chain = FiniteChain.from_matrix([[0.9, 0.1], [0.2, 0.8]])
        return finite_model(chain, name=name)
    match = re.fullmatch(r"lazy-cycle-(\d+)", name)
    if match:
        size = int(match.group(1))
        if size < 3:
            raise DomainError("a lazy cycle needs at least 3 states")
        matrix = 0.5 * np.eye(size)
        for i in range(size):
            matrix[i, (i + 1) % size] += 0.25
            matrix[i, (i - 1) % size] += 0.25
        return finite_model(FiniteChain.from_matrix(matrix), name=name)
    if name == "iid-uniform":
        return IidUniformSampler()
    if name == "indep-mh-2x":
        return IndepMHSampler(PowerLawDensity(1.0))
    raise DomainError(f"unknown chain name: {name!r}")


def load_chain(source) -> FiniteChainModel:
    """Load a finite chain from a JSON document or file path.

    The document is ``{"matrix": [[...]], "nu": [...], "reversible": true}``
    with ``nu`` and ``reversible`` optional (stationary start and
    auto-detection by default).  Validation failures name the violated
    invariant.
    """
    if isinstance(source, dict):
        document = source
        name = "inline"
    else:
        path = Path(source)
        document = json.loads(path.read_text())
        name = path.name
    if not isinstance(document, dict):
        raise ChainValidationError("chain document is a JSON object")
    unknown = set(document) - {"matrix", "nu", "reversible"}
    if unknown:
        raise ChainValidationError(
            f"unknown chain fields: {sorted(unknown)}")
    if "matrix" not in document:
        raise ChainValidationError("chain document has a 'matrix' field")
    chain = FiniteChain.from_matrix(document["matrix"],
                                    reversible=document.get("reversible"))
    if "nu" in document:
        nu = InitialDistribution.against(document["nu"], chain)
    else:
        nu = InitialDistribution.stationary(chain)
    return finite_model(chain, nu, name=name)
