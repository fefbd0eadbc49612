"""Maximization of entropy-weighted block objectives over the simplex.

For a tensor partitioned into blocks L, a distribution p on L induces
marginals p(X_i) (total mass of blocks using x-part i, likewise per y
and z part).  The per-axis objective is

    value_x(p) = prod_i (|X_i| / p(X_i)) ** p(X_i),

with the convention 0**0 = 1, handled throughout in the log domain:
f_x(p) = log value_x = sum_i p(X_i) (log|X_i| - log p(X_i)), concave in
p and continuous on the closed simplex, so suprema are maxima.

`maximize_symmetric` maximizes f_x over rotation-symmetric distributions
of a symmetric partition, `maximize_product` f_x + f_y + f_z, and
`maximize_minmax` min(f_x, f_y, f_z).  Each objective is concave, so one
start is enough, and one Newton solver (`_solve`) serves all three: it
maximizes sum_a w_a f_a(S x), where S maps orbit or block masses x to
block masses, with the weights w = (1/3, 1/3, 1/3), (1, 1, 1), or for
the max-min the minimizer of the convex dual max_x sum_a w_a f_a(x).
The certificate is the concavity gap at the returned weights: with g
the gradient of sum_a w_a f_a at x, sum_a w_a f_a(x) + max_t g_t - <g, x>
bounds the maximum from above, and the objective at x from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import BlockSet


MARGINAL_CLAMP = 1e-18   # gradient log clamp near the simplex boundary
TOL = 1e-12              # stationarity target of the Newton solver
MAX_STEPS = 200          # Newton steps per solve
GROW_MASS = 1e-8         # mass given to a coordinate joining the support
NOISE = 64 * np.finfo(float).eps  # float noise of an objective, relative
MIN_STEP = 1e-12         # shortest damped step tried
RIDGE = 1e-10            # relative ridge of the weights' Newton system


# -- distributions ---------------------------------------------------------


class BlockDistribution:
    """A probability distribution on the nonzero blocks of a partition."""

    def __init__(self, block_set: BlockSet, probs: dict):
        keys = set(block_set.blocks)
        clean = {}
        total = 0.0
        for key, p in probs.items():
            if key not in keys:
                raise ValueError(f"mass on nonexistent block {key}")
            p = float(p)
            if p < -1e-12:
                raise ValueError(f"negative probability {p} on block {key}")
            p = max(p, 0.0)
            if p:
                clean[key] = p
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.block_set = block_set
        # renormalize away float drift so downstream sums are exact
        self.probs = {k: p / total for k, p in clean.items()}

    def probability(self, key) -> float:
        return self.probs.get(key, 0.0)

    def marginals(self, axis: str) -> list[float]:
        pos = {"x": 0, "y": 1, "z": 2}[axis]
        counts = [0.0] * self.block_set.partition.part_count(axis)
        for key, p in self.probs.items():
            counts[key[pos]] += p
        return counts

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        keys = set(self.block_set.blocks)
        for (i, j, k) in keys:
            if (j, k, i) not in keys:
                return False
            if abs(self.probability((i, j, k)) - self.probability((j, k, i))) > tol:
                return False
        return True

    def __repr__(self):
        items = ", ".join(f"{k}:{p:.6f}" for k, p in sorted(self.probs.items()))
        return f"BlockDistribution({items})"


class SymmetricDistribution(BlockDistribution):
    """A rotation-invariant block distribution."""


@dataclass(frozen=True)
class ObjectiveValue:
    """Per-axis values in the log domain (natural logs)."""

    log_x: float
    log_y: float
    log_z: float

    @property
    def x(self) -> float:
        return math.exp(self.log_x)

    @property
    def y(self) -> float:
        return math.exp(self.log_y)

    @property
    def z(self) -> float:
        return math.exp(self.log_z)

    @property
    def min_log(self) -> float:
        return min(self.log_x, self.log_y, self.log_z)

    @property
    def min_value(self) -> float:
        return math.exp(self.min_log)

    def __iter__(self):
        return iter((self.log_x, self.log_y, self.log_z))


def objective_values(dist: BlockDistribution) -> ObjectiveValue:
    """Evaluate the three axis objectives for a block distribution."""
    logs = []
    for axis in "xyz":
        sizes = dist.block_set.partition.part_sizes(axis)
        logs.append(sum(p * (math.log(s) - math.log(p))
                        for p, s in zip(dist.marginals(axis), sizes) if p > 0.0))
    return ObjectiveValue(*logs)


def block_orbits(block_set: BlockSet) -> list[tuple]:
    """Orbits of the block keys under the rotation (i,j,k) -> (j,k,i).

    Raises if the key set is not closed under rotation (the partition is
    then not symmetric).
    """
    keys = set(block_set.blocks)
    orbits = set()
    for (i, j, k) in sorted(keys):
        orbit = {(i, j, k), (j, k, i), (k, i, j)}
        missing = sorted(orbit - keys)
        if missing:
            raise ValueError(f"block set not rotation closed: {missing[0]} "
                             f"missing for orbit of {(i, j, k)}")
        orbits.add(tuple(sorted(orbit)))
    return sorted(orbits)


def symmetrize(dist: BlockDistribution) -> SymmetricDistribution:
    """Orbit-average a distribution on a symmetric block partition."""
    orbits = block_orbits(dist.block_set)
    probs = {}
    for orbit in orbits:
        avg = sum(dist.probability(k) for k in orbit) / len(orbit)
        for k in orbit:
            probs[k] = avg
    return SymmetricDistribution(dist.block_set, probs)


# -- the solver ---------------------------------------------------------------


class _Problem:
    """The axis objectives f_a(S x) of a block set, as functions of x.

    x holds the masses of groups of blocks (single blocks by default, or
    rotation orbits), spread evenly over each group by S.  incidence[a] =
    A_a S, for the parts x blocks 0/1 incidence matrix A_a of axis a,
    maps x to the axis-a marginals.
    """

    def __init__(self, block_set: BlockSet, groups=None):
        self.keys = sorted(block_set.blocks)
        n = len(self.keys)
        key_pos = {k: i for i, k in enumerate(self.keys)}
        groups = [(k,) for k in self.keys] if groups is None else groups
        self.size = len(groups)
        self.spread = np.zeros((n, self.size))
        for t, group in enumerate(groups):
            self.spread[[key_pos[k] for k in group], t] = 1.0 / len(group)
        self.incidence = []
        self.log_sizes = []
        for pos, axis in enumerate("xyz"):
            sizes = block_set.partition.part_sizes(axis)
            inc = np.zeros((len(sizes), n))
            inc[[k[pos] for k in self.keys], np.arange(n)] = 1.0
            self.incidence.append(inc @ self.spread)
            self.log_sizes.append(np.log(np.asarray(sizes, dtype=float)))

    def block_masses(self, x) -> dict:
        d = self.spread @ x
        return {k: float(d[i]) for i, k in enumerate(self.keys) if d[i] > 0}

    def values(self, x):
        """(f_x, f_y, f_z) at x."""
        out = np.zeros(3)
        for a, (inc, ls) in enumerate(zip(self.incidence, self.log_sizes)):
            m = inc @ x
            pos = m > 0.0
            out[a] = m[pos] @ (ls[pos] - np.log(m[pos]))
        return out

    def grads(self, x):
        """The gradients of f_x, f_y, f_z at x, as the columns of a matrix."""
        return np.stack([
            inc.T @ (ls - np.log(np.maximum(inc @ x, MARGINAL_CLAMP)) - 1.0)
            for inc, ls in zip(self.incidence, self.log_sizes)], axis=1)

    def hessian(self, x, w):
        """-sum_a w_a B_a^T diag(1/m_a) B_a, with B_a = incidence[a]."""
        h = np.zeros((self.size, self.size))
        for inc, wa in zip(self.incidence, w):
            if wa > 0.0:
                h -= (inc.T * (wa / np.maximum(inc @ x, MARGINAL_CLAMP))) @ inc
        return h


def _newton_step(h, on, rhs):
    """For each column r of rhs, the minimum-norm s with h s + nu 1 = r and
    sum(s) = 0 on the coordinates `on`, and s = 0 off them.  The system is
    solved with h scaled to a unit diagonal, so that masses and Hessian
    entries spanning many orders of magnitude keep it well conditioned."""
    d = np.zeros(len(on))
    d[on] = 1.0 / np.sqrt(np.abs(np.diag(h)[on]))
    k = len(d)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = d[:, None] * h * d
    kkt[:k, k] = kkt[k, :k] = d
    rhs = np.vstack([d[:, None] * rhs, np.zeros((1, rhs.shape[1]))])
    return d[:, None] * np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def _trials(v, dv):
    """Damped points v + sigma dv on the simplex: sigma starts at 1, or
    where the first coordinates reach zero (they are then set to 0
    exactly, leaving the support, however short that step), and halves
    down to MIN_STEP."""
    ratio = np.full(len(v), np.inf)
    ratio[dv < 0.0] = v[dv < 0.0] / -dv[dv < 0.0]
    sigma = edge = min(1.0, ratio.min())
    while sigma > MIN_STEP or sigma == edge:
        trial = np.maximum(v + sigma * dv, 0.0)
        if sigma == edge < 1.0:
            trial[ratio <= edge * (1.0 + 1e-9)] = 0.0
        yield trial / trial.sum()
        sigma /= 2.0


def _residual(g, x) -> float:
    """KKT residual of maximizing <g, .> at x on the simplex: the spread
    of g on the support of x, or the excess of g off it."""
    on = x > 0.0
    mu = g[on].mean()
    return float(max(np.abs(g[on] - mu).max(), np.max(g[~on] - mu, initial=0.0)))


def _solve(prob: _Problem, w, x=None):
    """Maximize F(x) = sum_a w_a f_a(x) over the simplex.

    Damped Newton on the support, from the uniform point unless x is
    given.  Steps are minimum-norm KKT solutions, as the Hessian is
    singular whenever variables outnumber parts, and are halved while F
    drops by more than float noise.  Once the support gradients agree,
    coordinates with a larger gradient join the support.  Returns
    (x, iterations, residual).
    """
    x = np.full(prob.size, 1.0 / prob.size) if x is None else x.copy()
    iters = 0
    while iters < MAX_STEPS:
        g = prob.grads(x) @ w
        support = np.flatnonzero(x)
        mu = g[support].mean()
        if np.abs(g[support] - mu).max() <= TOL:
            grow = (x == 0.0) & (g > mu + TOL)
            if not grow.any():
                break
            x[grow] = GROW_MASS
            x /= x.sum()
            continue
        iters += 1
        step = _newton_step(prob.hessian(x, w), x > 0.0, (mu - g)[:, None])[:, 0]
        f0 = w @ prob.values(x)
        for trial in _trials(x, step):
            if w @ prob.values(trial) >= f0 - NOISE * abs(f0):
                break
        else:
            break
        x = trial
    return x, iters, _residual(prob.grads(x) @ w, x)


# -- the three maximizations ---------------------------------------------------


@dataclass
class _Optimum:
    distribution: BlockDistribution
    objective: ObjectiveValue
    log_value: float   # the maximized objective at the distribution
    iterations: int
    kkt_residual: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


@dataclass
class SymmetricOptimum(_Optimum):
    optimality_gap: float


class ProductOptimum(_Optimum):
    """log_value is f_x + f_y + f_z."""


@dataclass
class MinmaxOptimum(_Optimum):
    active_axes: tuple
    axis_weights: dict


def maximize_symmetric(block_set: BlockSet) -> SymmetricOptimum:
    """Maximize f_x over rotation-symmetric block distributions.

    The partition must be symmetric for the tensor (the block set's
    `symmetric` verdict).  The orbit masses are the variables and the
    objective is the mean of the three axis values, which all equal f_x
    there.
    """
    if not block_set.symmetric:
        raise ValueError("partition is not symmetric for this tensor")
    orbits = block_orbits(block_set)
    prob = _Problem(block_set, orbits)
    w = np.full(3, 1.0 / 3.0)
    x, iters, resid = _solve(prob, w)
    dist = SymmetricDistribution(block_set, prob.block_masses(x))
    obj = objective_values(dist)
    g = prob.grads(x) @ w
    return SymmetricOptimum(dist, obj, obj.log_x, iters, resid, float(g.max() - g @ x))


def maximize_product(block_set: BlockSet) -> ProductOptimum:
    """Maximize value_x * value_y * value_z over the full block simplex."""
    prob = _Problem(block_set)
    x, iters, resid = _solve(prob, np.ones(3))
    dist = BlockDistribution(block_set, prob.block_masses(x))
    obj = objective_values(dist)
    return ProductOptimum(dist, obj, obj.log_x + obj.log_y + obj.log_z, iters, resid)


def maximize_minmax(block_set: BlockSet) -> MinmaxOptimum:
    """Maximize min(value_x, value_y, value_z) over the block simplex.

    By minimax this is the minimum over axis weights w of the convex dual
    phi(w) = max_x sum_a w_a f_a(x), with gradient f(x*(w)) and Hessian
    G^T dx*/dw from the inner KKT system (G: the axis gradients).  Newton
    steps on the weights fall back to the Frank-Wolfe step toward the
    lowest axis when they do not descend.  The returned `axis_weights`
    are the multipliers of the axes.
    """
    prob = _Problem(block_set)
    w = np.full(3, 1.0 / 3.0)
    x, iters, resid = _solve(prob, w)
    f = prob.values(x)
    while iters < MAX_STEPS and _residual(-f, w) > TOL:
        iters += 1
        phi = w @ f
        free = (w > 0.0) | (f < phi)
        g = prob.grads(x)
        h = -(g.T @ _newton_step(prob.hessian(x, w), x > 0.0, g))[np.ix_(free, free)]
        h += RIDGE * (1.0 + np.trace(h)) * np.eye(len(h))
        dw = np.zeros(3)
        dw[free] = _newton_step(h, np.ones(len(h), bool), -f[free][:, None])[:, 0]
        if (f - phi) @ dw >= 0.0 or np.any(dw[w == 0.0] < 0.0):
            dw = -w
            dw[np.argmin(f)] += 1.0
        for trial in _trials(w, dw):
            tx, n, tresid = _solve(prob, trial, x)
            iters += n
            tf = prob.values(tx)
            if trial @ tf <= phi + NOISE * abs(phi):
                break
        else:
            break
        w, x, f, resid = trial, tx, tf, tresid
    dist = BlockDistribution(block_set, prob.block_masses(x))
    obj = objective_values(dist)
    return MinmaxOptimum(dist, obj, obj.min_log, iters, max(resid, _residual(-f, w)),
                         tuple(ax for ax, wa in zip("xyz", w) if wa > 0.0),
                         {ax: float(wa) for ax, wa in zip("xyz", w)})
