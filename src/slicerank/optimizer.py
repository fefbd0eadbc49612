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
block masses, with the weights w = (1, 0, 0) (on orbit masses the three
axes' incidence matrices are equal, so f_x alone is the objective and
the Newton factor holds one axis's incidence rows, not three copies),
(1, 1, 1), or for the max-min the minimizer of the convex dual
max_x sum_a w_a f_a(x).
The certificate is the concavity gap at the returned weights: with g
the gradient of sum_a w_a f_a at x, sum_a w_a f_a(x) + max_t g_t - <g, x>
bounds the maximum from above, and the objective at x from below.

A Newton step on k support coordinates solves K = [[-(cD)^T cD, d],
[d^T, 0]], the Hessian -c^T c scaled by D = diag(d) to a unit diagonal,
where c holds the at most P incidence rows B (P parts) of the axes with
w_a > 0, scaled by sqrt(w_a / m_a).  K vanishes off V = span((cD)^T, d)
= D span(B^T, 1), and span(B^T, 1) depends on the support and on which
w_a > 0, not on the masses: its orthonormal basis U is found once.  With
Q orthonormal spanning D U, K_Q = [[-(cDQ)^T cDQ, Q^T d], [d^T Q, 0]] is
nonsingular (K_Q (y, nu) = 0 gives cDQy = 0, then nu = 0 and Qy in V
orthogonal to V), so the step is unique in V, equals the minimum-norm
solution of K, and costs an LU solve of size rank(V) + 1.
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
RANK_TOL = 1e-9          # relative singular value cut of a support's span basis


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
        groups = [(k,) for k in self.keys] if groups is None else groups
        self.size = len(groups)
        # block i carries the share 1/len(group) of its group's mass x[group[i]]
        member = {k: (t, 1.0 / len(group)) for t, group in enumerate(groups) for k in group}
        self.group, self.share = map(np.array, zip(*(member[k] for k in self.keys)))
        self.incidence, self.log_sizes = [], []
        for pos, axis in enumerate("xyz"):
            sizes = block_set.partition.part_sizes(axis)
            self.incidence.append(np.zeros((len(sizes), self.size)))
            np.add.at(self.incidence[-1], ([k[pos] for k in self.keys], self.group), self.share)
            self.log_sizes.append(np.log(np.asarray(sizes, dtype=float)))
        self._bases = {}

    def block_masses(self, x) -> dict:
        d = self.share * x[self.group]
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

    def newton_step(self, x, w, rhs):
        """`_newton_step` for the Hessian -c^T c of sum_a w_a f_a at x, c the
        incidence rows of the axes with w_a > 0 scaled by sqrt(w_a / m_a);
        their range basis is kept per support and set of such axes."""
        on, rows = x > 0.0, [(inc, wa) for inc, wa in zip(self.incidence, w) if wa > 0.0]
        key = (on.tobytes(), tuple(w > 0.0))
        if key not in self._bases:
            self._bases[key] = _span_basis(np.vstack([inc[:, on] for inc, _ in rows]))
        c = np.vstack([inc * np.sqrt(wa / np.maximum(inc @ x, MARGINAL_CLAMP))[:, None]
                       for inc, wa in rows])
        return _newton_step(c, on, rhs, self._bases[key])


def _span_basis(rows):
    """An orthonormal basis, as columns, of the span of the ones vector and
    the rows of `rows`, or None when that span is all of R^k."""
    _, sv, vt = np.linalg.svd(np.vstack([rows, np.ones(rows.shape[1])]), full_matrices=False)
    rank = int((sv > RANK_TOL * sv[0]).sum())
    return None if rank == rows.shape[1] else vt[:rank].T


def _newton_step(c, on, rhs, u):
    """For each column r of rhs, the minimum-norm s with -c^T c s + nu 1 = r
    and sum(s) = 0 on the coordinates `on`, and s = 0 off them; solved
    scaled to a unit diagonal, so that masses and Hessian entries spanning
    many orders of magnitude keep it well conditioned, in the basis Q of
    D u for u the `_span_basis` of c's rows on `on` (Q = I if u is None)."""
    c = c[:, on]
    d = 1.0 / np.sqrt(np.einsum("ij,ij->j", c, c))
    q = np.eye(len(d)) if u is None else np.linalg.qr(d[:, None] * u)[0]
    cd, e, r = c * d @ q, d @ q, q.T @ (d[:, None] * rhs[on])
    j = len(e)
    kkt = np.zeros((j + 1, j + 1))
    kkt[:j, :j] = -cd.T @ cd
    kkt[:j, j] = kkt[j, :j] = e
    z = np.linalg.solve(kkt, np.vstack([r, np.zeros((1, r.shape[1]))]))[:j]
    s = np.zeros(rhs.shape)
    s[on] = d[:, None] * (q @ z)
    return s


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
        step = prob.newton_step(x, w, (mu - g)[:, None])[:, 0]
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
    `symmetric` verdict).  The orbit masses are the variables; the three
    axes' incidence matrices are equal on them, so the objective is f_x
    alone, weights (1, 0, 0).
    """
    if not block_set.symmetric:
        raise ValueError("partition is not symmetric for this tensor")
    orbits = block_orbits(block_set)
    prob = _Problem(block_set, orbits)
    w = np.array([1.0, 0.0, 0.0])
    x, iters, resid = _solve(prob, w)
    dist = BlockDistribution(block_set, prob.block_masses(x))
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
        h = -(g.T @ prob.newton_step(x, w, g))[np.ix_(free, free)]
        h += RIDGE * (1.0 + np.trace(h)) * np.eye(len(h))
        dw = np.zeros(3)
        # h is positive definite: with h = L L^T the step solves h dw - nu 1 = -f
        dw[free] = _newton_step(np.linalg.cholesky(h).T, np.ones(len(h), bool),
                                f[free][:, None], None)[:, 0]
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
