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

The max-min is a saddle point of sum_a w_a f_a(x).  `maximize_minmax`
steps on (x, w) together: one `newton_step` gives the inner step s0 and
S = H^-1 G (G the axis gradients at x); dw solves h dw - nu 1 = -(f +
G^T s0), h = -G^T S, f + G^T s0 the axis values predicted after s0, and
dx = s0 - S dw.  The step is kept only when x + dx and w + dw stay in
their simplices and the upper bound above minus min_a f_a (0 only at the
saddle point) does not rise; else a nested step moves w alone.

A Newton step on k support coordinates solves K = [[-(cD)^T cD, d],
[d^T, 0]], the Hessian -c^T c scaled by D = diag(d) to a unit diagonal,
where c = diag(sqrt(w_a / m_a)) R for R the incidence rows (P parts) of
the axes with w_a > 0 on the support.  K vanishes off V = D span(R^T),
which holds d as each axis's rows sum to the ones vector.  span(R^T)
depends on the support and on which w_a > 0, not on the masses: with
R R^T = E L E^T (eigenvalues above RANK_TOL times the largest), U =
R^T E L^(-1/2) is its orthonormal basis, found once.  In the basis W of
V, D U with columns scaled to unit norm, K_W = [[-(cDW)^T cDW, W^T d],
[d^T W, 0]] is nonsingular (K_W (z, nu) = 0 gives cDWz = 0, then nu = 0,
and Wz in V orthogonal to V), so the step is unique in V and equals the
minimum-norm solution of K.  Up to the column scaling, with S =
diag(sqrt(w_a / m_a)), cDW = S R D^2 R^T E L^(-1/2), W^T (d, D r) =
L^(-1/2) E^T R D^2 (1, r) and s = D W z = D^2 R^T E L^(-1/2) z: a step
costs O(nnz + P^3), plus a P x P eigh per support, and forms no k x P
array.  What depends only on the support and on which w_a > 0 is kept
per such pair, whatever the number of right-hand columns: the entries
of R there, for each pair of entries in one column that column, its cell
in R R^T and the product of their values, E L^(-1/2), and per column
count the flat cells of R D^2 (1, r) and of R^T u.  A step then makes
about fifty numpy calls and no Python loop: one bincount each for the
diagonal, R D^2 R^T, R D^2 (1, r) and R^T u, four small products and
one LU solve of the bordered system.

Step length: along a step s from x, with m = R x and r = R s (one
bincount each), phi(sigma) = sum_a w_a f_a(x + sigma s) is concave, with
phi'(sigma) = sum_i w_a r_i (log|X_i| - log(m_i + sigma r_i)) (the -1
terms cancel, as each axis's r sums to sum(s) = 0) and phi''(sigma) =
-sum_i w_a r_i^2 / (m_i + sigma r_i).  A step that meets the simplex
boundary at sigma = edge < 1 stops there, setting the coordinates that
reach zero to 0, only if phi'(edge) >= 0.  Otherwise (phi'(edge) = -inf
when a part marginal reaches zero) it goes to the maximizer of phi in
(0, edge), found by safeguarded Newton on phi', and keeps the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import BlockSet


MARGINAL_CLAMP = 1e-18   # gradient log clamp near the simplex boundary
TINY = 5e-324            # least positive float: log(max(m, TINY)) is log m for m > 0
TOL = 1e-12              # stationarity target of the Newton solver
MAX_STEPS = 200          # Newton steps per solve
GROW_MASS = 1e-8         # mass given to a coordinate joining the support
NOISE = 64 * np.finfo(float).eps  # float noise of an objective, relative
MIN_STEP = 1e-12         # shortest damped step tried
RIDGE = 1e-10            # relative ridge of the weights' Newton system
RANK_TOL = 1e-9          # relative eigenvalue cut of a support's Gram matrix R R^T
LINE_STEPS = 8           # safeguarded Newton steps of a line search before the simplex edge


# -- evaluation ----------------------------------------------------------------


def objective_values(block_set: BlockSet, probs: dict) -> tuple:
    """(f_x, f_y, f_z) for a distribution {block key: mass} on the blocks."""
    prob = _Problem(block_set)
    index = {key: i for i, key in enumerate(prob.keys)}
    x = np.zeros(prob.size)
    for key, p in probs.items():
        if key not in index:
            raise ValueError(f"mass on nonexistent block {key}")
        p = float(p)
        if not math.isfinite(p) or p < -1e-12:
            raise ValueError(f"mass {p} on block {key} is negative or not finite")
        x[index[key]] = max(p, 0.0)
    total = x.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return tuple(map(float, prob.values(prob.marginals(x / total))))


# -- the solver ---------------------------------------------------------------


class _Problem:
    """The axis objectives f_a(S x) of a block set, as functions of x.

    x holds the masses of groups of blocks (single blocks, in key order, by
    default, or the block set's `orbits`), spread evenly by S.  The incidence
    R stacks the parts x groups matrices A_a S of the three axes (A_a the
    0/1 parts x blocks incidence of axis a), so R x holds every marginal.
    It is kept sparse, sorted by group: R[row[e], col[e]] = val[e], and
    `axis` names each row's axis.
    """

    def __init__(self, block_set: BlockSet, groups=None):
        groups = [(k,) for k in block_set.blocks] if groups is None else groups
        keys = [k for group in groups for k in group]
        self.size = len(groups)
        lens = np.fromiter(map(len, groups), np.intp, self.size)
        group, share = np.repeat(np.arange(self.size), lens), 1.0 / lens
        parts = np.fromiter((i for k in keys for i in k), np.intp, 3 * len(keys)).reshape(-1, 3)
        sizes = [block_set.partition.part_sizes(axis) for axis in "xyz"]
        n = [len(s) for s in sizes]
        # blocks in key order; block i carries the share 1/len(group) of its
        # group's mass x[group[i]]
        order = np.argsort((parts[:, 0] * n[1] + parts[:, 1]) * n[2] + parts[:, 2], kind="stable")
        self.keys = [keys[i] for i in order.tolist()]
        self.group = group[order]
        self.share = share[self.group]
        self.axis = np.repeat(np.arange(3), n)
        self.log_sizes = np.log(np.array(sizes[0] + sizes[1] + sizes[2], float))
        cells = (parts + np.array([0, n[0], n[0] + n[1]])).ravel()
        cells += np.repeat(group * len(self.axis), 3)
        # sorted by group, then row; the stable sort, as np.sort's kernels
        # would add some 0.4 MB of resident code to a run
        cells = cells[np.argsort(cells, kind="stable")]
        new = np.ones(len(cells), bool)
        new[1:] = cells[1:] > cells[:-1]                   # an orbit can meet a part twice
        self.col, self.row = np.divmod(cells[new], len(self.axis))
        # n blocks of one group on one part: n equal shares, summed exactly
        self.val = np.bincount(np.cumsum(new) - 1) * share[self.col]
        self._bases = {}

    def block_masses(self, x) -> dict:
        d = (self.share * x[self.group]).tolist()
        return {k: v for k, v in zip(self.keys, d) if v > 0}

    def marginals(self, x):
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=len(self.axis))

    def at(self, x, w):
        """The marginals m of x and sum_a w_a f_a there."""
        m = self.marginals(x)
        return m, w @ self.values(m)

    def values(self, m):
        """(f_x, f_y, f_z) at the marginals m (a part of mass 0 adds 0)."""
        return np.bincount(self.axis, m * (self.log_sizes - np.log(np.maximum(m, TINY))), 3)

    def grads(self, m):
        """The gradients of f_x, f_y, f_z at the marginals m, as the columns of a matrix."""
        h = self.log_sizes - np.log(np.maximum(m, MARGINAL_CLAMP)) - 1.0
        return np.bincount(3 * self.col + self.axis[self.row], weights=self.val * h[self.row],
                           minlength=3 * self.size).reshape(self.size, 3)

    def grad(self, m, w):
        """The gradient of sum_a w_a f_a at the marginals m."""
        h = w[self.axis] * (self.log_sizes - np.log(np.maximum(m, MARGINAL_CLAMP)) - 1.0)
        return np.bincount(self.col, weights=self.val * h[self.row], minlength=self.size)

    def newton_step(self, x, m, w, rhs):
        """For each column r of rhs, the minimum-norm s with H s + nu 1 = r and
        sum(s) = 0 on the support of x, and s = 0 off it, for H the Hessian of
        sum_a w_a f_a at x (marginals m); solved in the basis W of the module docstring."""
        on, pos = x > 0.0, w > 0.0
        key = (on.tobytes(), pos.tobytes())
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = self._basis(on, pos[self.axis])
        act, ax, col, row, val, pair_col, flat, vv, t, spread = basis
        p, nc = len(t), rhs.shape[1]
        if nc not in spread:      # cells of R b in p x (nc + 1), of R^T u in size x nc
            spread[nc] = ((row[:, None] * (nc + 1) + np.arange(nc + 1)).ravel(),
                          (col[:, None] * nc + np.arange(nc)).ravel())
        to_rows, to_cols = spread[nc]
        scale = np.sqrt(w[ax] / np.maximum(m[act], MARGINAL_CLAMP))
        norm2 = np.bincount(col, weights=(scale[row] * val) ** 2, minlength=self.size)
        d2 = np.divide(1.0, norm2, out=np.zeros(self.size), where=on)
        gt = np.bincount(flat, weights=vv * d2[pair_col], minlength=p * p).reshape(p, p) @ t
        norm = np.sqrt(np.einsum("ij,ij->j", gt, t))     # of the columns of W
        t = t / norm
        cdw = np.multiply(gt, scale[:, None], out=gt)    # c D W, in place of gt
        cdw /= norm
        b = np.empty((self.size, nc + 1))                 # D^2 (1, rhs)
        b[:, 0] = d2
        np.multiply(d2[:, None], rhs, out=b[:, 1:])
        rb = np.bincount(to_rows, weights=(val[:, None] * b.take(col, 0)).ravel(),
                         minlength=p * (nc + 1))
        e = t.T @ rb.reshape(p, nc + 1)                   # W^T (d, D rhs)
        u = t @ _bordered(cdw.T @ cdw, e[:, 0], e[:, 1:])
        s = np.bincount(to_cols, weights=(val[:, None] * u.take(row, 0)).ravel(),
                        minlength=self.size * nc)
        return d2[:, None] * s.reshape(self.size, nc)

    def _basis(self, on, act):
        """For the support `on` and the rows `act` of the axes with w_a > 0:
        the indices of those rows, the entries of R there (their rows
        numbered within `act`), for each pair of entries in one column that
        column, its cell in R R^T and the product of their values, and
        E L^(-1/2)."""
        ent = np.flatnonzero(on[self.col] & act[self.row])
        act_rows = np.flatnonzero(act)
        rank, p = np.zeros(len(act), np.intp), len(act_rows)
        rank[act_rows] = np.arange(p)
        col, row, val = self.col[ent], rank[self.row[ent]], self.val[ent]
        # pi runs over the entries, each once per entry of its column, and
        # pj over the entries of that column
        count = np.bincount(col)[col]
        pi = np.arange(len(ent)).repeat(count)
        pj = np.arange(len(pi)) - (np.cumsum(count) - count - np.searchsorted(col, col))[pi]
        flat, vv = row[pi] * p + row[pj], val[pi] * val[pj]
        lam, v = np.linalg.eigh(np.bincount(flat, weights=vv, minlength=p * p).reshape(p, p))
        big = lam > RANK_TOL * lam[-1]
        return (act_rows, self.axis[act_rows], col, row, val, col[pi], flat, vv,
                v[:, big] / np.sqrt(lam[big]), {})


def _bordered(a, e, r):
    """z solving [[-a, e], [e^T, 0]] (z, nu) = (r, 0), for each column of r,
    as [[a, e], [e^T, 0]] (z, -nu) = (-r, 0), which needs no copy of -a."""
    j = len(e)
    kkt = np.empty((j + 1, j + 1))
    kkt[:j, :j] = a
    kkt[:j, j] = kkt[j, :j] = e
    kkt[j, j] = 0.0
    rhs = np.zeros((j + 1, r.shape[1]))
    np.negative(r, out=rhs[:j])
    return np.linalg.solve(kkt, rhs)[:j]


def _newton_step(h, rhs):
    """For each column r of rhs, the s with -h s + nu 1 = r and sum(s) = 0,
    for h positive definite; solved scaled to a unit diagonal.  NaN when a
    diagonal entry of h is not positive."""
    diag = np.diag(h)
    if not diag.min() > 0.0:
        return np.full(rhs.shape, np.nan)
    d = 1.0 / np.sqrt(diag)
    return d[:, None] * _bordered(d[:, None] * h * d, d, d[:, None] * rhs)


def _trials(v, dv, start=1.0):
    """Damped points v + sigma dv on the simplex: sigma starts at `start`,
    or at the edge where the first coordinates reach zero if that comes
    first (they are then set to 0 exactly, leaving the support, however
    short that step), and halves down to MIN_STEP."""
    neg = np.flatnonzero(dv < 0.0)
    ratio = v[neg] / -dv[neg]
    edge = ratio.min(initial=np.inf)
    sigma = top = min(start, edge)
    while sigma > MIN_STEP or sigma == top:
        trial = np.maximum(v + sigma * dv, 0.0)
        if sigma == edge < 1.0:
            trial[neg[ratio <= edge * (1.0 + 1e-9)]] = 0.0
        yield trial / trial.sum()
        sigma /= 2.0


def _line_start(prob: _Problem, w, x, m, s) -> float:
    """The sigma at which the trials of the step s from x (marginals m)
    start: 1 when the step stays in the simplex; else the edge, where the
    first coordinates reach zero, if phi'(edge) >= 0; else the maximizer
    of phi on (0, edge), by safeguarded Newton on phi', or the edge if phi
    is no lower there (phi'(edge) < 0 can be float noise)."""
    neg = s < 0.0
    edge = (x[neg] / -s[neg]).min(initial=1.0)
    if edge >= 1.0:
        return 1.0
    r = prob.marginals(s)
    on = (w[prob.axis] > 0.0) & (r != 0.0)
    wa, r, m, log_sizes = w[prob.axis][on], r[on], m[on], prob.log_sizes[on]
    wr = wa * r
    at_edge = prob.marginals(next(_trials(x, s)))[on]
    if at_edge.min(initial=1.0) > 0.0 and wr @ (log_sizes - np.log(at_edge)) >= 0.0:
        return edge
    lo, hi, sigma = 0.0, edge, edge / 2.0
    for _ in range(LINE_STEPS):
        u = np.maximum(m + sigma * r, MARGINAL_CLAMP)
        d = wr @ (log_sizes - np.log(u))
        lo, hi = (sigma, hi) if d > 0.0 else (lo, sigma)
        sigma += d / (wr @ (r / u))
        if not lo <= sigma <= hi:
            sigma = (lo + hi) / 2.0
    u_edge, u_sigma = (np.maximum(m + t * r, MARGINAL_CLAMP) for t in (edge, sigma))
    phi = lambda u: wa @ (u * (log_sizes - np.log(u)))
    return edge if phi(u_edge) >= phi(u_sigma) else sigma


def _residual(g, x) -> float:
    """KKT residual of maximizing <g, .> at x on the simplex: the spread
    of g on the support of x, or the excess of g off it."""
    on = x > 0.0
    g_on = g[on]
    mu = g_on.sum() / len(g_on)
    return float(max(np.abs(g_on - mu).max(), (g[~on] - mu).max(initial=0.0)))


def _solve(prob: _Problem, w, x=None):
    """Maximize F(x) = sum_a w_a f_a(x) over the simplex.

    Damped Newton on the support, from the uniform point unless x is
    given.  Steps are minimum-norm KKT solutions, as the Hessian is
    singular whenever variables outnumber parts; one that leaves the
    simplex drops the coordinates reaching zero only if phi'(edge) >= 0,
    else stops at the line maximum before the edge (`_line_start`).  Steps
    are halved while F drops by more than float noise.  Once the support
    gradients agree, coordinates with a larger gradient join the support.
    Returns (x, marginals, iterations, residual).
    """
    x = np.full(prob.size, 1.0 / prob.size) if x is None else x.copy()
    m, f0 = prob.at(x, w)
    iters = 0
    while True:
        g = prob.grad(m, w)
        if iters == MAX_STEPS:
            break
        on = x > 0.0
        g_on = g[on]
        mu = g_on.sum() / len(g_on)
        if np.abs(g_on - mu).max() <= TOL:
            grow = ~on & (g > mu + TOL)
            if not grow.any():
                break
            x[grow] = GROW_MASS
            x /= x.sum()
            m, f0 = prob.at(x, w)
            continue
        iters += 1
        step = prob.newton_step(x, m, w, (mu - g)[:, None])[:, 0]
        for trial in _trials(x, step, _line_start(prob, w, x, m, step)):
            tm, tf = prob.at(trial, w)
            if tf >= f0 - NOISE * abs(f0):
                break
        else:
            break
        x, m, f0 = trial, tm, tf
    return x, m, iters, _residual(g, x)


# -- the three maximizations ---------------------------------------------------


@dataclass(frozen=True)
class Optimum:
    """The result of a maximization.

    `masses` is the maximizer {block key: mass}, positive masses only,
    sorted by key; `log_values` its (f_x, f_y, f_z), and `log_value` the
    maximized objective there.  `axis_weights` are the weights w of the
    last `_solve`, and `optimality_gap` is max_t g_t - <g, x> for g the
    gradient of sum_a w_a f_a at the solver's variables x: sum_a w_a f_a
    plus the gap bounds the maximum of that sum from above.
    """

    masses: dict
    log_values: tuple
    log_value: float
    iterations: int
    kkt_residual: float
    axis_weights: dict
    optimality_gap: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def active_axes(self) -> tuple:
        return tuple(ax for ax, wa in self.axis_weights.items() if wa > 0.0)


def _optimum(prob: _Problem, w, objective, x, m, iters, resid) -> Optimum:
    """The `Optimum` at x (marginals m), where `_solve` with weights w
    stopped after `iters` steps at residual `resid`; `objective` maps
    (f_x, f_y, f_z) to the maximized value."""
    f, g = prob.values(m), prob.grad(m, w)
    return Optimum(prob.block_masses(x), tuple(map(float, f)), float(objective(f)),
                   iters, resid, dict(zip("xyz", map(float, w))), float(g.max() - g @ x))


def maximize_symmetric(block_set: BlockSet) -> Optimum:
    """Maximize f_x over rotation-symmetric block distributions.

    The partition must be symmetric for the tensor; the block set's
    `orbits`, decided by `blocks`, are the variables.  The three axes'
    incidence matrices are equal on them, so the objective is f_x alone.
    """
    if not block_set.symmetric:
        raise ValueError("partition is not symmetric for this tensor")
    prob = _Problem(block_set, block_set.orbits)
    w = np.array([1.0, 0.0, 0.0])
    return _optimum(prob, w, lambda f: f[0], *_solve(prob, w))


def maximize_product(block_set: BlockSet) -> Optimum:
    """Maximize value_x * value_y * value_z over the full block simplex."""
    prob = _Problem(block_set)
    w = np.ones(3)
    return _optimum(prob, w, sum, *_solve(prob, w))


def maximize_minmax(block_set: BlockSet) -> Optimum:
    """Maximize min(value_x, value_y, value_z) over the block simplex.

    By minimax this is the minimum over axis weights w of the convex dual
    phi(w) = max_x sum_a w_a f_a(x), with gradient f(x*(w)) and Hessian
    G^T dx*/dw from the inner KKT system (G: the axis gradients).  Each
    iteration tries the joint step on (x, w) of the module docstring; the
    nested step that replaces it is Newton on the weights, or Frank-Wolfe
    toward the lowest axis when that does not descend, and keeps a damped
    trial whose inner solve converges with phi below the upper bound at
    (x, w).  `iterations` counts joint and inner steps.  The returned
    `axis_weights` are the multipliers of the axes.
    """
    prob = _Problem(block_set)
    w = np.full(3, 1.0 / 3.0)
    x, m, iters, resid = _solve(prob, w)
    f = prob.values(m)
    while iters < MAX_STEPS and max(resid, _residual(-f, w)) > TOL:
        iters += 1
        phi, on, grads = w @ f, x > 0.0, prob.grads(m)
        g = grads @ w
        upper, free = phi + g.max() - g @ x, (w > 0.0) | (f < phi)
        s = prob.newton_step(x, m, w, np.column_stack([g[on].mean() - g, grads]))
        h = -(grads.T @ s[:, 1:])[np.ix_(free, free)]
        h += RIDGE * (1.0 + np.trace(h)) * np.eye(len(h))
        dw = np.zeros(3)
        dw[free] = _newton_step(h, (f + grads.T @ s[:, 0])[free][:, None])[:, 0]
        tx, tw = x + s[:, 0] - s[:, 1:] @ dw, w + dw
        # a joint step cannot grow the support: once x is stationary on it, nest
        if min(tx.min(), tw.min()) >= 0.0 and max(_residual(g[on], x[on]), _residual(-f, w)) > TOL:
            tm = prob.marginals(tx)
            tf, tg = prob.values(tm), prob.grads(tm) @ tw
            if tw @ tf + tg.max() - tg @ tx - tf.min() <= upper - f.min():
                x, w, m, f, resid = tx, tw, tm, tf, _residual(tg, tx)
                continue
        dw[free] = _newton_step(h, f[free][:, None])[:, 0]    # h dw - nu 1 = -f
        if not (f - phi) @ dw < 0.0 or np.any(dw[w == 0.0] < 0.0):    # or NaN
            dw = -w
            dw[np.argmin(f)] += 1.0
        for trial in _trials(w, dw):
            tx, tm, n, tresid = _solve(prob, trial, x)
            iters += n
            tf = prob.values(tm)
            if tresid <= TOL and trial @ tf <= upper + NOISE * abs(upper):
                break
        else:
            break
        w, x, m, f, resid = trial, tx, tm, tf, tresid
    x, m, n, resid = _solve(prob, w, x)
    f = prob.values(m)
    return _optimum(prob, w, min, x, m, iters + n, max(resid, _residual(-f, w)))
