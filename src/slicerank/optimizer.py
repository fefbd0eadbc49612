"""Maximization of entropy-weighted block objectives over the simplex.

For a tensor partitioned into blocks L, a distribution p on L induces
marginals p(X_i) (total mass of blocks using x-part i, likewise per y
and z part).  The per-axis objective is

    value_x(p) = prod_i (|X_i| / p(X_i)) ** p(X_i),

with the convention 0**0 = 1, handled throughout in the log domain:
f_x(p) = log value_x = sum_i p(X_i) (log|X_i| - log p(X_i)), concave in
p and continuous on the closed simplex, so suprema are maxima.  A log
of a marginal m reads max(m, MARGINAL_CLAMP), finite at m = 0.

`maximize_symmetric` maximizes f_x over rotation-symmetric distributions
of a symmetric partition, `maximize_product` f_x + f_y + f_z, and
`maximize_minmax` min(f_x, f_y, f_z).  Each objective is concave, so one
start is enough, and one Newton loop, `_maximize`, serves all three.  It
maximizes sum_a w_a f_a(S x), where S maps orbit or block masses x to
block masses, with w held at (1, 0, 0) (on orbit masses the three axes'
incidence matrices are equal, so f_x alone is the objective and the
problem holds the x rows alone) or at (1, 1, 1); for the max-min it
steps on x and on w, the minimizer of the convex dual max_x sum_a w_a
f_a(x), together.  The certificate is the concavity gap at the returned
weights: with g the gradient of sum_a w_a f_a at x, sum_a w_a f_a(x) +
max_t g_t - <g, x> bounds the maximum from above, and the objective at
x from below.

`_Problem` reads a block set through its arrays: `part_rows`, the part
rows of each block in key order (on x alone for the symmetric solve)
and each row's axis, size and summand, and a group array naming the
variable of each block, the block set's `group` (its rotation orbits)
for the symmetric solve, `arange` for single blocks, or by default the
block classes below.
`objective_values` and `summand_optima` read `part_rows` too.  No key
tuple is built until an optimum's `masses` are read (`ArrayMap`).

`maximize_product` and `maximize_minmax` solve on colour classes:
`colour_classes` refines blocks and parts to the coarsest equitable
partition, and `_Problem` takes one variable per block class (its total
mass) and one row per part class, which is exact (see `_Problem`).  On
the cubes of CW_q this turns thousands of blocks and parts into under 50
classes.  The start x_C proportional to |C|, the mass a class gets on
joining the support and the Newton step's metric are the images of those
on single blocks, so the iterates are the block problem's up to
rounding.  The residual and gap are those of the block masses, from the
per-block gradient (`_Problem.blockwise`): a wrong reduction shows as a
large residual, never as a wrong value.  `maximize_symmetric` keeps its
orbit variables, and `objective_values` single blocks.

The max-min is a saddle point of sum_a w_a f_a(x).  Every solve starts
at `_sum_start` (the class-uniform x, each summand of a direct sum
weighted) and, for the max-min, w = 1/3.  Its gap is max g - <g, x>, plus w f - min_a f_a when w moves
(the upper bound above less min_a f_a, 0 only at the saddle point).
Once the support gradients agree, coordinates with a larger gradient
join the support (`_grow`); when none does, a solve with w held stops,
and the max-min once f is also equal on the axes with w_a > 0 and no
lower off them.  With w held a step is one `newton_step` s0 and dw = 0.
Else one `newton_step` gives s0 and S = H^-1 G (G the axis gradients at
x); with h = -G^T S, dw minimizes the predicted (f + G^T s0) dw + dw h
dw / 2 on the simplex, holding at 0 an axis it would drive below
(`_weights_step`, as in Bertsekas's projected Newton method, SIAM J.
Control Optim. 20, 1982), or is 0 if that fails, and dx = s0 - S dw.
The trials (x, w) + sigma (dx, dw), clipped at 0 and renormalized (a
held w is kept as it is), halve sigma from 1 to MIN_STEP; the first whose
gap is below the largest of the last GAP_MEMORY gaps is kept (nonmonotone
acceptance: Grippo, Lampariello and Lucidi, SIAM J. Numer. Anal. 23,
1986).  With w held, a step that leaves the simplex has two first
trials: the point of `_line_start` (see "Step length") and the clipped
point at sigma = 1; the one with the lower gap is kept if that gap is
below the bound.  After a damped trial, or none, w on its simplex edge
along dw, with x at sigma = 1, is kept if its gap is lower.  The loop
ends when no trial is kept, or after MAX_STEPS steps.

A Newton step on k support coordinates solves K = [[-(cD)^T cD, d],
[d^T, 0]], the Hessian -c^T c scaled by D = diag(d) to a unit diagonal,
where c = diag(sqrt(w_a / m_a)) R for R the incidence rows (P parts) of
the axes with w_a > 0 on the support.  On block classes d_C^2 = |C| /
sum_i |D_i| R_iC^2 w_a / m_i instead, |D_i| the parts of row i: |C| times
the unit-diagonal scale of one of its blocks in the block problem, so the
minimum norm below is that of the block masses.  K vanishes off V = D
span(R^T), which holds d as each axis's rows sum to the ones vector.
span(R^T) depends on the support and on which w_a > 0, not on the
masses: with R R^T = E L E^T (eigenvalues above RANK_TOL times the
largest), U = R^T E L^(-1/2) is its orthonormal basis, found once.  In
the basis W of V, D U with columns scaled to unit norm, K_W = [[-(cDW)^T
cDW, W^T d], [d^T W, 0]] is nonsingular (K_W (z, nu) = 0 gives cDWz = 0,
then nu = 0, and Wz in V orthogonal to V), so the step is unique in V
and equals the minimum-norm solution of K.  Up to the column scaling,
with S = diag(sqrt(w_a / m_a)), cDW = S R D^2 R^T E L^(-1/2), W^T (d, D
r) = L^(-1/2) E^T R D^2 (1, r) and s = D W z = D^2 R^T E L^(-1/2) z: a
step costs O(nnz + P^3), plus a P x P eigh per support, and forms no k x
P array.  What depends only on the support and on which w_a > 0 is kept
per such pair, whatever the number of right-hand columns: the entries of
R there, for each pair of entries in one column that column, its cell in
R R^T and the product of their values, E L^(-1/2), and per column count
the flat cells of R D^2 (1, r) and of R^T u; the padded layout of the
stack below, once per set of axes.  A step then makes about fifty numpy
calls and no Python loop: one bincount each for the diagonal, R D^2 R^T,
R D^2 (1, r) and R^T u, five small stacked products and one stacked LU
solve.

Direct sums: `maximize_symmetric` on a `block_sum` solves every summand
at once (a block set that is not a sum is one summand).  Write the orbit
masses as x = (lambda_r y_r)_r, lambda on the simplex and y_r a
distribution on summand r's orbits.  Summand r's orbits
meet only its own parts, and each orbit's x incidence sums to 1, so f(x) =
sum_r lambda_r f_r(y_r) + H(lambda): the maximizer has y_r = argmax f_r and
lambda_r proportional to exp(max f_r), the maximum is log sum_r exp(max
f_r), and on summand r the gradient of f is f_r's minus log lambda_r,
constant there, so each summand's KKT spread is at most twice the sum's.
`summand_optima` reads each summand's optimum off the one solve, from
the block masses in key order (`Optimum.block_mass`).  R is block-diagonal
over the summands, and so are R R^T, its basis and A = (cDW)^T cDW: each
summand has its own Gram matrix and eigh, its rank cut at RANK_TOL times
its own largest eigenvalue, and the summands meet only in the simplex
row, by a Schur complement (`_summed_step`).  Every summand is padded
with zero rows to the largest one's row count, and all of them are one
stack for numpy's stacked matmul, eigh and solve (`_Problem._layout`);
a block set that is not a sum is a stack of one.  The table builders
cap the rows of a run (`bound_engines.SUM_ROW`), which keeps the
padding small.

Step length, with w held: along a step s from x, with m = R x and r = R
s (one bincount each), phi(sigma) = sum_a w_a f_a(x + sigma s) is
concave, with phi'(sigma) = sum_i w_a r_i (log|X_i| - log(m_i + sigma
r_i)) (the -1 terms cancel, as each axis's r sums to sum(s) = 0) and
phi''(sigma) = -sum_i w_a r_i^2 / (m_i + sigma r_i).  For a step that
meets the simplex boundary at sigma = edge < 1, `_line_start` gives the
edge, where the coordinates that reach zero are set to 0, if phi'(edge)
>= 0.  Otherwise (phi'(edge) = -inf when a part marginal reaches zero)
it gives the maximizer of phi in (0, edge), found by safeguarded Newton
on phi', which keeps the support.  Tried alone, that point drops only
the coordinates of one edge per step, so the step count grows with the
number of coordinates that leave the support (28 steps on the T_150
row, 7 with both); the clipped point at sigma = 1 alone drops many at
once, but misses an optimum that the edge reaches in one step (7 steps
on the CW_7 and CW_8 rows, 1 with both).  So both are tried.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor_core import BlockSet


MARGINAL_CLAMP = 1e-18   # log clamp of a marginal near the simplex boundary
TOL = 1e-12              # stationarity target of the Newton solver
MAX_STEPS = 200          # Newton steps per solve
GROW_MASS = 1e-8         # mass given to a coordinate joining the support
MIN_STEP = 1e-12         # shortest damped step tried
RIDGE = 1e-10            # relative ridge of the weights' Newton system
GAP_MEMORY = 5           # max-min gaps a joint trial is compared with (nonmonotone acceptance)
RANK_TOL = 1e-9          # relative eigenvalue cut of a support's Gram matrix R R^T
LINE_STEPS = 8           # safeguarded Newton steps of a line search before the simplex edge


# -- evaluation ----------------------------------------------------------------


def objective_values(block_set: BlockSet, probs: dict) -> tuple:
    """(f_x, f_y, f_z) for a distribution {block key: mass} on the blocks."""
    index = {key: i for i, key in enumerate(block_set.keys())}
    x = np.zeros(len(index))
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
    parts, axis, sizes, _ = block_set.part_rows
    return tuple(map(float, _blockwise(parts, axis, np.log(sizes), x / total, 1.0, 3)[0]))


# -- colour classes -------------------------------------------------------------


def colour_classes(parts, axis, sizes):
    """The coarsest equitable partition of blocks and parts, by colour
    refinement: parts start coloured by (axis, size), a block's colour is
    the triple of its parts' colours, and a part's next colour adds its
    count of incident blocks of each block colour, until the number of
    part colours stops growing.  Then the parts of one class have one size
    and meet equally many blocks of each block class, and the blocks of
    one class meet one part class per axis.

    `parts` holds the three part rows of each block, `axis` and `sizes`
    each row's axis and size.  Returns the class of each block and of each
    row, both numbered by first occurrence.
    """
    colour, first = _labels(axis * (sizes.max() + 1) + sizes)
    while True:
        count = len(first)
        c = colour[parts]
        block, block_first = _labels((c[:, 0] * count + c[:, 1]) * count + c[:, 2])
        nb = len(block_first)
        rows = np.empty((len(axis), nb + 1), np.intp)
        rows[:, 0] = colour
        rows[:, 1:] = np.bincount((parts * nb + block[:, None]).ravel(),
                                  minlength=len(axis) * nb).reshape(-1, nb)
        colour, first = _labels(rows.view(np.dtype((np.void, rows.itemsize * (nb + 1)))).ravel())
        if len(first) == count:
            return _by_first(block, block_first), _by_first(colour, first)


def _labels(a):
    """The class of each entry of a (equal entries share one) and the
    first entry of each class."""
    order = a.argsort(kind="stable")
    a = a[order]
    new = np.ones(len(a), bool)
    new[1:] = a[1:] != a[:-1]
    labels = np.empty(len(a), np.intp)
    labels[order] = new.cumsum() - 1
    return labels, order[new]


def _by_first(labels, first):
    """Labels renumbered by the first entry of each class."""
    rank = np.empty(len(first), np.intp)
    rank[first.argsort()] = np.arange(len(first))
    return rank[labels]


# -- the solver ---------------------------------------------------------------


def _blockwise(parts, label, log_sizes, d, w, count):
    """For block masses d on blocks of part rows `parts` (rows of sizes
    exp(log_sizes)), with m their part marginals (one bincount over all
    entries): sum_i m_i (log|X_i| - log m_i) over the rows of each of
    `count` labels, and per block the sum over its rows of w_i (log|X_i| -
    log m_i - 1), the gradient of sum_i w_i m_i (log|X_i| - log m_i)."""
    m = np.bincount(parts.ravel(), d.repeat(3), len(label))
    h = log_sizes - np.log(np.maximum(m, MARGINAL_CLAMP))
    return np.bincount(label, m * h, count), (w * (h - 1.0))[parts].sum(axis=1)


class _Problem:
    """The axis objectives f_a(S x) of a block set, as functions of x.

    x holds the masses of groups of blocks, spread evenly by S: `group`
    gives the variable of each block in key order (the block set's
    `group`, its rotation orbits, or `arange` for single blocks), or by
    default the block classes of `colour_classes` are the groups.  The
    incidence R stacks the rows x groups matrices A_a S of the first
    `axes` axes of x, y, z (A_a the 0/1 rows x blocks incidence of axis
    a), so R x holds their marginals: x alone serves the symmetric solve,
    as the axes are equal on orbit masses.
    A row is a part, or on block classes a part class, of size the sum of
    its parts' sizes: x_C is then the total mass of class C, and the
    problem is the block problem on the coarser partition.  It is exact:
    with X_b and X_p the averages over block and part classes, R_a X_b =
    X_p R_a by equitability, and f_a(X_p m) >= f_a(m) because X_p m is
    majorized by m (the parts of a class have one size), so every
    objective here has a maximizer constant on the classes.  R is kept
    sparse, sorted by group: R[row[e], col[e]] = val[e], and `axis` names
    each row's axis.  `count`
    holds the number of blocks each variable stands for (1 on orbits),
    `width` the number of parts in each row, and `parts` the part rows of
    each block on those axes in key order, and `part_axis` each part's
    axis, as the block set's `part_rows` number them.
    """

    def __init__(self, block_set: BlockSet, group=None, axes=3):
        self.key_array = block_set.key_array
        parts, part_axis, part_sizes, summand = block_set.part_rows
        n = part_axis.searchsorted(axes)                   # the rows of the first `axes` axes
        self.parts, self.part_axis, part_sizes = parts[:, :axes], part_axis[:n], part_sizes[:n]
        self.part_log_sizes = np.log(part_sizes)
        if group is None:
            group, row = colour_classes(self.parts, self.part_axis, part_sizes)
            lens = np.bincount(group)
            self.count, self.width = lens.astype(float), np.bincount(row)
            self.axis = np.empty(len(self.width), np.intp)
            self.axis[row] = self.part_axis
            self.log_sizes = np.log(np.bincount(row, part_sizes))
            cells = row[self.parts]
            self.summand = np.zeros(len(self.width), np.intp)
        else:
            lens = np.bincount(group)
            self.count, self.width = np.ones(len(lens)), np.ones(len(part_sizes))
            self.axis, self.log_sizes, cells = self.part_axis, self.part_log_sizes, self.parts
            self.summand = summand[:n]
        self.size, self.group, share = len(lens), group, 1.0 / lens
        self.share = share[group]
        rows = len(self.axis)
        cells = (cells + group[:, None] * rows).ravel()
        # sorted by group, then row; the stable sort, as np.sort's kernels
        # would add some 0.4 MB of resident code to a run
        cells = cells[cells.argsort(kind="stable")]
        new = np.ones(len(cells), bool)
        new[1:] = cells[1:] > cells[:-1]                   # a group can meet a row twice
        self.col, self.row = np.divmod(cells[new], rows)
        # n blocks of one group on one row: n equal shares, summed exactly
        self.val = np.bincount(new.cumsum() - 1) * share[self.col]
        self._bases, self._layouts = {}, {}

    def blockwise(self, x, w):
        """The block masses d that x spreads to, in key order, their
        (f_x, f_y, f_z), and the gradient of sum_a w_a f_a at d in the
        block masses, from the part marginals of d (one bincount over all
        entries): on the colour classes a check of the reduction, as the
        gradient is constant on each class only when the classes are
        equitable."""
        d = self.share * x[self.group]
        return (d, *_blockwise(self.parts, self.part_axis, self.part_log_sizes, d,
                               w[self.part_axis], 3))

    def marginals(self, x):
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=len(self.axis))

    def values(self, m):
        """(f_x, f_y, f_z) at the marginals m (a part of mass 0 adds 0)."""
        return np.bincount(self.axis, m * (self.log_sizes - np.log(np.maximum(m, MARGINAL_CLAMP))), 3)

    def grads(self, m):
        """The gradients of f_x, f_y, f_z at the marginals m, as the columns of a matrix."""
        h = self.log_sizes - np.log(np.maximum(m, MARGINAL_CLAMP)) - 1.0
        return np.bincount(3 * self.col + self.axis[self.row], weights=self.val * h[self.row],
                           minlength=3 * self.size).reshape(self.size, 3)

    def newton_step(self, x, m, w, rhs):
        """For each column r of rhs, the minimum-norm s with H s + nu 1 = r and
        sum(s) = 0 on the support of x, and s = 0 off it, for H the Hessian of
        sum_a w_a f_a at x (marginals m); solved in the basis W of the module
        docstring, one block of it per summand."""
        on, pos = x > 0.0, w > 0.0
        key = (on.tobytes(), pos.tobytes())
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = self._basis(on, pos)
        row_at, ax, col, at, val, wval, pair_col, flat, vv, cells, t, cut, spread = basis
        nc = rhs.shape[1]
        if nc not in spread:      # cells of R b in p x (nc + 1), of R^T u in size x nc
            spread[nc] = ((at[:, None] * (nc + 1) + np.arange(nc + 1)).ravel(),
                          (col[:, None] * nc + np.arange(nc)).ravel())
        to_rows, to_cols = spread[nc]
        scale = np.sqrt(w[ax] / np.maximum(m[row_at], MARGINAL_CLAMP))
        norm2 = np.bincount(col, weights=(scale[at] * wval) ** 2, minlength=self.size)
        d2 = np.divide(self.count, norm2, out=np.zeros(self.size), where=on)
        gram = np.bincount(flat, weights=vv * d2[pair_col], minlength=cells)
        b = np.empty((self.size, nc + 1))                 # D^2 (1, rhs)
        b[:, 0] = d2
        np.multiply(d2[:, None], rhs, out=b[:, 1:])
        rb = np.bincount(to_rows, weights=(val * b.take(col, 0)).ravel(),
                         minlength=len(row_at) * (nc + 1))
        u = _summed_step(t, cut, gram, scale, rb)
        s = np.bincount(to_cols, weights=(val * u.take(at, 0)).ravel(),
                        minlength=self.size * nc)
        return d2[:, None] * s.reshape(self.size, nc)

    def _basis(self, on, pos):
        """For the support `on` and the axes `pos` with w_a > 0, in the layout
        of `_layout` (kept per `pos`): the row at each place and its axis, the
        entries of R there (their places), their values (a column) and those
        times the root of their row's width (these enter D), for each pair in
        one column that column, its cell in the stacked R R^T (place of its
        row times k, the padded row count, plus the index of its column's
        row in their summand) and the product of their values, the number of
        cells, and E L^(-1/2) of each summand, with its cut columns zero and
        marked."""
        if pos.tobytes() not in self._layouts:
            self._layouts[pos.tobytes()] = self._layout(pos[self.axis])
        act, row_at, ax_at, place, local, n = self._layouts[pos.tobytes()]
        ent = (on[self.col] & act[self.row]).nonzero()[0]
        col, row, val = self.col[ent], self.row[ent], self.val[ent]
        # pi runs over the entries, each once per entry of its column, and
        # pj over the entries of that column
        count = np.bincount(col)[col]
        pi = np.arange(len(ent)).repeat(count)
        pj = np.arange(len(pi)) - (count.cumsum() - count - col.searchsorted(col))[pi]
        vv = val[pi] * val[pj]
        k = len(row_at) // n
        flat = place[row][pi] * k + local[row][pj]
        lam, v = np.linalg.eigh(np.bincount(flat, weights=vv, minlength=n * k * k).reshape(n, k, k))
        big = lam > RANK_TOL * lam[:, -1:]
        keep = big.argmax(1).min()                    # drop the columns every summand cuts
        big = big[:, keep:]
        t = v[:, :, keep:] / np.sqrt(np.where(big, lam[:, keep:], np.inf))[:, None, :]
        return (row_at, ax_at, col, place[row], val[:, None], val * np.sqrt(self.width[row]),
                col[pi], flat, vv, n * k * k, t, None if big.all() else ~big, {})

    def _layout(self, act):
        """The padded layout of the per-summand algebra on the rows `act` of
        the axes with w_a > 0: the summands with such rows, in order, each
        padded with zero rows to the largest, in one stack.  Returns `act`,
        the row at each place (padding repeats the first row, with zero Gram
        rows) and its axis, by row number (read on `act`) each row's place and
        index in its summand, and the number of summands in the stack."""
        act_rows = act.nonzero()[0]
        summand = self.summand[act_rows]
        sizes = np.bincount(summand, minlength=self.summand.max() + 1)
        k, stack = sizes.max(), (sizes > 0).cumsum() - 1   # each summand's place in the stack
        local, start = np.zeros(len(act), np.intp), (sizes.cumsum() - sizes).repeat(sizes)
        local[act_rows[summand.argsort(kind="stable")]] = np.arange(len(summand)) - start
        place = stack[self.summand] * k + local
        row_at = np.full(k * (stack[-1] + 1), act_rows[0])
        row_at[place[act_rows]] = act_rows
        return act, row_at, self.axis[row_at], place, local, stack[-1] + 1


def _summed_step(t, cut, gram, scale, rb):
    """u = W z for the z of the module docstring, from the stacked Gram
    matrices `gram` of R D^2 R^T, and S and rb = R D^2 (1, r) at each place
    of the padded layout.  With t = E L^(-1/2) per summand c (cut columns
    zero, marked in `cut`), W is t with unit columns, A = (cDW)^T cDW and
    e = W^T (d, D r).  K_W = [[-A, e], [e^T, 0]] with A = diag(A_c) is
    block-diagonal but for the simplex row, so z_c = A_c^-1 (e_c nu - r_c)
    with nu = sum_c e_c A_c^-1 r_c / sum_c e_c A_c^-1 e_c.  A cut column
    gets norm 1 and a unit diagonal in A_c, and so z = 0 there.  An A_c
    left singular by an axis weight all but 0 (rows scaled by sqrt(w_a))
    is inverted on its range."""
    n, k = t.shape[:2]
    gt = gram.reshape(n, k, k) @ t
    norm = np.sqrt(np.einsum("cij,cij->cj", gt, t))               # of the columns of W
    if cut is not None:
        norm[cut] = 1.0
    t = t / norm[:, None, :]
    gt *= scale.reshape(n, k, 1)
    gt /= norm[:, None, :]                                          # c D W, in place of gt
    a = gt.swapaxes(1, 2) @ gt
    if cut is not None:
        a.reshape(n, -1)[:, ::a.shape[-1] + 1] += cut
    e = t.swapaxes(1, 2) @ rb.reshape(n, k, -1)
    try:
        y = np.linalg.solve(a, e)                                   # A_c^-1 (e_c, r_c)
    except np.linalg.LinAlgError:
        y = np.linalg.pinv(a) @ e
    schur = np.einsum("ck,ckr->r", e[..., 0], y)                    # (e A^-1 e, e A^-1 r)
    nu = schur[1:] / schur[0]
    return (t @ (y[..., :1] * nu - y[..., 1:])).reshape(n * k, -1)


def _weights_step(h, r, w):
    """The dw with sum(dw) = 0 and w + dw >= 0 minimizing r dw + dw h dw / 2,
    for h positive definite: the free axes' predicted values r + h dw are
    equal, nu, and a held axis has w + dw = 0 exactly and a predicted
    value of at least nu.  Of the sets of held axes, smallest first, the
    first whose solve meets both is the answer, with h scaled to a unit
    diagonal.  NaN, no weight step to the max-min, when a diagonal entry
    of h is not positive, or when rounding leaves no set that meets both."""
    n = len(w)
    if h.diagonal().min() > 0.0:
        d = 1.0 / np.sqrt(h.diagonal())
        kkt = np.zeros((n + 1, n + 1))      # [[DhD, d], [d^T, 0]] (z, -nu) = (-D r, 0), dw = D z
        kkt[:n, :n] = d[:, None] * h * d
        kkt[:n, n] = kkt[n, :n] = d
        for held in (list(c) for j in range(n) for c in itertools.combinations(range(n), j)):
            k, b = kkt.copy(), np.append(-d * r, 0.0)
            k[held] = 0.0                    # a held axis's row: z_a = -w_a / d_a
            k[held, held] = 1.0
            b[held] = -w[held] / d[held]
            sol = np.linalg.solve(k, b)
            dw = d * sol[:n]
            dw[held] = -w[held]
            if (w + dw).min() >= 0.0 and (r + h @ dw)[held].min(initial=np.inf) >= -sol[n]:
                return dw
    return np.full(n, np.nan)


def _trial(v, dv, start=1.0):
    """The damped point v + sigma dv on the simplex at sigma = `start`, or
    at the edge where the first coordinates reach zero if that comes no
    later (they are then set to 0 exactly, leaving the support, however
    short that step)."""
    neg = (dv < 0.0).nonzero()[0]
    ratio = v[neg] / -dv[neg]
    edge = ratio.min(initial=np.inf)
    trial = np.maximum(v + min(start, edge) * dv, 0.0)
    if edge <= start:
        trial[neg[ratio <= edge * (1.0 + 1e-9)]] = 0.0
    return trial / trial.sum()


def _arc(v, dv, sigma):
    """The projection arc's point at sigma: v + sigma dv clipped at 0 and
    renormalized."""
    u = np.maximum(v + sigma * dv, 0.0)
    return u / u.sum()


def _line_start(prob: _Problem, w, x, m, s) -> float:
    """The sigma of the first trial of the step s from x (marginals m) with
    w held, besides the clipped point at sigma = 1: 1 when the step stays
    in the simplex, and then the two are one; else the edge, where the
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
    at_edge = prob.marginals(_trial(x, s))[on]
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


def _grow(prob: _Problem, x, g, mu) -> bool:
    """Whether coordinates where g exceeds mu, its mean on the support of x,
    by more than TOL join it, at GROW_MASS times their count (in place)."""
    grow = (x == 0.0) & (g > mu + TOL)
    if not grow.any():
        return False
    x[grow] = GROW_MASS * prob.count[grow]
    x /= x.sum()
    return True


def _saddle(prob: _Problem, x, w, move):
    """At (x, w): m = R x, f, G, g = G w, and the gap max g - g x, plus
    w f - min f when w moves."""
    m = prob.marginals(x)
    f, grads = prob.values(m), prob.grads(m)
    g = grads @ w
    return m, f, grads, g, w @ f + g.max() - g @ x - f.min() if move else g.max() - g @ x


def _maximize(prob: _Problem, w, move):
    """Maximize sum_a w_a f_a over the simplex with w held, or the max-min
    when w moves, by the steps of the module docstring from `_sum_start`,
    at most MAX_STEPS.  Returns x, w, the marginals m and the gradient g
    of sum_a w_a f_a at x, and the number of steps."""
    x = _sum_start(prob)
    m, f, grads, g, gap = _saddle(prob, x, w, move)
    gaps = []
    while True:
        g_on = g[x > 0.0]
        mu = g_on.sum() / len(g_on)
        stationary = np.abs(g_on - mu).max() <= TOL
        if stationary and _grow(prob, x, g, mu):
            m, f, grads, g, gap = _saddle(prob, x, w, move)
            continue
        if len(gaps) >= MAX_STEPS or stationary and (not move or _residual(-f, w) <= TOL):
            break
        gaps.append(gap)                                  # one per step
        first = []                        # with w held, `_line_start`'s point, tried at sigma = 1
        if move:
            s = prob.newton_step(x, m, w, np.column_stack([mu - g, grads]))
            h = -grads.T @ s[:, 1:]
            h += RIDGE * (1.0 + np.trace(h)) * np.eye(3)
            dw = _weights_step(h, f + grads.T @ s[:, 0], w)
            dw[np.isnan(dw)] = 0.0                        # no weight step
            dx = s[:, 0] - s[:, 1:] @ dw
        else:
            dx, dw = prob.newton_step(x, m, w, (mu - g)[:, None])[:, 0], np.zeros(3)
            if (start := _line_start(prob, w, x, m, dx)) < 1.0:
                first.append(_trial(x, dx, start))
        bound, kept = max(gaps[-GAP_MEMORY:]), None
        for sigma in 0.5 ** np.arange(-math.log2(MIN_STEP)):   # 1 down to MIN_STEP
            tw = _arc(w, dw, sigma) if move else w
            for tx in [*first, _arc(x, dx, sigma)]:
                if (state := _saddle(prob, tx, tw, move))[-1] < bound:
                    bound, kept = state[-1], ((tx, tw), state)
            if kept is not None:
                break
            first = []
        if sigma < 1.0 and dw.min() < 0.0 < dw.max():   # damped or none kept, and w moves
            trial = _arc(x, dx, 1.0), _trial(w, dw, np.inf)
            if (edge := _saddle(prob, *trial, move))[-1] < bound:
                kept = trial, edge
        if kept is None:
            break
        (x, w), (m, f, grads, g, gap) = kept
    return x, w, m, g, len(gaps)


# -- the three maximizations ---------------------------------------------------


class ArrayMap(Mapping):
    """A read-only {key triple: value} map held as two arrays, `rows` (one
    int key row each, in order) and `values` (one value each), and built
    into a dict of tuple keys and Python values when first read.  The
    arrays are kept, so a copy or pickle carries them, and two threads
    reading it first at once each build an equal dict, one of which is
    kept.  A subclass that keeps other values overrides `_build`."""

    __slots__ = ("_rows", "_values", "_dict")

    def __init__(self, rows, values):
        self._rows, self._values, self._dict = rows, values, None

    def _build(self) -> dict:
        return dict(zip(zip(*self._rows.T.tolist()), self._values.tolist()))

    @property
    def _map(self) -> dict:
        built = self._dict
        if built is None:
            built = self._dict = self._build()
        return built

    def __getitem__(self, key):
        return self._map[key]

    def __iter__(self):
        return iter(self._map)

    def __len__(self):
        return len(self._map)

    def __eq__(self, other):
        return self._map == other

    def __repr__(self):
        return repr(self._map)


@dataclass(frozen=True)
class Optimum:
    """The result of a maximization.

    `masses` is the maximizer {block key: mass}, positive masses only,
    sorted by key, a read-only mapping built when first read (`ArrayMap`);
    `log_values` its (f_x, f_y, f_z), and `log_value` the maximized
    objective there.  `axis_weights` are the weights w the
    solver ended with, and `optimality_gap` is max_t g_t - <g, x> for g the
    gradient of sum_a w_a f_a at the solver's variables x: sum_a w_a f_a
    plus the gap bounds the maximum of that sum from above.  `block_mass`
    holds the mass of every block in key order, zeros included, as the
    solver left it (None on a summand's optimum).
    """

    masses: Mapping
    log_values: tuple
    log_value: float
    iterations: int
    kkt_residual: float
    axis_weights: dict
    optimality_gap: float
    block_mass: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def active_axes(self) -> tuple:
        return tuple(ax for ax, wa in self.axis_weights.items() if wa > 0.0)


def _optimum(prob: _Problem, w, objective, x, iters, resid, f, g, v) -> Optimum:
    """The `Optimum` at the solver's variables x, reached with weights w
    after `iters` steps at residual `resid`, with axis values f and g the
    gradient of sum_a w_a f_a at v (x, or the block masses it spreads to);
    `objective` maps (f_x, f_y, f_z) to the maximized value."""
    d = prob.share * x[prob.group]
    pos = (d > 0).nonzero()[0]
    return Optimum(ArrayMap(prob.key_array[pos], d[pos]), tuple(map(float, f)), float(objective(f)), iters, resid,
                   dict(zip("xyz", map(float, w))), float(g.max() - g @ v), d)


def maximize_symmetric(block_set: BlockSet) -> Optimum:
    """Maximize f_x over rotation-symmetric block distributions.

    The partition must be symmetric for the tensor; the block set's
    `orbits`, decided by `blocks`, are the variables.  The three axes'
    incidence matrices are equal on them, so the objective is f_x alone.
    """
    if not block_set.symmetric:
        raise ValueError("partition is not symmetric for this tensor")
    prob = _Problem(block_set, block_set.group, 1)
    w = np.array([1.0, 0.0, 0.0])
    x, _, m, g, iters = _maximize(prob, w, False)
    return _optimum(prob, w, lambda f: f[0], x, iters, _residual(g, x),
                    prob.values(m)[[0, 0, 0]], g, x)


def _sum_start(prob: _Problem):
    """The start of every solve: on each summand x proportional to
    `prob.count` (uniform on blocks or orbits, its image on block classes),
    and summand r's share proportional to exp f_r there (f_r the sum of
    its rows' values), which is the symmetric optimum when each summand's
    is its start.  On one summand, as on block classes, that is x
    proportional to `prob.count`."""
    summand = prob.summand[prob.row[prob.col.searchsorted(np.arange(prob.size))]]
    x = prob.count / np.bincount(summand, prob.count)[summand]
    m = prob.marginals(x)
    f = np.bincount(prob.summand, m * (prob.log_sizes - np.log(np.maximum(m, MARGINAL_CLAMP))))
    share = np.exp(f - f.max())
    x *= (share / share.sum())[summand]
    return x


def summand_optima(block_set: BlockSet, opt: Optimum) -> list:
    """The `Optimum` of each summand of a `block_sum`, read off `opt`, the
    symmetric optimum of the sum (one block set is its own one summand).

    Summand r's masses are its block masses in `opt.block_mass`,
    renormalized (see "Direct sums" above), keyed by its own part triples.
    Its values, residual and gap are taken there from its own per-block
    gradient of (f_x + f_y + f_z) / 3, which on a symmetric point is the
    orbit gradient of f_x: a wrong split of the sum shows as a large
    residual, never as a wrong value.  `iterations` are those of the one
    solve.
    """
    counts = np.array(block_set.summands)
    if len(counts) == 1:
        return [opt]
    first = np.cumsum(counts, axis=0) - counts      # each summand's first part, per axis
    c = len(counts)
    parts, axis, sizes, row_summand = block_set.part_rows
    summand = row_summand[parts[:, 0]]
    d = opt.block_mass / np.bincount(summand, opt.block_mass, c)[summand]
    f, g = _blockwise(parts, 3 * row_summand + axis, np.log(sizes), d, 1.0 / 3.0, 3 * c)
    # per summand `_residual` and the gap, and the positive masses keyed by
    # the summand's own part triples
    on = d > 0.0
    mu = (np.bincount(summand, g * on, c) / np.bincount(summand, on, c))[summand]
    resid, top = np.zeros(c), np.full(c, -np.inf)
    np.maximum.at(resid, summand, np.where(on, np.abs(g - mu), g - mu))
    np.maximum.at(top, summand, g)
    gap = (top - np.bincount(summand, g * d, c)).tolist()
    pos = on.nonzero()[0]
    rows, masses = (block_set.key_array - first[summand])[pos], d[pos]
    ends = summand[pos].searchsorted(np.arange(c), "right").tolist()
    f, resid = f.reshape(-1, 3).tolist(), resid.tolist()
    return [Optimum(ArrayMap(rows[start:end], masses[start:end]), tuple(f[r]), f[r][0],
                    opt.iterations, resid[r], opt.axis_weights, gap[r])
            for r, (start, end) in enumerate(zip([0] + ends, ends))]


def maximize_product(block_set: BlockSet) -> Optimum:
    """Maximize value_x * value_y * value_z over the full block simplex,
    solved on the colour classes; the residual and gap are those of the
    block masses."""
    prob = _Problem(block_set)
    w = np.ones(3)
    x, _, _, _, iters = _maximize(prob, w, False)
    d, f, g = prob.blockwise(x, w)
    return _optimum(prob, w, sum, x, iters, _residual(g, d), f, g, d)


def maximize_minmax(block_set: BlockSet) -> Optimum:
    """Maximize min(value_x, value_y, value_z) over the block simplex.

    By minimax this is the minimum over axis weights w of the convex dual
    phi(w) = max_x sum_a w_a f_a(x), with gradient f(x*(w)) and Hessian
    G^T dx*/dw from the inner KKT system (G: the axis gradients); solved
    on colour classes by the joint steps of the module docstring, at most
    MAX_STEPS (`iterations`).  `axis_weights` are the axes' multipliers.
    """
    prob = _Problem(block_set)
    x, w, _, _, iters = _maximize(prob, np.full(3, 1.0 / 3.0), True)
    d, f, g = prob.blockwise(x, w)
    return _optimum(prob, w, min, x, iters, max(_residual(g, d), _residual(-f, w)), f, g, d)
