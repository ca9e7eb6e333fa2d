"""Restricted conjugation machinery for anti-symmetric kernels.

Everything here is a finite maximum: suprema over the domain closure run
over the grid representatives, suprema over the dual ball run over a
DualPointSet. That makes every evaluator an exact finite program, and the
chain of inequalities relating the kernel Lagrangian, its restricted dual
and bidual, and the regularized Hamiltonian holds exactly (up to floating
point rounding) at grid and dual-set points. Away from those points the
defect is controlled by the dual set resolution, reported as ``tol_reg``.

Notation used throughout, for a kernel K on a domain with points x_j and
a dual set with points p_k:

    lagrangian        L(x_i, p)   = max_j  <x_j, p> - K[j, i]
    restricted_dual   L*(q, y)    = max_{j,k} <y, p_k> + <q, x_j> - L(x_j, p_k)
    restricted_bidual L**(y, q)   = max_{j,k} <y, p_k> + <q, x_j> - L*(p_k, x_j)
    ball_hamiltonian  HB(x, y)    = max_k  <x, p_k> - L**(y, p_k)
    regularized       HR(x, y)    = (HB(x, y) - HB(y, x)) / 2

grad1/grad2 are the general central-difference evaluators; the residual
checks use residual_gradients, their bits at the grid pairs (x_{s(i)}, x_i)
from 1 + 2d bidual tables shared by both identities.
"""

from __future__ import annotations

import numpy as np

from .domain import (
    AntiSymmetricKernel,
    DiscreteDomain,
    DualPointSet,
    SampledField,
    check_pairing,
)

__all__ = [
    "lagrangian",
    "lagrangian_at_field",
    "restricted_dual",
    "restricted_bidual",
    "ball_hamiltonian",
    "RegularHamiltonian",
    "regularize",
    "grad1",
    "grad2",
    "residual_gradients",
]

# per-chunk scratch arrays stay below ~16M doubles
_CHUNK_BUDGET = 16_000_000


def lagrangian(
    kernel: AntiSymmetricKernel, dom: DiscreteDomain, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel Lagrangian L(x_i, p) at a single slope p, for every i.

    Returns the value vector and the attaining grid index per i, smallest
    index on ties.
    """
    p = np.asarray(p, dtype=float).reshape(dom.dim)
    z = dom.points @ p  # <x_j, p>
    scores = z[:, None] - kernel.matrix  # [j, i]
    return scores.max(axis=0), scores.argmax(axis=0)


def lagrangian_at_field(
    kernel: AntiSymmetricKernel, dom: DiscreteDomain, fld: SampledField
) -> tuple[np.ndarray, np.ndarray]:
    """L(x_i, u_i) for every i, with argmax indices. The primal workhorse."""
    check_pairing(dom, fld)
    scores = dom.points @ fld.values.T - kernel.matrix  # [j, i]
    return scores.max(axis=0), scores.argmax(axis=0)


def restricted_dual(
    kernel: AntiSymmetricKernel, dom: DiscreteDomain, pset: DualPointSet
) -> np.ndarray:
    """Table L*(p_k, x_i) over the dual set and the grid.

    The (k, i) entry is the exhaustive max over grid x dual-set of the
    Fenchel expression, filled one dual slope at a time.
    """
    x = dom.points
    lh = _lagrangian_table(kernel, dom, pset)  # [k, j] = L(x_j, p_k)
    qx = pset.pts @ x.T  # [k_q, j]
    yp = x @ pset.pts.T  # [i, k_p]
    out = np.empty((pset.m, dom.n))
    for kq in range(pset.m):
        # max over j of <q, x_j> - L(x_j, p_kp), then add <y_i, p_kp>
        b = (qx[kq][None, :] - lh).max(axis=1)  # [k_p]
        out[kq] = (yp + b[None, :]).max(axis=1)
    return out


def _lagrangian_table(
    kernel: AntiSymmetricKernel, dom: DiscreteDomain, pset: DualPointSet
) -> np.ndarray:
    """[k, j] = L(x_j, p_k) over the whole dual set."""
    xp = dom.points @ pset.pts.T  # [j', k]
    out = np.empty((pset.m, dom.n))
    for k in range(pset.m):
        out[k] = (xp[:, k][:, None] - kernel.matrix).max(axis=0)
    return out


def restricted_bidual(
    lstar_table: np.ndarray,
    dom: DiscreteDomain,
    pset: DualPointSet,
    x: np.ndarray,
    p: np.ndarray,
) -> float:
    """L**(x, p) at a single point, max of affine pieces, convex in (x, p)."""
    yp = np.asarray(x, dtype=float).reshape(1, dom.dim) @ pset.pts.T  # [1, k]
    qx = np.asarray(p, dtype=float).reshape(1, dom.dim) @ dom.points.T  # [1, j]
    # running max over k of (<x, p_k> + <p, x_j>) - L*(p_k, x_j)
    acc = np.full(qx.shape, -np.inf)
    for k in range(pset.m):
        np.maximum(acc, (yp[:, k, None] + qx) - lstar_table[k], out=acc)
    return float(acc.max())


def ball_hamiltonian(
    bidual_at_slopes, pset: DualPointSet, x: np.ndarray, y: np.ndarray
) -> float:
    """HB(x, y) = max over dual slopes of <x, p> - L**(y, p).

    ``bidual_at_slopes(y)`` must return the vector of L**(y, p_k) over the
    dual set; RegularHamiltonian provides it.
    """
    lvals = np.asarray(bidual_at_slopes(np.asarray(y, float).reshape(1, -1)))[0]
    xp = pset.pts @ np.asarray(x, dtype=float).reshape(-1)
    return float((xp - lvals).max())


class RegularHamiltonian:
    """Finitely represented convex-concave anti-symmetric Hamiltonian.

    Built from a kernel by restricted double conjugation; evaluable at any
    pair of points in R^d x R^d through nested finite maxima. The
    symmetrized formula makes the sign flip HR(x, y) == -HR(y, x) exact to
    the last bit.
    """

    def __init__(
        self,
        dom: DiscreteDomain,
        pset: DualPointSet,
        lstar_table: np.ndarray,
        radius: float,
    ):
        self.dom = dom
        self.pset = pset
        self.lstar_table = lstar_table
        self.radius = float(radius)
        self._xp = (pset.pts @ dom.points.T).T.copy()  # [j, k] = <p_k, x_j>
        # resolution of the finite dual set, reported with every run
        self.covering_radius = pset.covering_radius()
        self.tol_reg = 2.0 * self.radius * self.covering_radius

    @property
    def lipschitz_bound(self) -> float:
        """Flagging threshold for the empirical Lipschitz quotient, 4 d R."""
        return 4.0 * self.dom.dim * self.radius

    # -- evaluators --------------------------------------------------

    def bidual_at_slopes(self, ys: np.ndarray) -> np.ndarray:
        """[b, k] = L**(y_b, p_k) for every dual slope at once, as two
        running maxima with [b, n] and [b, m] scratch (a max is exact)."""
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        yp = ys @ self.pset.pts.T  # [b, k']
        n, m = self.dom.n, self.pset.m
        out = np.full((len(ys), m), -np.inf)
        step = max(1, _CHUNK_BUDGET // (n + m))
        for lo in range(0, len(ys), step):
            hi = min(lo + step, len(ys))
            # g[b, j] = max_k' <y_b, p_k'> - L*(p_k', x_j)
            g = np.full((hi - lo, n), -np.inf)
            for k in range(m):
                np.maximum(g, yp[lo:hi, k, None] - self.lstar_table[k], out=g)
            # out[b, k] = max_j <p_k, x_j> + g[b, j]
            acc = out[lo:hi]
            for j in range(n):
                np.maximum(acc, self._xp[j] + g[:, j, None], out=acc)
        return out

    def bidual(self, y: np.ndarray, q: np.ndarray) -> float:
        return restricted_bidual(self.lstar_table, self.dom, self.pset, y, q)

    def ball_ham(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """HB at batched pairs; convex piecewise-affine in the first slot."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        lv = self.bidual_at_slopes(ys)  # [b, k]
        return ((xs @ self.pset.pts.T) - lv).max(axis=1)

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """HR at batched pairs, exactly anti-symmetric by construction."""
        return 0.5 * (self.ball_ham(xs, ys) - self.ball_ham(ys, xs))

    def at(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self(np.atleast_2d(x), np.atleast_2d(y))[0])

    def lagrangian_of(self, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """L_{HR}(x_b, p_b) = max over grid y of <y, p_b> - HR(y, x_b)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ps = np.atleast_2d(np.asarray(ps, dtype=float))
        grid, pts_t = self.dom.points, self.pset.pts.T
        tx, tg = self.bidual_at_slopes(xs), self.bidual_at_slopes(grid)
        gp, xp = grid @ pts_t, xs @ pts_t
        # [b, j] = HB(x_j, x_b) and HB(x_b, x_j), as running maxima over k
        hb_gx = np.full((len(xs), self.dom.n), -np.inf)
        hb_xg = hb_gx.copy()
        for k in range(self.pset.m):
            np.maximum(hb_gx, gp[:, k] - tx[:, k, None], out=hb_gx)
            np.maximum(hb_xg, xp[:, k, None] - tg[:, k], out=hb_xg)
        hg = 0.5 * (hb_gx - hb_xg)  # [b, j] = HR(x_j, x_b)
        return (ps @ grid.T - hg).max(axis=1)


def regularize(
    kernel: AntiSymmetricKernel,
    dom: DiscreteDomain,
    pset: DualPointSet,
) -> RegularHamiltonian:
    """Regularized Hamiltonian of a grid kernel.

    The returned object satisfies, exactly up to rounding: the sign flip at
    every probed pair, the growth bound |HR(x,y)| <= R|x| + R|y| + 4R^2,
    and L_{HR}(x_i, p) <= L(x_i, p) for grid points and dual-set slopes.
    """
    if kernel.n != dom.n:
        raise ValueError("kernel size does not match domain")
    lstar = restricted_dual(kernel, dom, pset)
    return RegularHamiltonian(dom, pset, lstar, pset.radius)


def grad1(
    hreg: RegularHamiltonian, x: np.ndarray, y: np.ndarray, h: float
) -> np.ndarray:
    """Central difference gradient in the first slot, one column per coordinate.

    Accepts single points or batches of matching length.
    """
    return _fd_gradient(hreg, x, y, h, slot=0)


def grad2(
    hreg: RegularHamiltonian, x: np.ndarray, y: np.ndarray, h: float
) -> np.ndarray:
    """Central difference gradient in the second slot."""
    return _fd_gradient(hreg, x, y, h, slot=1)


def _fd_gradient(hreg, x, y, h, slot):
    if h <= 0:
        raise ValueError("difference step must be positive")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    if len(xs) == 1 and len(ys) > 1:
        xs = np.repeat(xs, len(ys), axis=0)
    if len(ys) == 1 and len(xs) > 1:
        ys = np.repeat(ys, len(xs), axis=0)
    b, d = xs.shape
    out = np.empty((b, d))
    moving = xs if slot == 0 else ys
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        plus = moving + e
        minus = moving - e
        if slot == 0:
            out[:, k] = (hreg(plus, ys) - hreg(minus, ys)) / (2.0 * h)
        else:
            out[:, k] = (hreg(xs, plus) - hreg(xs, minus)) / (2.0 * h)
    return out if out.shape[0] > 1 else out[0]


def residual_gradients(
    hreg: RegularHamiltonian, perm: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """grad1 and grad2 of HR at (x_{perm(i)}, x_i), [n, d] each, bit for bit.

    x_{perm(i)} +- h e_c is a row permutation of the grid shifted by
    +-h e_c, so the 1 + 2d tables L**(., p_k) at the grid and at its shifts
    serve both slots of both gradients through row gathers. Each table gets
    its own n-row call, as in grad1/grad2: the BLAS product <y, p_k> rounds
    the edge tiles of a batch apart, so one stacked call can move a bit.
    """
    if h <= 0:
        raise ValueError("difference step must be positive")
    grid, pts_t, twoh = hreg.dom.points, hreg.pset.pts.T, 2.0 * h
    perm = np.asarray(perm, dtype=np.intp)
    sx, t0 = grid[perm], hreg.bidual_at_slopes(grid)

    def hr(a, ta, b, tb):
        # HR(a, b) = (HB(a, b) - HB(b, a)) / 2 given ta, tb = L**(a, .), L**(b, .)
        return 0.5 * ((a @ pts_t - tb).max(axis=1) - (b @ pts_t - ta).max(axis=1))

    g1, g2 = np.empty(grid.shape), np.empty(grid.shape)
    for c, s in enumerate(np.eye(grid.shape[1]) * h):
        plus, minus = grid + s, grid - s
        tp, tm = hreg.bidual_at_slopes(plus), hreg.bidual_at_slopes(minus)
        g1[:, c] = (hr(sx + s, tp[perm], grid, t0) - hr(sx - s, tm[perm], grid, t0)) / twoh
        g2[:, c] = (hr(sx, t0[perm], plus, tp) - hr(sx, t0[perm], minus, tm)) / twoh
    return g1, g2
