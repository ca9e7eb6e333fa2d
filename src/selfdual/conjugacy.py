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
    lstar_table       L*(q, y)    = max_{j,k} <y, p_k> + <q, x_j> - L(x_j, p_k)
    bidual_at_slopes  L**(y, q)   = max_{j,k} <y, p_k> + <q, x_j> - L*(p_k, x_j)
    ball_ham          HB(x, y)    = max_k  <x, p_k> - L**(y, p_k)
    regularized       HR(x, y)    = (HB(x, y) - HB(y, x)) / 2

On the grid and the dual set each table is a max-plus matrix product
(A (x) B)[r, c] = max_s A[r, s] + B[s, c] of the pairing E[j, k] = <x_j, p_k>
(_grid_pairing, the one grid x dual-set product) with -K, -L or -L*:

    L[k, i]        = (E^T (x) -K)[k, i]               L(x_i, p_k)
    L*^T[i, k]     = ((E (x) -L) (x) E)[i, k]         L*(p_k, x_i)
    L**(y_b, p_k)  = ((Y (x) -L*) (x) E)[b, k]        Y[b, k'] = <y_b, p_k'>

with m dual points and n grid points, L* in 3 m n^2 cells through an [n, n]
table. _maxplus is the one loop behind every table. It subtracts K, L and L*
where the formulas add their negations, since a - b is exactly a + (-b), so
no negated copy is built. Each piece is one IEEE operation and a max is
exact, and one worker reduces each output cell in the order of the shared
index, which also settles a tie of +0.0 and -0.0 the same way each time; so
no table depends on its row blocks or on the number W of workers that share
a large product's rows, and all W together hold the one serial block of
scratch (see _maxplus). regularize frees the kernel once L is formed, when
the caller hands it over, and L once the [n, n] table is formed, so the
chain holds at most one of K and L beside E and its product.

grad1 is the general central-difference evaluator, and grad2 is grad1 at
the swapped pair, negated (HR(x, y) == -HR(y, x) to the last bit). The
residual checks use residual_gradients, grad1's bits at the grid pairs
(x_{s(i)}, x_i) at the Hamiltonian's one step, fd_step = FD_STEP_REL R.
It forms the bidual table at the grid a block of rows at a time, and reads
the 2d tables at the grid shifted by +-h e_c only at the pieces whose
maximum a step of h can move: every piece is affine with slope at most
R_p = max |p_k|, so a piece more than 2 (h R_p + delta) below its maximum
stays below it, delta being a rounding allowance (_candidate_margin derives
it). A float max over a superset of the argmax is the same float, so the
bits do not change. It never holds two shifted [n, m] products at once:
in d = 1 it computes each entry it reads as one rounded product, and in
d >= 2 it recomputes a product for each group of candidates that reads it.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .domain import (
    AntiSymmetricKernel,
    DiscreteDomain,
    DualPointSet,
    check_permutation,
    row_blocks,
    row_norms,
)

__all__ = [
    "FD_STEP_REL",
    "RegularHamiltonian",
    "regularize",
    "grad1",
    "grad2",
    "residual_gradients",
]

# the difference step of the residual check, as a fraction of the dual
# ball's radius R: RegularHamiltonian.fd_step = FD_STEP_REL * R
FD_STEP_REL = 1e-4

# residual_gradients tests candidates in row blocks (domain.row_blocks)
# and gathers them in groups of about this many candidates
_GROUP_BUDGET = 1 << 10
# residual_gradients forms the grid bidual t0 in row blocks: of at most
# domain.ROW_BLOCK entries in d = 1, and in d >= 2, where each block re-runs
# the 2d shifted n-row products of the dense half, in this many blocks
_BIDUAL_BLOCKS = 4
# _maxplus takes its rows in blocks of at most this many [row, s, c] cells,
# and a block must stay below decompose's peak, the residual pass. Beside
# its result a broadcasting call traces np.getbufsize() cells (8192, 64 KiB;
# fewer in a smaller call) of iteration buffer per operand numpy buffers:
# one in a one-row call of [1, 196, 325] cells, two in one of [4, 64, 64]
_MAXPLUS_BUDGET = 1 << 13
# _maxplus shares a product among workers only where each worker's calls
# hold at least this many cells: on 2 cores, 128-row products took 1.48x
# the one-worker time with calls of 12288 cells and 0.82x with 16384, and
# half-row calls of 8384 cells made the sincos-128 chain 1.44x slower
_WORKER_CELLS = 1 << 14
# the CPUs this process may run on
if hasattr(os, "sched_getaffinity"):
    _CPUS = len(os.sched_getaffinity(0))
else:
    _CPUS = os.cpu_count() or 1


def _grid_pairing(dom: DiscreteDomain, pset: DualPointSet) -> np.ndarray:
    """E[j, k] = <x_j, p_k>, the one grid x dual-set product.

    Every table reads this product or its transpose and never recomputes it
    as pts @ points.T, which BLAS rounds apart from it in the last bit.
    """
    return dom.points @ pset.pts.T


def _maxplus(a: np.ndarray, b: np.ndarray, op=np.add, out=None) -> np.ndarray:
    """Max-plus product out[r, c] = max_s op(a[r, s], b[s, c]), op np.add or
    np.subtract. a - b is exactly a + (-b), so subtracting gives the bits of
    adding a negated copy of b without building it. out, if given, is any
    [r, c] array or view the result is written into; a strided one gets each
    row or block copied in, since a reduction straight into it runs in its
    memory order, slowly.

    For a of shape [r, s] and b of shape [s, c] the rows run on
    W = min(_CPUS, s c // _WORKER_CELLS, r, s) workers, at least 1: the
    calling thread and W - 1 threads it starts and joins, with no pool kept
    between calls. One worker takes its rows in blocks of at most
    _MAXPLUS_BUDGET [row, s, c] cells (one row if b is larger). W > 1
    workers each take a contiguous share of the rows, one row at a time,
    and a row's shared index in W contiguous parts, whose maxima they fold
    into the row in order. So all W together hold one row's s c cells of
    scratch, as one worker does, plus numpy's iteration buffers of each call.
    Each output cell is reduced by one worker in the order of s, and numpy's
    maximum keeps its second operand on a tie of +0.0 and -0.0, the later
    piece, both in a reduction and in the fold; so a table's bits do not
    depend on W. An exception in any worker is raised in the caller once
    every worker has been joined."""
    b = np.ascontiguousarray(b)
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    workers = min(_CPUS, b.size // _WORKER_CELLS, *a.shape)
    if workers > 1:
        return _maxplus_workers(a, b, op, out, workers)
    for rows in row_blocks(a.shape[0], b.size, _MAXPLUS_BUDGET):
        if out[rows].flags.c_contiguous:
            op(a[rows, :, None], b).max(axis=1, out=out[rows])
        else:
            out[rows] = op(a[rows, :, None], b).max(axis=1)
    return out


def _maxplus_workers(a, b, op, out, workers: int) -> np.ndarray:
    """_maxplus on workers > 1: a contiguous share of the rows each, the
    first one on the calling thread. Kept out of _maxplus: its names would
    grow the one-worker loop's frame, which counts in decompose's peak."""
    n, s = a.shape
    shares = [range(n * q // workers, n * (q + 1) // workers) for q in range(workers)]
    parts = [slice(s * q // workers, s * (q + 1) // workers) for q in range(workers)]
    errors = []
    threads = []
    try:
        for rows in shares[1:]:
            args = (a, b, op, out, rows, parts, errors)
            threads.append(threading.Thread(target=_maxplus_share, args=args))
            threads[-1].start()
        _maxplus_share(a, b, op, out, shares[0], parts, errors)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return out


def _maxplus_share(a, b, op, out, rows, parts, errors) -> None:
    """One worker's rows of _maxplus, each row's shared index taken in
    parts whose maxima are folded into the row in order. An exception is
    appended to errors, for the caller to raise once every worker is joined."""
    try:
        row, part_max = np.empty(b.shape[1]), np.empty(b.shape[1])
        for r in rows:
            op(a[r, parts[0], None], b[parts[0]]).max(axis=0, out=row)
            for part in parts[1:]:
                op(a[r, part, None], b[part]).max(axis=0, out=part_max)
                np.maximum(row, part_max, out=row)
            out[r] = row
    except BaseException as exc:  # raised again in the caller
        errors.append(exc)


class RegularHamiltonian:
    """Finitely represented convex-concave anti-symmetric Hamiltonian.

    Built from a kernel by restricted double conjugation; evaluable at any
    pair of points in R^d x R^d through nested finite maxima. The
    symmetrized formula makes the sign flip HR(x, y) == -HR(y, x) exact to
    the last bit.
    """

    def __init__(
        self, dom: DiscreteDomain, pset: DualPointSet, xp: np.ndarray, lstar: np.ndarray
    ):
        """From the grid pairing xp[j, k] = <x_j, p_k> and the table
        lstar[k, i] = L*(p_k, x_i); regularize builds both from a kernel."""
        self.dom = dom
        self.pset = pset
        self._xp = xp
        self.lstar_table = lstar
        # the dual set's resolution and the residual step, reported with every run
        self.covering_radius = pset.covering_radius()
        self.tol_reg = 2.0 * pset.radius * self.covering_radius
        self.fd_step = FD_STEP_REL * pset.radius

    # -- evaluators --------------------------------------------------

    def bidual_at_slopes(self, ys: np.ndarray) -> np.ndarray:
        """[b, k] = L**(y_b, p_k) for every dual slope at once, as the
        max-plus products (Y (x) -L*) (x) E with Y[b, k'] = <y_b, p_k'>."""
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        return _maxplus(self._inner_table(ys), self._xp)

    def _inner_table(self, ys: np.ndarray) -> np.ndarray:
        """The first product of bidual_at_slopes at [b, d] points ys: the
        [b, n] table g[b, j] = max_k' <y_b, p_k'> - L*(p_k', x_j), whose
        pieces <p_k, x_j> + g[b, j] the outer maximum runs over. A computed
        Y is freed before it returns."""
        y = self._xp if ys is self.dom.points else ys @ self.pset.pts.T  # E at the grid
        return _maxplus(y, self.lstar_table, np.subtract)

    def ball_ham(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """HB at batched pairs; convex piecewise-affine in the first slot."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        lv = self.bidual_at_slopes(ys)  # [b, k]
        return ((xs @ self.pset.pts.T) - lv).max(axis=1)

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """HR at batched pairs, exactly anti-symmetric by construction."""
        return 0.5 * (self.ball_ham(xs, ys) - self.ball_ham(ys, xs))


def regularize(
    kernel: AntiSymmetricKernel,
    dom: DiscreteDomain,
    pset: DualPointSet,
) -> RegularHamiltonian:
    """Regularized Hamiltonian of a grid kernel.

    The returned object satisfies, exactly up to rounding: the sign flip at
    every probed pair, the growth bound |HR(x,y)| <= R|x| + R|y| + 4R^2,
    and L_{HR}(x_i, p) <= L(x_i, p) for grid points and dual-set slopes.

    L* is the chain of products L = E^T (x) -K, the [n, n] table E (x) -L,
    then its product with E. A caller that passes the kernel with no
    reference of its own left (a temporary) has it freed once L is formed,
    so K is not held through the two later products.
    """
    if kernel.n != dom.n:
        raise ValueError("kernel size does not match domain")
    e = _grid_pairing(dom, pset)
    a = _maxplus(e.T, kernel.matrix, np.subtract)  # [k, j] = L(x_j, p_k)
    # a kernel handed over as a temporary, as decompose does, is freed here;
    # a class call would hold it until __init__ returns
    del kernel
    # [i, j] = max over k_p of <x_i, p_kp> - L(x_j, p_kp); L is freed once
    # this is formed. Then add <x_j, p_kq> and take the max over j
    a = _maxplus(e, a, np.subtract)
    lstar = np.empty((e.shape[1], e.shape[0]))  # written through its transpose
    _maxplus(a, e, out=lstar.T)
    del a  # before the covering radius
    return RegularHamiltonian(dom, pset, e, lstar)


def grad1(
    hreg: RegularHamiltonian, x: np.ndarray, y: np.ndarray, h: float
) -> np.ndarray:
    """Central difference gradient in the first slot, one column per coordinate.

    Accepts single points or batches of matching length.
    """
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
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        out[:, k] = (hreg(xs + e, ys) - hreg(xs - e, ys)) / (2.0 * h)
    return out if out.shape[0] > 1 else out[0]


def grad2(
    hreg: RegularHamiltonian, x: np.ndarray, y: np.ndarray, h: float
) -> np.ndarray:
    """Central difference gradient in the second slot: HR(x, y) == -HR(y, x)
    to the last bit, so it is grad1 at the swapped pair, negated."""
    return -grad1(hreg, y, x, h)


def residual_gradients(hreg: RegularHamiltonian, perm: np.ndarray) -> np.ndarray:
    """grad1 of HR at (x_{perm(i)}, x_i) with the step h = hreg.fd_step,
    [n, d], bit for bit. For an involution, grad2 HR(x_{perm(i)}, x_i) is
    row perm(i), negated.

    Every point at which the central differences need L**(., p_k) is the
    grid, the grid shifted by +-h e_c, or a row permutation of one of them,
    so row gathers serve the whole pass. The inner table g0 of
    t0 = L**(grid, .) is computed whole, once, and t0 in row blocks, each
    used up before the next. HR(x_{perm(i)} +- s, x_i)
    has a dense half HB(x_{perm(i)} +- s, x_i), which reads t0, and a
    sparse half HB(x_i, x_{perm(i)} +- s), which reads the shifted tables
    only in the maxima over k, and there each of the three nested maxima
    (HB over k, L** over j, g over k') runs only over its candidates, the
    pieces whose unshifted value lies within tau = 2 (h R_p + delta) of the
    unshifted maximum. Each piece is affine in the shifted slot with slope
    at most R_p = max |p_k|, so a step of h moves every piece, and so the
    maximum, by at most h R_p: a piece that attains the shifted maximum was
    within 2 h R_p of the unshifted one, and delta bounds what rounding adds
    (_candidate_margin derives it). One set of candidates serves every c
    and both signs.

    Every matrix product is the n-row call that grad1 makes (the BLAS
    product <y, p_k> rounds the edge tiles of a batch apart, so another
    batch can move a bit), or in d = 1 an entry of it computed alone with
    the same bits (_shifted_entries). Every piece is the float expression
    of bidual_at_slopes and __call__, and a float max over a superset of
    the argmax is the same float, so the result equals grad1 bit for bit
    for the identity. For another perm the gathers read the row of
    x_{perm(i)} +- s at position perm(i) of its product, where grad1
    computes it at position i, and the last column tile can round the two
    apart: rare inputs (2 of 120 tenths-rounded fields on 7 x 7 to 9 x 9
    symmetric grids) differ from grad1 in the last bits.

    Candidate tests run in blocks of at most domain.ROW_BLOCK pieces, and
    the sparse gathers in groups of about _GROUP_BUDGET candidates. The
    rest of the scratch is the [n, n] inner table g0, one block of t0
    beside one [n, m] table at a time (one row of the block's product, or
    one shifted product), and a few numbers per pair (b, k) the sparse half
    reads; the window grows with h, which FD_STEP_REL keeps small. A
    block's bits do not depend on the blocking (see _maxplus), and its
    dense-half rows are those of the n-row shifted products: computed
    alone in d = 1, where a block holds at most domain.ROW_BLOCK entries,
    and read off the whole product in d >= 2, where each block re-runs the
    2d shifted products, so there t0 takes _BIDUAL_BLOCKS blocks.
    In d >= 2 each group of candidates of the sparse half also recomputes
    the 2d shifted products, one at a time: gradskew and matrix up to
    n = 900 make 1 to 8 groups, but rotationJ, whose pieces tie, makes 583
    at n = 400, and its pass takes about a fifth longer than with the
    products held. In d = 1, where groups run to the hundreds, only the
    entries read are computed.
    """
    h = hreg.fd_step  # positive: build_dual_points keeps R^2 a normal float
    grid, lstar, xp, pts = hreg.dom.points, hreg.lstar_table, hreg._xp, hreg.pset.pts
    (n, d), m = grid.shape, hreg.pset.m
    perm = check_permutation(perm, n, "perm")
    pinv = np.argsort(perm)
    pts_t, sx = pts.T, grid[perm]
    shifts = np.array([sign * e for e in np.eye(d) * h for sign in (1, -1)])
    tau = _candidate_margin(hreg)

    g0 = hreg._inner_table(grid)  # read whole by the sparse half
    # t0 = L**(grid, .) = g0 (x) E is formed a block of rows at a time, and
    # each block is used up before the next: the dense half,
    # HB(x_{perm(i)} +- s, x_i), at its rows, and the pairs (b, k) at which
    # the sparse half, HB(x_i, x_{perm(i)} +- s), reads the shifted tables
    # (row b = perm(i)), with their thresholds
    hb_sx = np.empty((2 * d, n))
    need, thr = [], []
    for blk in row_blocks(n, m, -(-n // _BIDUAL_BLOCKS) * m if d > 1 else None):
        t0 = _maxplus(g0[blk], xp)
        for q, s in enumerate(shifts):
            # [b] = max over k of <y_b, p_k> - t0[b, k]
            a = _shifted_rows(sx, pts_t, s, blk)
            a -= t0
            hb_sx[q, blk] = a.max(axis=1)
            del a  # before the next product
        ib = pinv[blk]
        keep = np.flatnonzero(_near_max(lambda rows: xp[ib[rows]] - t0[rows], len(ib), m, tau))
        thr.append(t0.ravel()[keep] - tau)
        need.append(keep + blk.start * m)  # b * m + k, sorted
        del t0, keep  # before the next block
    need, thr = np.concatenate(need), np.concatenate(thr)

    hb_1 = np.full((2 * d, n), -np.inf)
    # L**(y_b + s, p_k) = max over j of <p_k, x_j> + g(y_b + s, x_j)
    for lo, hi, r, j in _candidate_groups(
        lambda rows: xp.T[need[rows] % m] + g0[need[rows] // m], thr, n
    ):
        b, k = np.divmod(need[lo:hi], m)
        starts2 = np.flatnonzero(np.diff(r, prepend=-1))
        xp2 = xp[j, k[r]]
        bj, where = np.unique(b[r] * n + j, return_inverse=True)
        b1, j1 = np.divmod(bj, n)
        # g(y_b + s, x_j) = max over k' of <y_b + s, p_k'> - L*(p_k', x_j)
        g = np.empty((2 * d, len(bj)))
        for lo1, hi1, r1, k1 in _candidate_groups(
            lambda rows: xp[b1[rows]] - lstar.T[j1[rows]], g0[b1, j1] - tau, m
        ):
            starts1 = np.flatnonzero(np.diff(r1, prepend=-1))
            r1 += lo1
            yv = _shifted_entries(grid, pts, shifts, b1[r1], k1)
            yv -= lstar[k1, j1[r1]]
            g[:, lo1:hi1] = np.maximum.reduceat(yv, starts1, axis=1)
        i1 = pinv[b]
        v1 = xp[i1, k]
        for q in range(2 * d):
            t = np.maximum.reduceat(xp2 + g[q][where], starts2)
            np.maximum.at(hb_1[q], i1, v1 - t)

    # HR(a, b) = (HB(a, b) - HB(b, a)) / 2 as in __call__; rows 2c and
    # 2c + 1 hold the shifts +h e_c and -h e_c
    hr = 0.5 * (hb_sx - hb_1)  # HR(x_{perm(i)} +- s, x_i)
    return np.ascontiguousarray(((hr[0::2] - hr[1::2]) / (2.0 * h)).T)


def _shifted_rows(sx, pts_t, s, rows) -> np.ndarray:
    """Rows ``rows`` of (sx + s) @ pts_t, bit for bit those of the n-row
    product grad1 makes: computed alone in d = 1, as in _shifted_entries,
    and read off the whole product in d >= 2."""
    if sx.shape[1] == 1:
        a = (sx[rows] + s) * pts_t
        a += 0.0
        return a
    return ((sx + s) @ pts_t)[rows]


def _shifted_entries(grid, pts, shifts, b, k) -> np.ndarray:
    """[q, c] = <x_b[c] + s_q, p_k[c]>, bit for bit entry (b[c], k[c]) of
    the n-row product (grid + s_q) @ pts.T that grad1 makes.

    In d = 1 each entry is one rounded product, which is what BLAS returns
    for an inner dimension of 1; BLAS sums it into a zeroed accumulator, so
    a -0.0 comes back as +0.0. A longer sum BLAS rounds by FMA use and tile
    position, so in d >= 2 each entry is read off the whole product, one
    shift at a time.
    """
    if grid.shape[1] == 1:
        return (grid[b, 0] + shifts) * pts[k, 0] + 0.0
    return np.array([((grid + s) @ pts.T)[b, k] for s in shifts])


def _near_max(pieces, n: int, width: int, tau: float) -> np.ndarray:
    """The entries of each row of an [n, width] table within tau of the row
    maximum, where ``pieces(rows)`` evaluates a block of rows."""
    keep = np.empty((n, width), dtype=bool)
    for rows in row_blocks(n, width):
        a = pieces(rows)
        np.greater_equal(a, (a.max(axis=1) - tau)[:, None], out=keep[rows])
    return keep


def _candidate_groups(pieces, thr, width):
    """Candidate entries of a [len(thr), width] table, in row groups.

    ``pieces(rows)`` evaluates a block of rows; an entry (r, c) is a
    candidate when it is >= thr[r]. The table is evaluated in row blocks
    (domain.row_blocks), and a group closes once it holds
    _GROUP_BUDGET candidates. Yields (lo, hi, r, c) with rows lo..hi-1,
    r counted from lo, in row-major order.
    """
    lo, found, size = 0, [], 0
    for rows in row_blocks(len(thr), width):
        r, c = np.nonzero(pieces(rows) >= thr[rows, None])
        found.append((r + (rows.start - lo), c))
        size += len(r)
        if size >= _GROUP_BUDGET or rows.stop == len(thr):
            yield lo, rows.stop, *map(np.concatenate, zip(*found))
            lo, found, size = rows.stop, [], 0


def _candidate_margin(hreg: RegularHamiltonian) -> float:
    """tau = 2 (h R_p + delta), the window of residual_gradients at its
    step h = hreg.fd_step.

    A piece of any of the three nested maxima is an affine function of the
    second HB slot y whose slope is some p_k', |p_k'| <= R_p; so is each max
    below it. The shifted point is fl(y_c + h): it moves y_c by at most h +
    u |y_c + h| (u = eps / 2), and every exact piece by at most h R_p + u A,
    A = (max |x_j| + h) R_p bounding every |<y, p>| and |<p, x_j>|. Every
    computed value has modulus at most S = 3 A + max |L*| (g <= A + max
    |L*|, L** <= A + |g|, HB pieces <= A + |L**|). A dot product of length d
    is off by at most gamma_d A <= 1.01 d u A whatever its order or FMA use,
    and each sum by u S; a max adds no error, so the errors of the three
    levels add up and every computed piece is off its exact value by at most
    e = 3 (gamma_d + u) S. A computed shifted piece therefore differs from
    its computed unshifted one by at most h R_p + u A + 2 e. Let k0 attain
    the unshifted max M. Every shifted maximum is >= the shifted piece k0 >=
    M - (h R_p + u A + 2 e), so a piece that attains it had unshifted value
    >= M - 2 (h R_p + u A + 2 e). The test is against fl(M - tau), which
    rounds up by at most u (S + tau) <= 3 u S. delta = (4 d + 8) eps S
    covers u A + 2 e + 1.5 u S <= (6.06 d + 8.5) u S with room to spare.
    """
    eps, h = np.finfo(float).eps, hreg.fd_step
    r_p = float(row_norms(hreg.pset.pts).max())
    a = (hreg.dom.radius + h) * r_p
    lstar = hreg.lstar_table
    scale = 3.0 * a + float(max(lstar.max(), -lstar.min()))  # no [m, n] |L*| table
    return 2.0 * (h * r_p + (4 * hreg.dom.dim + 8) * eps * scale)
