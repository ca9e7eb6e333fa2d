"""Discrete domains, sampled fields, kernels and involutions.

The continuum objects (a bounded domain, an essentially bounded vector
field on it, an anti-symmetric Hamiltonian, a measure preserving
involution) are represented at grid level: the domain becomes N
equal-measure cells with midpoint representatives, so every permutation
of cell indices is automatically measure preserving and an involution is
simply a permutation that squares to the identity.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "DiscreteDomain",
    "SampledField",
    "DualPointSet",
    "AntiSymmetricKernel",
    "Involution",
    "pairing",
    "check_permutation",
    "build_grid",
    "interval_grid",
    "box_grid",
    "symmetric_square_grid",
    "sample_field",
    "make_kernel",
    "build_dual_points",
    "swap_permutation",
    "read_field_csv",
    "write_field_csv",
    "write_csv",
]

# every bounded-memory walk over an [n, width] table takes its rows in
# blocks of at most this many entries (row_blocks reads it as a walk starts)
ROW_BLOCK = 1 << 12

# the dual ball's radius is (1 + RADIUS_MARGIN) times the larger of the
# domain and field radii (build_dual_points)
RADIUS_MARGIN = 0.05


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, taken at the exact power-of-two scale that
    puts the largest entry in [0.5, 1), so no square overflows; where none
    over- or underflows unscaled, the bits are np.linalg.norm's."""
    e = np.frexp(np.abs(a).max())[1]
    return np.ldexp(np.linalg.norm(np.ldexp(a, -e), axis=1), e)


def row_blocks(n: int, width: int, budget: int | None = None):
    """Row slices of an [n, width] table, each of at most budget entries
    (ROW_BLOCK by default), one row if wider. A generator: a list would
    hold a slice per row through a walk of one-row blocks."""
    step = max(1, (ROW_BLOCK if budget is None else budget) // max(1, width))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


@dataclass(frozen=True)
class DiscreteDomain:
    """N equal-measure cells with midpoint representatives.

    Attributes
    ----------
    points : (N, d) array of cell representatives.
    cell_measure : measure of a single cell, |domain| / N.
    dim : ambient dimension d.
    radius : largest Euclidean norm among the representatives.
    """

    points: np.ndarray
    cell_measure: float
    dim: int
    radius: float

    def __post_init__(self):
        pts = _readonly(np.atleast_2d(self.points))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("need at least one point")
        if self.dim != pts.shape[1]:
            raise ValueError(f"dim {self.dim} does not match the points' {pts.shape[1]} columns")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite grid point")
        if not (np.isfinite(self.cell_measure) and self.cell_measure > 0):
            raise ValueError(
                f"cell_measure {self.cell_measure} is not a positive finite float "
                "(a cell measure past the largest float overflows to inf)"
            )
        # duplicate representatives make suprema and matching weights ill-posed
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("grid points must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", int(pts.shape[1]))
        object.__setattr__(self, "radius", float(row_norms(pts).max()))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def mesh(self) -> float:
        """Linear cell size, cell_measure ** (1/d) for the cubic cells built here."""
        return float(self.cell_measure ** (1.0 / self.dim))


@dataclass(frozen=True)
class SampledField:
    """Vector field values at the domain representatives."""

    values: np.ndarray
    field_radius: float = field(init=False)

    def __post_init__(self):
        vals = _readonly(np.atleast_2d(self.values))
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite field value")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "field_radius", float(row_norms(vals).max()))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def check_pairing(dom: DiscreteDomain, fld: SampledField) -> None:
    """Refuse a field that does not match the domain, or whose pairings or
    measure-weighted sums could overflow.

    Each <u_i, x_j> is at most X U in modulus (X the domain radius, U the
    field radius), and the monotonicity pairings sum four of them
    (dual_solver.reduced at pot = diag(C)), so 4 X U must be a finite float.
    The assignment potentials lie in [-X U, (2 n - 1) X U] (pot_i >= C[i, i],
    and sum(pot) is a sum of n entries of S), so a kernel entry is at most
    (n + 1) X U and a Lagrangian value at most pot_i + 2 X U in modulus.
    D and the assignment bound (n X U), P (3 n X U), the weak-duality
    slacks (4 n X U) and the scale of the weak-duality certificate's floor
    (n (n + 2) X U) are sums taken before they are multiplied by mu, so
    4 n (n + 2) X U max(1, mu) must be a finite float too.
    """
    if fld.n != dom.n or fld.dim != dom.dim:
        raise ValueError(
            f"field shape {fld.values.shape} does not match domain "
            f"({dom.n} points in R^{dom.dim})"
        )
    xu, n = dom.radius * fld.field_radius, dom.n
    if not np.isfinite(4 * xu):
        raise ValueError(
            f"field radius {fld.field_radius:.3e} and domain radius {dom.radius:.3e} "
            "are out of scale: the pairings overflow, as 4 times their product is not "
            "a finite float"
        )
    if not np.isfinite(xu * (4 * n * (n + 2)) * max(1.0, dom.cell_measure)):
        raise ValueError(
            f"cell measure {dom.cell_measure:.3e} on {n} cells is out of scale with the "
            "radii: the measure-weighted sums overflow, as 4 n (n + 2) X U max(1, mu) "
            "is not a finite float"
        )


def pairing(dom: DiscreteDomain, fld: SampledField) -> np.ndarray:
    """C[i, j] = <u_i, x_j>, the one pairing every solver and check reads.

    A caller that needs [j, i] = <x_j, u_i> takes C.T; it never recomputes
    it as x @ u.T, because BLAS rounds the two products apart in the last
    bit, and the dual, the primal kernel and their certificate must read
    the same numbers.
    """
    check_pairing(dom, fld)
    return fld.values @ dom.points.T


@dataclass(frozen=True)
class DualPointSet:
    """The finite set of slopes every supremum over the dual ball runs over.

    Holds the origin and the sampled field values: the identity reads H
    only at the slopes u_i, and a max over any finite set of slopes gives
    an H that is anti-symmetric and Lipschitz with constant max |p_k|
    (conjugacy.RegularHamiltonian). The points must be finite and lie in
    the ball of radius R, finite and positive, which sets the residual
    step (conjugacy.FD_STEP_REL R).
    """

    pts: np.ndarray
    radius: float

    def __post_init__(self):
        pts = _readonly(np.atleast_2d(self.pts))
        if not (np.isfinite(pts).all() and 0 < self.radius < np.inf):
            raise ValueError("dual points must be finite and the radius finite and > 0")
        norms = row_norms(pts)
        if norms.max() > self.radius * (1 + 1e-12):
            raise ValueError("dual point outside the ball")
        if not (norms == 0).any():
            raise ValueError("dual point set must contain the origin")
        object.__setattr__(self, "pts", pts)

    @property
    def m(self) -> int:
        return self.pts.shape[0]


def build_dual_points(dom: DiscreteDomain, fld: SampledField) -> DualPointSet:
    """Assemble {0} + sampled field values, duplicates (-0.0 equal to 0.0)
    dropped in order of first occurrence, in the ball of radius R = (1 +
    RADIUS_MARGIN) * max(domain radius, field radius), which holds both.
    """
    check_pairing(dom, fld)
    radius = float((1.0 + RADIUS_MARGIN) * max(dom.radius, fld.field_radius))
    # with R^2 a normal float, so are the residual step h = FD_STEP_REL R and
    # FD_STEP_REL R^2, the bound on h R_p in the pass's window (R_p <= R)
    if not np.finfo(float).tiny <= radius * radius < np.inf:
        raise ValueError(
            f"field radius {fld.field_radius:.3e} and domain radius {dom.radius:.3e} "
            f"are out of scale: R = {radius:.3e}, and R^2 is not a normal float"
        )
    pts = np.vstack([np.zeros((1, dom.dim)), fld.values])
    order = np.lexsort(pts.T)  # stable: a run of equal rows starts at the first
    first = np.concatenate(([True], (pts[order[1:]] != pts[order[:-1]]).any(axis=1)))
    return DualPointSet(pts[np.sort(order[first])], radius)


class AntiSymmetricKernel:
    """N x N table of Hamiltonian values with exact anti-symmetry.

    Only the strictly upper triangle is free; the matrix is materialised
    as T - T.T, which makes K[i, j] == -K[j, i] hold bit for bit and the
    diagonal identically zero.
    """

    __slots__ = ("matrix",)

    def __init__(self, upper: np.ndarray):
        mat = np.array(upper, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("kernel table must be square")
        # min and max carry any nan or inf, with no [n, n] mask
        if mat.size and not (np.isfinite(mat.min()) and np.isfinite(mat.max())):
            raise ValueError("non-finite kernel entry")
        # triu(upper, 1) - triu(upper, 1).T in place, in square tiles: the
        # strict upper triangle is kept (x - 0.0 is x), the lower one is
        # 0.0 - x of its mirror (the sign of zero as in the subtraction) and
        # the diagonal 0.0
        side = math.isqrt(ROW_BLOCK)
        scratch, lower = np.empty(side * side), np.tri(side, side, dtype=bool)
        for blk in row_blocks(len(mat), 1, side):
            for col in row_blocks(blk.start, 1, side):
                mat[blk, col] = _negated_transpose(mat[col, blk], scratch)
            diag = mat[blk, blk]
            t = _negated_transpose(diag, scratch)
            np.fill_diagonal(t, 0.0)
            np.copyto(diag, t, where=lower[: len(t), : len(t)])
        mat.flags.writeable = False
        self.matrix = mat

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "AntiSymmetricKernel":
        """Anti-symmetrize an arbitrary square table, (M - M.T) / 2; any other
        table goes on to the constructor's shape check."""
        m = np.asarray(m, dtype=float)
        return cls(0.5 * (m - m.T) if m.shape == m.T.shape else m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"AntiSymmetricKernel(n={self.n})"


def _negated_transpose(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """0.0 - a.T in a contiguous view of scratch. It is copied in and then
    negated in place: with a strided input, np.subtract(0.0, ...) traces a
    tile-sized buffer, and a copy of the input too when it shares the
    output's array, where a contiguous in-place call traces neither."""
    t = scratch[: a.size].reshape(a.shape[::-1])
    np.copyto(t, a.T)
    return np.subtract(0.0, t, out=t)


def make_kernel(dom: DiscreteDomain, h: Callable) -> AntiSymmetricKernel:
    """Tabulate a pointwise rule H(x, y) on grid x grid, anti-symmetrized.

    The stored table is (H(x_i, x_j) - H(x_j, x_i)) / 2, which kills any
    symmetric component (constants in particular) and enforces the exact
    sign flip the solvers rely on.
    """
    vals = _tabulate_pairwise(dom.points, h)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite kernel value")
    return AntiSymmetricKernel.from_matrix(vals)


def _tabulate_pairwise(pts: np.ndarray, h: Callable) -> np.ndarray:
    n, d = pts.shape
    if d == 1:
        try:
            vals = np.asarray(h(pts[:, 0][:, None], pts[:, 0][None, :]), dtype=float)
            if vals.shape == (n, n):
                return vals
        except Exception:
            pass
    vals = np.empty((n, n))
    for i in range(n):
        xi = pts[i] if d > 1 else pts[i, 0]
        for j in range(n):
            xj = pts[j] if d > 1 else pts[j, 0]
            vals[i, j] = float(np.asarray(h(xi, xj)).reshape(()))
    return vals


class Involution:
    """Permutation of cell indices with sigma(sigma(i)) == i."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: Sequence[int] | np.ndarray):
        sig = np.asarray(sigma)
        if sig.ndim != 1:
            raise ValueError("sigma must be a flat index array")
        check_permutation(sig, sig.shape[0], "sigma")
        if not np.array_equal(sig[sig], np.arange(sig.shape[0])):
            raise ValueError("not an involution")
        sig = sig.astype(np.intp)
        sig.flags.writeable = False
        self.sigma = sig

    @classmethod
    def identity(cls, n: int) -> "Involution":
        return cls(np.arange(n))

    @classmethod
    def reversal(cls, n: int) -> "Involution":
        return cls(np.arange(n)[::-1])

    @classmethod
    def half_shift(cls, n: int) -> "Involution":
        """i paired with i + n/2; needs even n."""
        if n % 2:
            raise ValueError("half shift needs an even number of cells")
        return cls((np.arange(n) + n // 2) % n)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def pairs(self) -> list[tuple[int, int]]:
        """The 2-cycles, each listed once as (i, j) with i < j."""
        return [(int(i), int(j)) for i, j in enumerate(self.sigma) if i < j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Involution) and np.array_equal(self.sigma, other.sigma)

    def __repr__(self) -> str:
        return f"Involution({self.sigma.tolist()})"


def check_permutation(
    sigma: Sequence[int] | np.ndarray | Involution, n: int, name: str = "s"
) -> np.ndarray:
    """sigma as an index array, if it is a permutation of range(n).

    The one rule for every map of cell indices: an integer dtype (numpy
    would truncate a float index silently), shape (n,), and sorted entries
    equal to range(n) (a negative index would wrap around, a large one
    would not exist). Anything else raises ValueError.
    """
    sig = np.asarray(sigma.sigma if isinstance(sigma, Involution) else sigma)
    if (
        sig.shape != (n,)
        or sig.dtype.kind not in "iu"
        or not np.array_equal(np.sort(sig), np.arange(n))
    ):
        raise ValueError(f"{name} must be a permutation of range({n})")
    return sig


# ---------------------------------------------------------------------------
# grid builders


def interval_grid(a: float, b: float, n: int) -> DiscreteDomain:
    """Midpoints of n equal cells of [a, b], the one-axis box_grid."""
    return box_grid([(a, b)], [n])


def box_grid(bounds: Sequence[Sequence[float]], cells: Sequence[int]) -> DiscreteDomain:
    """Midpoint grid of an axis-aligned box with per-axis cell counts."""
    bounds = [tuple(map(float, ab)) for ab in bounds]
    cells = [int(c) for c in cells]
    if len(bounds) != len(cells):
        raise ValueError("bounds and cells must have matching length")
    axes = []
    measure = 1.0
    for (a, b), c in zip(bounds, cells):
        if c < 1:
            raise ValueError("need at least one cell per axis")
        if not b > a:
            raise ValueError("box extent must be positive")
        h = (b - a) / c
        axes.append(a + (np.arange(c) + 0.5) * h)
        measure *= h
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return DiscreteDomain(pts, measure, len(bounds), 0.0)


def symmetric_square_grid(half_width: float, n: int) -> DiscreteDomain:
    """Point-symmetric n x n grid on the centered square [-a, a]^2.

    Coordinates are generated as a*(2k + 1 - n)/n, so the coordinate set
    is bit-exactly closed under negation; the product grid is therefore
    closed under x -> -x and under the quarter turn (x1, x2) -> (x2, -x1).
    """
    if n < 1:
        raise ValueError("need at least one cell per axis")
    if half_width <= 0:
        raise ValueError("square extent must be positive")
    coords = (2.0 * np.arange(n) + 1.0 - n) / n * half_width
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    measure = (2.0 * half_width / n) ** 2
    return DiscreteDomain(pts, measure, 2, 0.0)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_real, v))


def build_grid(spec: Mapping) -> DiscreteDomain:
    """Build a domain from a declarative spec.

    Supported kinds::

        {"kind": "interval", "bounds": [a, b], "cells": n}
        {"kind": "box", "bounds": [[a1, b1], ...], "cells": [n1, ...]}
        {"kind": "symmetric-square", "bounds": a, "cells": n}

    The symmetric square also takes bounds [-a, a]. Any other key, and
    bounds or cells of another form (a cell count is an int, not a bool
    or a float), raise ValueError.
    """
    unknown = set(spec) - {"kind", "bounds", "cells"}
    if unknown:
        raise ValueError(f"unknown domain spec keys: {sorted(unknown)}")
    kind, bounds, cells = spec.get("kind"), spec.get("bounds"), spec.get("cells")
    if kind == "interval" and _is_pair(bounds) and _is_int(cells):
        return box_grid([bounds], [cells])
    lists = isinstance(bounds, (list, tuple)) and isinstance(cells, (list, tuple))
    if kind == "box" and lists and all(map(_is_pair, bounds)) and all(map(_is_int, cells)):
        return box_grid(bounds, cells)
    if kind == "symmetric-square" and _is_int(cells):
        if _is_pair(bounds) and float(bounds[0]) == -float(bounds[1]):
            return symmetric_square_grid(float(bounds[1]), cells)
        if _is_real(bounds):
            return symmetric_square_grid(float(bounds), cells)
    if kind in ("interval", "box", "symmetric-square"):
        raise ValueError(f"malformed {kind} domain spec: {dict(spec)}")
    raise ValueError(f"unknown domain kind: {kind!r}")


def sample_field(dom: DiscreteDomain, f: Callable) -> SampledField:
    """Evaluate a pointwise rule at every representative."""
    vals = np.empty((dom.n, dom.dim))
    for i, p in enumerate(dom.points):
        v = np.asarray(f(p if dom.dim > 1 else p[0]), dtype=float)
        vals[i] = v.reshape(dom.dim)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field rule produced a non-finite value")
    return SampledField(vals)


# ---------------------------------------------------------------------------
# structured permutations of symmetric grids


def _index_of_points(dom: DiscreteDomain, targets: np.ndarray) -> np.ndarray:
    """Exact lookup of target points among the grid representatives (as
    floats compare, so -0.0 finds 0.0)."""
    index = {tuple(p): i for i, p in enumerate(dom.points.tolist())}
    try:
        return np.array([index[tuple(t)] for t in targets.tolist()], dtype=np.intp)
    except KeyError:
        raise ValueError("grid is not closed under the requested map") from None


def swap_permutation(dom: DiscreteDomain) -> Involution:
    """Coordinate swap (x1, x2) -> (x2, x1) as a grid involution."""
    if dom.dim != 2:
        raise ValueError("swap map needs a planar grid")
    targets = dom.points[:, ::-1]
    return Involution(_index_of_points(dom, targets))


# ---------------------------------------------------------------------------
# file formats


def write_csv(path: str | Path, header: Sequence[str], table: np.ndarray) -> None:
    """One row per row of table, each value written as repr(float)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(c)) for c in row] for row in table)


def write_field_csv(path: str | Path, dom: DiscreteDomain, fld: SampledField) -> None:
    """One row per cell: x0..x{d-1}, u0..u{d-1}. Writing forms no pairing,
    so a field whose pairings overflow (check_pairing) is written too."""
    if fld.values.shape != dom.points.shape:
        raise ValueError(
            f"field shape {fld.values.shape} does not match domain {dom.points.shape}"
        )
    d = dom.dim
    header = [f"x{k}" for k in range(d)] + [f"u{k}" for k in range(d)]
    write_csv(path, header, np.hstack([dom.points, fld.values]))


def read_field_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read points and values back; pairing with a domain is the caller's job.
    A malformed file raises ValueError naming it, and a bad row its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError(f"field csv {path} is empty")
        d = sum(1 for c in header if c.startswith("x"))
        if d == 0 or len(header) != 2 * d:
            raise ValueError(f"field csv {path} must have columns x0..x{{d-1}}, u0..u{{d-1}}")
        rows = []
        for row in filter(None, r):
            try:
                if len(row) != 2 * d:
                    raise ValueError(f"{len(row)} columns where the header has {2 * d}")
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ValueError(f"malformed field csv {path}, line {r.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"field csv {path} has no rows")
    data = np.array(rows)
    return data[:, :d], data[:, d:]
