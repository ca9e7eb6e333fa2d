"""End-to-end factorization pipeline and its diagnostics.

decompose() solves the involution dual, whose assignment potentials give
the kernel primal its optimum in closed form (see dual_solver and
primal_solver), extends the optimal kernel to a regularized Hamiltonian,
and checks the two gradient identities of the factorization along the
recovered involution:

    u_i            ~ grad1 HR at (x_{s(i)}, x_i)
    u_{s(i)}       ~ -grad2 HR at (x_{s(i)}, x_i)

HR is anti-symmetric to the last bit and s an involution, so the second is
the first, permuted: -grad2 HR(x_{s(i)}, x_i) = grad1 HR(x_i, x_{s(i)}).

Residual tolerances are mesh aware: the identities hold almost everywhere
in the continuum, and finite differences of a piecewise affine extension
carry O(step + mesh) defects near kinks, so the report publishes the
scale factor median / (step + mesh) instead of asserting a universal
constant.

decompose takes the field and nothing else. Its step is
conjugacy.FD_STEP_REL times the dual ball's radius (the Hamiltonian's
fd_step), whose margin is domain.RADIUS_MARGIN; P is held to the bound
within primal_solver.EPS_PRIMAL; the sample of check_uniqueness is
drawn from seed 0. The report's config records each value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import conjugacy, dual_solver, primal_solver
from .conjugacy import RegularHamiltonian, residual_gradients
from .domain import (
    RADIUS_MARGIN,
    AntiSymmetricKernel,
    DiscreteDomain,
    Involution,
    SampledField,
    build_dual_points,
    check_pairing,
    check_permutation,
    pairing,
    row_blocks,
)

__all__ = [
    "DecompositionReport",
    "decompose",
    "selfdual_test",
    "check_monotone",
    "check_uniqueness",
    "second_identity_check",
    "MonotoneVerdict",
    "UniquenessVerdict",
    "ResidualStats",
]

# check_uniqueness takes every triple up to this many, a seeded sample
# above; it scans its (point, pair) ratios, and the sample-only Jacobian
# fit its squared distances, in row blocks (domain.row_blocks)
_UNIQUENESS_TRIPLES = 200_000


@dataclass
class ResidualStats:
    values: np.ndarray
    median: float = field(init=False)
    max: float = field(init=False)

    def __post_init__(self):
        self.median = float(np.median(self.values))
        self.max = float(self.values.max())


@dataclass
class MonotoneVerdict:
    verdict: str  # strictly-monotone | monotone | non-monotone, up to rounding
    min_pairing: float
    worst_pair: tuple[int, int]


@dataclass(slots=True)
class UniquenessVerdict:
    """Whether the optimal involution of the discrete problem is unique.

    "unique" and "non-unique" are certificates: the forest test or the exact
    blossom on the kept graph of the assignment (dual_solver._settle).
    "non-unique" carries a second optimal involution, ``alternative``, whose
    value ties sigma's exactly. "uniqueness-plausible" and
    "non-unique-plausible" come from check_uniqueness, a sampled scan of the
    paper's continuum condition and a heuristic only, run where the kept
    graph is past the blossom's edge cap; min_ratio, median_ratio and the
    triple witness are the scan's figures (NaN and () for a certificate).
    """

    verdict: str  # unique | non-unique | uniqueness-plausible | non-unique-plausible
    min_ratio: float = np.nan
    median_ratio: float = np.nan
    witness: tuple[int, ...] = ()
    alternative: Involution | None = None


@dataclass
class DecompositionReport:
    p_value: float
    d_value: float
    gap: float  # mu * sum of the slacks along sigma, P - D but never negative
    sigma: Involution
    residual1: ResidualStats
    residual2: ResidualStats
    complementarity: np.ndarray
    monotone: MonotoneVerdict
    uniqueness: UniquenessVerdict
    kernel: AntiSymmetricKernel
    hamiltonian: RegularHamiltonian
    dual: dual_solver.DualSolution
    tolerances: dict

    def to_dict(self) -> dict:
        """Stable JSON payload; keys are relied on by reports and tests."""
        comp = self.complementarity
        return {
            "P": self.p_value,
            "D": self.d_value,
            "gap": self.gap,
            "sigma": [int(k) for k in self.sigma.sigma],
            "residual1": {"median": self.residual1.median, "max": self.residual1.max},
            "residual2": {"median": self.residual2.median, "max": self.residual2.max},
            "complementarity": {
                "min": float(comp.min()),
                "max": float(comp.max()),
                "sum": float(comp.sum()),
            },
            "monotone": self.monotone.verdict,
            "uniqueness": self.uniqueness.verdict,
            "config": dict(self.tolerances),
        }


def decompose(
    dom: DiscreteDomain,
    fld: SampledField,
    rule: Callable | None = None,
    jacobian: Callable | None = None,
) -> DecompositionReport:
    """Run the full pipeline on a sampled field.

    The dual solve decides uniqueness exactly, from the kept graph of the
    assignment ("unique" or "non-unique"). Only past the blossom's edge cap
    (never on an odd cycle) does the sampled scan check_uniqueness run
    ("uniqueness-plausible" or "non-unique-plausible"); the optional
    pointwise rule and Jacobian feed it, and without them it estimates the
    Jacobian from neighboring samples.
    """
    check_pairing(dom, fld)

    dual = dual_solver.solve(dom, fld)
    pset = build_dual_points(dom, fld)
    sigma = dual.sigma
    # a temporary kernel, which regularize frees once L is formed
    hreg = conjugacy.regularize(primal_solver.optimal_kernel(dom, fld, dual.pot), dom, pset)

    g1 = residual_gradients(hreg, sigma.sigma)
    res1 = ResidualStats(np.linalg.norm(fld.values - g1, axis=1))
    res2 = ResidualStats(res1.values[sigma.sigma])

    mono = check_monotone(dom, fld)
    if dual.uniqueness is None:
        uniq = check_uniqueness(dom, fld, rule=rule, jacobian=jacobian)
    else:
        uniq = UniquenessVerdict(dual.uniqueness, alternative=dual.alternative)

    kernel = primal_solver.optimal_kernel(dom, fld, dual.pot)  # regularize's, rebuilt
    cert = primal_solver.weak_duality(dom, fld, kernel, sigma)
    converged = primal_solver.primal_converged(cert, dual.bound)

    tolerances = {
        "eps_primal": primal_solver.EPS_PRIMAL,
        "fd_step": hreg.fd_step,
        "mesh": dom.mesh,
        "radius": pset.radius,
        "radius_margin": RADIUS_MARGIN,
        "pset_size": pset.m,
        "residual_scale_factor": res1.median / (hreg.fd_step + dom.mesh),
        "dual_bound": dual.bound,
        "certificate": dual.certificate,
        "primal_iterations": 0,  # no iterative primal; a key the benchmark reads
        "primal_converged": converged,
        "seed": 0,
    }
    return DecompositionReport(
        cert.primal_value,
        dual.value,
        cert.gap,
        sigma,
        res1,
        res2,
        cert.slack,
        mono,
        uniq,
        kernel,
        hreg,
        dual,
        tolerances,
    )


# ---------------------------------------------------------------------------
# diagnostics


def selfdual_test(
    kernel: AntiSymmetricKernel, s: np.ndarray | Involution, mu: float = 1.0
) -> tuple[float, str]:
    """Measure-weighted kernel sum along a point transformation.

    Involutions cancel exactly (the sum is grouped over 2-cycles, each an
    exact negation); any other permutation is judged against a relative
    1e-12 threshold. A nonzero value certifies the transformation is not
    self dual even when it preserves measure.
    """
    n = kernel.n
    sigma = check_permutation(s, n)
    k = kernel.matrix
    idx = np.arange(n)
    if np.array_equal(sigma[sigma], idx):
        value = primal_solver.kernel_cancellation(kernel, Involution(sigma), mu)
    else:
        value = float((k[idx, sigma] * mu).sum())
    scale = 1.0 + float(np.abs(k[idx, sigma]).sum() * abs(mu))
    verdict = "self-dual-consistent" if abs(value) <= 1e-12 * scale else "not-self-dual"
    return value, verdict


def check_monotone(dom: DiscreteDomain, fld: SampledField) -> MonotoneVerdict:
    """Scan every pair for the monotonicity pairing <x_i - x_j, u_i - u_j>.

    The pairing is dual_solver.reduced at pot = diag(c), read in row blocks
    of the one pairing product c_ij = <u_i, x_j>; the first least entry is
    the worst pair. Each c_ij is a d-term dot product, within
    gamma_d sum_k |x_ik| |u_jk| <= gamma_d X U of the exact one
    (gamma_d = d u / (1 - d u), u = eps / 2, X = dom.radius and
    U = fld.field_radius, whose squares never overflow), of size at most X U.
    reduced rounds partial results of size at most 2, 3 and 4 X U, so the
    pairing is within (4 gamma_d + 9 u) X U (to first order) of the exact
    one; delta = (2 d + 5) eps X U bounds that with room for its own
    rounding. A worst pairing below -delta is non-monotone, one above delta
    strictly monotone, and one within delta monotone. Where 4 X U is not a
    finite float a pairing may overflow, and pairing raises ValueError
    (domain.check_pairing).
    """
    c = pairing(dom, fld)
    worst, pair = np.inf, (0, 0)
    for rows in row_blocks(dom.n, dom.n):
        r = dual_solver.reduced(c, np.diagonal(c), rows)
        i, j = np.unravel_index(r.argmin(), r.shape)
        if r[i, j] < worst:
            worst, pair = float(r[i, j]), (rows.start + int(i), int(j))
    delta = (2 * dom.dim + 5) * np.finfo(float).eps * dom.radius * fld.field_radius
    if worst > delta:
        verdict = "strictly-monotone"
    elif worst >= -delta:
        verdict = "monotone"
    else:
        verdict = "non-monotone"
    return MonotoneVerdict(verdict, worst, pair)


def _estimate_jacobians(
    dom: DiscreteDomain, fld: SampledField, rule=None, jacobian=None
) -> np.ndarray:
    """Per-point Jacobian estimates, (N, d, d).

    With a callable Jacobian it is evaluated directly; with a pointwise
    rule, central differences at a step of 1e-3 mesh (at least 1e-8);
    otherwise a local least squares fit over nearest sample neighbors.
    """
    n, d = dom.n, dom.dim
    out = np.empty((n, d, d))
    if jacobian is not None:
        for i, p in enumerate(dom.points):
            out[i] = np.asarray(
                jacobian(p if d > 1 else p[0]), dtype=float
            ).reshape(d, d)
        return out
    if rule is not None:
        h = max(dom.mesh * 1e-3, 1e-8)
        for i, p in enumerate(dom.points):
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                fp = np.asarray(rule((p + e) if d > 1 else (p + e)[0]), float).reshape(d)
                fm = np.asarray(rule((p - e) if d > 1 else (p - e)[0]), float).reshape(d)
                out[i, :, k] = (fp - fm) / (2 * h)
        return out
    # sample-only fallback: least squares over the nearest neighbors, found
    # in row blocks of squared distances (the argpartition runs row by row,
    # so blocks pick the same neighbours)
    k = min(n - 1, max(d + 1, 2 * d))
    pts = dom.points
    nbrs_all = np.empty((n, k), dtype=np.intp)
    for rows in row_blocks(n, n):
        d2 = ((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2[:, rows], np.inf)
        nbrs_all[rows] = np.argpartition(d2, k - 1, axis=1)[:, :k]
    for i, nbrs in enumerate(nbrs_all):
        dx = dom.points[nbrs] - dom.points[i]
        du = fld.values[nbrs] - fld.values[i]
        j_t, *_ = np.linalg.lstsq(dx, du, rcond=None)
        out[i] = j_t.T
    return out


def check_uniqueness(
    dom: DiscreteDomain,
    fld: SampledField,
    rule=None,
    jacobian=None,
    seed: int = 0,
) -> UniquenessVerdict:
    """Search for near-critical triples of the uniqueness condition.

    For samples (x, y1, y2) the residual |Du(x)^T (y1 - y2) + u(y1) - u(y2)|
    normalized by |y1 - y2| should stay away from zero when the involution
    is unique. Verdict compares the worst ratio against a tenth of the
    median; a heuristic, never a proof.
    """
    check_pairing(dom, fld)
    n = dom.n
    if n < 3:
        return UniquenessVerdict("uniqueness-plausible", np.inf, np.inf, (0, 0, 0))
    jac = _estimate_jacobians(dom, fld, rule, jacobian)

    rng = np.random.default_rng(seed)
    full = n * n * (n - 1) // 2
    if full <= _UNIQUENESS_TRIPLES:
        iu, ju = np.triu_indices(n, k=1)
        xs = np.arange(n)
        pairs = np.stack([iu, ju], axis=1)
    else:
        m = int(np.sqrt(_UNIQUENESS_TRIPLES))
        xs = rng.integers(0, n, size=m)
        a = rng.integers(0, n, size=_UNIQUENESS_TRIPLES // m)
        b = rng.integers(0, n, size=_UNIQUENESS_TRIPLES // m)
        keep = a != b
        pairs = np.stack([a[keep], b[keep]], axis=1)

    diff_y = dom.points[pairs[:, 0]] - dom.points[pairs[:, 1]]
    diff_u = fld.values[pairs[:, 0]] - fld.values[pairs[:, 1]]
    norms = np.linalg.norm(diff_y, axis=1)

    # each block of sample points is one batched matmul, norm, argmin and
    # median; numpy makes the same BLAS call on every slice of the batch and
    # reduces each row alone, so the bits equal those of a per-point loop
    min_ratio = np.inf
    witness = (0, 0, 0)
    medians = np.empty(len(xs))
    for rows in row_blocks(len(xs), len(pairs)):
        blk = xs[rows]
        # Du(x)^T (y1 - y2) + u(y1) - u(y2) for every point and pair
        resid = np.matmul(diff_y, jac[blk])
        resid += diff_u
        # |resid| / |y1 - y2| as np.linalg.norm computes it, in place
        resid *= resid
        ratio = resid.sum(axis=2)
        del resid
        np.sqrt(ratio, out=ratio)
        ratio /= norms
        ks = ratio.argmin(axis=1)
        # a row whose argmin is NaN never wins: a strict < against NaN fails
        mins = ratio[np.arange(len(blk)), ks]
        b = int(np.where(np.isnan(mins), np.inf, mins).argmin())
        if mins[b] < min_ratio:
            min_ratio = float(mins[b])
            k = ks[b]
            witness = (int(blk[b]), int(pairs[k, 0]), int(pairs[k, 1]))
        medians[rows] = np.median(ratio, axis=1, overwrite_input=True)
    med = float(np.median(medians))
    verdict = (
        "non-unique-plausible" if min_ratio <= 0.1 * med else "uniqueness-plausible"
    )
    return UniquenessVerdict(verdict, min_ratio, med, witness)


def second_identity_check(
    dom: DiscreteDomain,
    fld: SampledField,
    hreg: RegularHamiltonian,
    s: Involution,
) -> ResidualStats:
    """Residuals of u_{s(i)} + grad2 HR(x_{s(i)}, x_i): those of the first
    identity, u_i - grad1 HR(x_{s(i)}, x_i), read at s(i), at the step
    hreg.fd_step."""
    check_pairing(dom, fld)
    if s.n != dom.n:
        raise ValueError("involution length does not match domain")
    if not np.array_equal(hreg.dom.points, dom.points):
        raise ValueError("hamiltonian was built on another grid")
    g1 = residual_gradients(hreg, s.sigma)
    return ResidualStats(np.linalg.norm(fld.values - g1, axis=1)[s.sigma])
