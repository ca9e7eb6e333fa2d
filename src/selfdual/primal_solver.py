"""Minimize the kernel Lagrangian objective over anti-symmetric kernels.

The objective P(K) = sum_i max_j (<x_j, u_i> - K[j, i]) * mu is a finite
convex program, a max of affine functions in the N(N-1)/2 free kernel
entries. Its linear programming dual is exactly the symmetric doubly
stochastic relaxation, which is the max-weight assignment on
S = (C + C^T) / 2 solved by the dual solver. The assignment's dual
potentials give an optimal kernel in closed form, so the primal needs no
iterative solver: its value equals the assignment bound up to rounding.

Weak duality against any involution is exact in floating point: the
per-index slacks are nonnegative by construction and the kernel terms
along an involution cancel pair by pair, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual_solver
from .conjugacy import lagrangian_scores
from .domain import (
    AntiSymmetricKernel,
    DiscreteDomain,
    Involution,
    SampledField,
    check_pairing,
)

__all__ = [
    "PrimalConfig",
    "PrimalSolution",
    "DualityCertificate",
    "RecoveredMap",
    "primal_objective",
    "weak_duality",
    "minimize_primal",
    "recover_involution",
    "kernel_cancellation",
]


def primal_objective(
    dom: DiscreteDomain, fld: SampledField, kernel: AntiSymmetricKernel
) -> float:
    z = lagrangian_scores(kernel, dom, fld)
    return float(z.max(axis=0).sum() * dom.cell_measure)


def kernel_cancellation(kernel: AntiSymmetricKernel, s: Involution, mu: float) -> float:
    """sum_i K[s(i), i] * mu summed pair by pair.

    Each 2-cycle contributes K[j, i] + K[i, j] which is an exact negation,
    and fixed points hit the zero diagonal, so the result is exactly 0.0
    for every involution.
    """
    total = 0.0
    for i, j in s.pairs():
        total += kernel.matrix[j, i] * mu + kernel.matrix[i, j] * mu
    return total


@dataclass(frozen=True)
class DualityCertificate:
    primal_value: float
    dual_value: float
    gap: float  # mu * sum of slacks, nonnegative by construction
    slack: np.ndarray  # per-index, each >= 0 exactly
    cancellation: float  # kernel sum along the involution, exactly 0.0


def weak_duality(
    dom: DiscreteDomain,
    fld: SampledField,
    kernel: AntiSymmetricKernel,
    s: Involution,
) -> DualityCertificate:
    """Certificate that P(K) >= D(s) with the per-index slack vector.

    slack_i = L(x_i, u_i) + K[s(i), i] - <u_i, x_{s(i)}> is computed as a
    max minus one of its own entries, hence exactly nonnegative.
    """
    if s.n != dom.n:
        raise ValueError("involution length does not match domain")
    z = lagrangian_scores(kernel, dom, fld)
    lvals = z.max(axis=0)
    idx = np.arange(dom.n)
    slack = lvals - z[s.sigma, idx]
    mu = dom.cell_measure
    cancel = kernel_cancellation(kernel, s, mu)
    if cancel != 0.0:
        raise AssertionError("involution kernel sum failed to cancel exactly")
    p = float(lvals.sum() * mu)
    c = fld.values @ dom.points.T
    d = float(c[idx, s.sigma].sum() * mu)
    return DualityCertificate(p, d, float(slack.sum() * mu), slack, cancel)


@dataclass
class PrimalConfig:
    eps_rel: float = 1e-6

    def __post_init__(self):
        if self.eps_rel <= 0:
            raise ValueError("eps_rel must be positive")


@dataclass
class PrimalSolution:
    kernel: AntiSymmetricKernel
    value: float
    iterations: int
    gap_vs_dual: float  # value minus the assignment bound
    argmax_map: np.ndarray
    lower_bound: float
    converged: bool


def minimize_primal(
    dom: DiscreteDomain,
    fld: SampledField,
    cfg: PrimalConfig | None = None,
    relaxation: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> PrimalSolution:
    """Optimal kernel in closed form from the assignment potentials.

    With pot from dual_solver.assignment_relaxation (pot_i >= diag_i,
    pot_i + pot_j >= w[i, j], sum(pot) * mu == bound), the kernel
    K[j, i] = (c_ji - c_ij) / 2 - (pot_i - pot_j) / 2 with c_ji = <x_j, u_i>
    gives c_ji - K[j, i] = S[i, j] + (pot_i - pot_j) / 2 <= pot_i, so
    P(K) <= bound; LP duality gives P(K) >= bound, hence P(K) == bound, the
    optimum. Only its upper triangle is stored, which keeps anti-symmetry
    bit-exact. converged reports value - bound <= eps_rel * |value|.
    """
    cfg = cfg or PrimalConfig()
    check_pairing(dom, fld)
    _, pot, bound = relaxation or dual_solver.assignment_relaxation(dom, fld)
    cji = dom.points @ fld.values.T
    kernel = AntiSymmetricKernel(
        0.5 * (cji - cji.T) - 0.5 * (pot[None, :] - pot[:, None])
    )
    z = lagrangian_scores(kernel, dom, fld)
    value = float(z.max(axis=0).sum() * dom.cell_measure)
    converged = value - bound <= cfg.eps_rel * max(1e-300, abs(value))
    return PrimalSolution(
        kernel, value, 0, value - bound, z.argmax(axis=0), bound, converged
    )


@dataclass
class RecoveredMap:
    """Diagnosis of the transformation encoded by an optimal kernel.

    candidate is the raw per-index argmax of the kernel Lagrangian; at a
    degenerate optimum it need not be a permutation, in which case the
    near-tight pairs are handed to the matching solver for rounding.
    """

    candidate: np.ndarray
    is_permutation: bool
    is_involution: bool
    tight_pairs: list[tuple[int, int]] = field(default_factory=list)
    rounded: Involution | None = None


def recover_involution(
    kernel: AntiSymmetricKernel,
    dom: DiscreteDomain,
    fld: SampledField,
    slack_tol: float | None = None,
) -> RecoveredMap:
    """Read a candidate transformation off the argmax structure of a kernel.

    candidate(i) is the smallest attaining grid index of L(x_i, u_i). The
    complementary-slackness pairs (those with slack below the tolerance)
    are always collected; a maximum-weight matching restricted to them
    produces the rounded involution.
    """
    z = lagrangian_scores(kernel, dom, fld)
    lvals = z.max(axis=0)
    cand = z.argmax(axis=0)
    n = dom.n
    is_perm = len(np.unique(cand)) == n
    is_inv = bool(is_perm and np.array_equal(cand[cand], np.arange(n)))

    scale = max(1.0, float(np.abs(lvals).max()))
    tol = scale * 1e-8 if slack_tol is None else slack_tol
    slack = lvals[None, :] - z  # [j, i] >= 0 exactly
    tight = slack <= tol

    pairs = [
        (int(i), int(j))
        for i in range(n)
        for j in range(i, n)
        if tight[j, i] and tight[i, j]
    ]

    rounded = _round_by_matching(dom, fld, tight)
    return RecoveredMap(cand, is_perm, is_inv, pairs, rounded)


def _round_by_matching(dom, fld, tight) -> Involution | None:
    """Max-weight matching over mutually tight pairs; fixed points need a
    tight diagonal."""
    import networkx as nx

    n = dom.n
    weights = dual_solver.build_weights(dom, fld)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    mutual = tight & tight.T
    iu, ju = np.triu_indices(n, k=1)
    for i, j in zip(iu, ju):
        if mutual[j, i] and weights.reduced[i, j] > 0:
            g.add_edge(int(i), int(j), weight=float(weights.reduced[i, j]))
    sigma = np.arange(n)
    for a, b in nx.max_weight_matching(g, maxcardinality=False):
        sigma[a], sigma[b] = b, a
    try:
        return Involution(sigma)
    except ValueError:
        return None
