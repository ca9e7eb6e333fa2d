"""The kernel Lagrangian primal, in closed form from the dual's potentials.

The objective P(K) = sum_i max_j (<x_j, u_i> - K[j, i]) * mu is a finite
convex program, a max of affine functions in the N(N-1)/2 free kernel
entries. Its linear programming dual is exactly the symmetric doubly
stochastic relaxation, which is the max-weight assignment on
S = (C + C^T) / 2 solved by the dual solver. The assignment's potentials
give an optimal kernel in closed form (optimal_kernel): nothing is left to
minimize, and P equals the assignment bound up to rounding (primal_converged).

weak_duality is the one place a kernel is scored: its certificate holds P,
its argmax map and the convergence floor beside D, all off one pairing.
Weak duality against any involution is exact in floating point: the
per-index slacks are nonnegative by construction and the kernel terms
along an involution cancel pair by pair, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    AntiSymmetricKernel,
    DiscreteDomain,
    Involution,
    SampledField,
    pairing,
    row_blocks,
)

__all__ = [
    "DualityCertificate",
    "weak_duality",
    "optimal_kernel",
    "primal_converged",
    "kernel_cancellation",
]

# the relative tolerance of primal_converged's test of P against the bound
EPS_PRIMAL = 1e-6


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
    argmax: np.ndarray  # per-index first grid index attaining L(x_i, u_i)
    floor: float  # rounding floor of primal_converged's test


def weak_duality(
    dom: DiscreteDomain,
    fld: SampledField,
    kernel: AntiSymmetricKernel,
    s: Involution,
) -> DualityCertificate:
    """Certificate that P(K) >= D(s) with the per-index slack vector.

    slack_i = L(x_i, u_i) + K[s(i), i] - <u_i, x_{s(i)}> is computed as a
    max minus one of its own entries, hence exactly nonnegative. D sums
    C[i, s(i)] as dual_objective does, off the one pairing, before K is taken off.
    argmax is the map a kernel encodes, the smallest index on ties; an
    optimal kernel need not make it a permutation. floor, the absolute
    slack of primal_converged(cert, bound), bounds the rounding of the sums
    P and bound, 4 (n + d + 2) eps mu (sum_i max_j |C_ij| + sum_i max_j |K_ji|),
    so that an optimum of 0 is not judged by a relative test alone; each
    max |x| is max(max x, -min x), with no [n, n] table beside the pairing.
    P, argmax and floor do not depend on s.
    """
    if s.n != dom.n:
        raise ValueError("involution length does not match domain")
    if kernel.n != dom.n:
        raise ValueError("kernel size does not match domain")
    idx, mu, k = np.arange(dom.n), dom.cell_measure, kernel.matrix
    z = pairing(dom, fld).T  # [j, i] = <x_j, u_i> = C[i, j]
    d = float(z[s.sigma, idx].sum() * mu)
    scale = np.maximum(z.max(axis=0), -z.min(axis=0)).sum()
    scale += np.maximum(k.max(axis=0), -k.min(axis=0)).sum()
    floor = float(4 * (dom.n + dom.dim + 2) * np.finfo(float).eps * mu * scale)
    z -= k  # [j, i] = <x_j, u_i> - K[j, i]; column i's max is L(x_i, u_i)
    lvals = z.max(axis=0)
    slack = lvals - z[s.sigma, idx]
    cancel = kernel_cancellation(kernel, s, mu)
    if cancel != 0.0:
        raise AssertionError("involution kernel sum failed to cancel exactly")
    p, gap = float(lvals.sum() * mu), float(slack.sum() * mu)
    return DualityCertificate(p, d, gap, slack, cancel, z.argmax(axis=0), floor)


def optimal_kernel(dom: DiscreteDomain, fld: SampledField, pot: np.ndarray):
    """The optimal kernel in closed form, built in place in two [n, n] tables.

    With the assignment potentials pot (DualSolution.pot: pot_i >= C[i, i],
    pot_i + pot_j >= C[i, j] + C[j, i], sum(pot) * mu == bound), the kernel
    K[j, i] = (c_ji - c_ij) / 2 - (pot_i - pot_j) / 2 with c_ji = <x_j, u_i>
    gives c_ji - K[j, i] = S[i, j] + (pot_i - pot_j) / 2 <= pot_i, so
    P(K) <= bound; LP duality gives P(K) >= bound, hence P(K) == bound, the
    optimum. Only its upper triangle is stored, which keeps anti-symmetry
    bit-exact.
    """
    k = pairing(dom, fld)  # k.T[j, i] = c_ji
    np.subtract(k.T, k, out=k)  # numpy reads the overlapping k.T from a copy
    k *= 0.5
    for rows in row_blocks(len(k), len(k)):
        dpot = np.subtract(pot[None, :], pot[rows, None])  # [j, i] = pot_i - pot_j
        k[rows] -= np.multiply(0.5, dpot, out=dpot)
    return AntiSymmetricKernel(k)


def primal_converged(cert: DualityCertificate, bound: float) -> bool:
    """Whether the certificate's P meets the assignment bound:
    P - bound <= EPS_PRIMAL * |P| + cert.floor."""
    return cert.primal_value - bound <= EPS_PRIMAL * abs(cert.primal_value) + cert.floor
