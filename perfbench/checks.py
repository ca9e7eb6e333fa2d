"""Output checks of the benchmark, against computations made apart from
the program.

``reference`` computes, with numpy and scipy only, what every decompose
output of an instance must satisfy: the max-weight assignment value that
bounds the primal from below, the exact involution optimum (a closed form,
the identity for a monotone field, or an integer program) and the probe
points of the sign-flip check. ``check`` compares one output against it
and against properties the method must have, and returns the list of
failed checks (empty when the output is correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

from workloads import Instance

EPS = np.finfo(float).eps
# acceptance thresholds of the builtins (the program's own acceptance suite)
SWAP_AGREEMENT = 0.90
SINCOS_RESIDUAL = 0.1
# pairs and off-grid points at which the sign flip HR(x, y) == -HR(y, x)
# is probed
PROBES = 4


@dataclass(frozen=True)
class Outcome:
    """The parts of a DecompositionReport the checks read."""

    sigma: np.ndarray
    p: float
    d: float
    kernel: np.ndarray
    slack: np.ndarray
    residual1: np.ndarray
    converged: bool
    eps_primal: float
    hamiltonian: Callable[[np.ndarray, np.ndarray], np.ndarray]


def outcome_of(report) -> Outcome:
    return Outcome(
        sigma=np.asarray(report.sigma.sigma),
        p=report.p_value,
        d=report.d_value,
        kernel=report.kernel.matrix,
        slack=report.complementarity,
        residual1=report.residual1.values,
        converged=bool(report.tolerances["primal_converged"]),
        eps_primal=float(report.tolerances["eps_primal"]),
        hamiltonian=report.hamiltonian,
    )


def same_output(a: Outcome, b: Outcome) -> bool:
    """sigma, P, D and the residuals agree bit for bit."""
    return (
        np.array_equal(a.sigma, b.sigma)
        and a.p == b.p
        and a.d == b.d
        and np.array_equal(a.residual1, b.residual1)
    )


@dataclass(frozen=True)
class Reference:
    assignment: float  # mu * max-weight assignment value on S = (C + C^T) / 2
    optimum: float  # exact maximum over involutions
    optimum_source: str
    scale: float  # mu * sum_i max_j |C[i, j]|, the size of an n-term sum
    swap: np.ndarray | None  # matrix builtin: the swap involution
    probe_x: np.ndarray
    probe_y: np.ndarray


def pairing(inst: Instance) -> np.ndarray:
    """C[i, j] = <u_i, x_j>."""
    return inst.fld.values @ inst.dom.points.T


def involution_value(inst: Instance, sigma: np.ndarray) -> float:
    """sum_i <u_i, x_sigma(i)> * mu, summed row by row."""
    u, x = inst.fld.values, inst.dom.points
    return float(np.einsum("ik,ik->i", u, x[sigma]).sum() * inst.dom.cell_measure)


def rounding(inst: Instance, scale: float) -> float:
    """Bound on the rounding error of an n-term sum of d-term dot products."""
    return 4.0 * (inst.dom.n + inst.dom.dim + 2) * EPS * scale


def assignment_value(inst: Instance) -> float:
    c = pairing(inst)
    s = 0.5 * (c + c.T)
    rows, cols = linear_sum_assignment(s, maximize=True)
    return float(s[rows, cols].sum() * inst.dom.cell_measure)


def milp_optimum(inst: Instance) -> float:
    """Best involution by an integer program over the positive-surplus pairs.

    max sum_{i<j} r_ij y_ij subject to sum_j y_ij <= 1 and y binary, with
    r_ij = C_ij + C_ji - C_ii - C_jj the surplus of pairing i with j over
    leaving both fixed. The objective is scaled so that the solver's
    absolute gap is far below rounding; the value is then recomputed from
    the chosen pairs.
    """
    c = pairing(inst)
    n = inst.dom.n
    diag = np.diag(c)
    iu, ju = np.triu_indices(n, k=1)
    surplus = c[iu, ju] + c[ju, iu] - diag[iu] - diag[ju]
    keep = surplus > 0
    iu, ju, surplus = iu[keep], ju[keep], surplus[keep]
    sigma = np.arange(n)
    if len(surplus):
        e = len(surplus)
        incidence = sparse.csr_matrix(
            (np.ones(2 * e), (np.concatenate([iu, ju]), np.tile(np.arange(e), 2))),
            shape=(n, e),
        )
        res = milp(
            -surplus * (1e9 / surplus.max()),
            constraints=LinearConstraint(incidence, 0, 1),
            integrality=np.ones(e),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0.0},
        )
        if res.status != 0:
            raise RuntimeError(f"reference integer program failed: {res.message}")
        chosen = np.flatnonzero(res.x > 0.5)
        sigma[iu[chosen]] = ju[chosen]
        sigma[ju[chosen]] = iu[chosen]
    return involution_value(inst, sigma)


def exact_optimum(inst: Instance) -> tuple[float, str]:
    n = inst.dom.n
    if inst.kind == "sincos":
        return involution_value(inst, np.arange(n)[::-1]), "reflection"
    if inst.kind == "tent":
        if n % 2:
            raise ValueError("the tent closed form needs an even cell count")
        return 2.0 / 3.0 - 1.0 / (6.0 * n * n), "closed form 2/3 - 1/(6n^2)"
    if inst.kind == "gradskew":
        c = pairing(inst)
        diag = np.diag(c)
        surplus = c + c.T - diag[:, None] - diag[None, :]
        np.fill_diagonal(surplus, -np.inf)
        if not surplus.max() < 0:
            raise RuntimeError("gradskew field has a pair with positive surplus")
        return involution_value(inst, np.arange(n)), "identity"
    return milp_optimum(inst), "integer program"


def swap_involution(inst: Instance) -> np.ndarray:
    """(x1, x2) -> (x2, x1) on the grid, matched by nearest point."""
    pts = inst.dom.points
    d2 = ((pts[:, None, ::-1] - pts[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def reference(inst: Instance, seed: int) -> Reference:
    c = pairing(inst)
    optimum, source = exact_optimum(inst)
    rng = np.random.default_rng([seed, 3])
    n, d = inst.dom.n, inst.dom.dim
    grid = inst.dom.points[rng.integers(0, n, size=(2, PROBES))]
    radius = max(inst.dom.radius, inst.fld.field_radius)
    off = rng.uniform(-radius, radius, size=(2, PROBES, d))
    return Reference(
        assignment=assignment_value(inst),
        optimum=optimum,
        optimum_source=source,
        scale=float(np.abs(c).max(axis=1).sum() * inst.dom.cell_measure),
        swap=swap_involution(inst) if inst.kind == "matrix" else None,
        probe_x=np.vstack([grid[0], off[0]]),
        probe_y=np.vstack([grid[1], off[1]]),
    )


def check(inst: Instance, ref: Reference, out: Outcome) -> list[str]:
    """Names of the checks this output fails."""
    n = inst.dom.n
    fails = []
    sigma = out.sigma
    idx = np.arange(n)
    if not (
        sigma.shape == (n,)
        and np.array_equal(np.sort(sigma), idx)
        and np.array_equal(sigma[sigma], idx)
    ):
        fails.append("sigma is not an involution")
        return fails  # the value checks below index with sigma

    k = out.kernel
    if not (np.array_equal(k, -k.T) and not np.diag(k).any()):
        fails.append("kernel is not exactly anti-symmetric")
    if not np.array_equal(
        out.hamiltonian(ref.probe_x, ref.probe_y),
        -out.hamiltonian(ref.probe_y, ref.probe_x),
    ):
        fails.append("HR sign flip is not exact")

    tol_d = rounding(inst, ref.scale)
    if abs(out.d - involution_value(inst, sigma)) > tol_d:
        fails.append("D is not the value of sigma")
    if abs(out.d - ref.optimum) > tol_d:
        fails.append(f"D is not the involution optimum ({ref.optimum_source})")

    kscale = float(np.abs(k).max(axis=0).sum() * inst.dom.cell_measure)
    tol_p = rounding(inst, ref.scale + kscale)
    if out.p < ref.assignment - tol_p:
        fails.append("P is below the assignment bound")
    if out.p > ref.assignment + out.eps_primal * abs(out.p) + tol_p:
        fails.append("P exceeds the assignment bound by more than eps_primal")
    if not out.converged:
        fails.append("primal did not converge")

    if out.slack.shape != (n,) or not (out.slack >= 0).all():
        fails.append("a complementarity slack is negative")
    if out.p < out.d - tol_p:
        fails.append("P < D beyond rounding")

    if ref.swap is not None and (sigma == ref.swap).mean() < SWAP_AGREEMENT:
        fails.append("sigma agrees with the swap on fewer than 90% of cells")
    if inst.kind == "sincos" and np.median(out.residual1) > SINCOS_RESIDUAL:
        fails.append("sincos residual median above 0.1")
    return fails
