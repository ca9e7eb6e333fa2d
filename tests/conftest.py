import math

import numpy as np
import pytest

import selfdual as sd
from selfdual import fields
from selfdual.dual_solver import dual_objective


def sincos_problem(n: int):
    dom = sd.interval_grid(0.0, math.pi, n)
    fld = sd.sample_field(dom, lambda x: math.sin(x) + x * math.cos(x))
    return dom, fld


def tent_problem(n: int):
    dom = sd.interval_grid(0.0, 1.0, n)
    fld = sd.sample_field(dom, lambda x: 2.0 * x if x <= 0.5 else 3.0 - 2.0 * x)
    return dom, fld


def monotone_problem(n: int):
    dom = sd.interval_grid(0.0, 1.0, n)
    fld = sd.sample_field(dom, lambda x: x)
    return dom, fld


def matrix_problem(side: int, a=None):
    bf = fields.builtin_field("matrix", side * side, {"A": a} if a is not None else {})
    dom = sd.build_grid(bf.domain_spec)
    fld = sd.sample_field(dom, bf.rule)
    return dom, fld, bf


def random_problem(rng, n: int, d: int = 1):
    pts = rng.normal(size=(n, d))
    while len(np.unique(pts, axis=0)) != n:
        pts = rng.normal(size=(n, d))
    dom = sd.DiscreteDomain(pts, 1.0 / n, d, 0.0)
    fld = sd.SampledField(rng.normal(size=(n, d)))
    return dom, fld


# index arrays the old permutation checks let through: a negative index
# wraps around, a large one does not exist, and a float is truncated to
# [1, 0, 2, 3]
BAD_PERMUTATIONS = ([0, 1, -1], [0, 1, 5], [1.9, 0.2, 2.0, 3.0])


def random_involution(rng, n: int) -> sd.Involution:
    perm = rng.permutation(n)
    sigma = np.arange(n)
    npairs = int(rng.integers(0, n // 2 + 1))
    for k in range(npairs):
        a, b = perm[2 * k], perm[2 * k + 1]
        sigma[a], sigma[b] = b, a
    return sd.Involution(sigma)


def symmetric_transport_cost(dom, fld, s) -> float:
    """The paper's self-dual transport cost of the plan that an involution
    s parametrizes, from its formula:
    1/2 sum_i (|u_s(i) - x_i|^2 + |u_i - x_s(i)|^2) mu."""
    u, x, sigma = fld.values, dom.points, s.sigma
    a = ((u[sigma] - x) ** 2).sum(axis=1)
    b = ((u - x[sigma]) ** 2).sum(axis=1)
    return float(0.5 * (a + b).sum() * dom.cell_measure)


def squared_distance(dom, fld, s) -> float:
    """Squared distance of the field to an involution, from its formula:
    sum_i |u_i - x_s(i)|^2 mu."""
    diff = fld.values - dom.points[s.sigma]
    return float((diff * diff).sum() * dom.cell_measure)


def shifted_dual(dom, fld, s) -> float:
    """sum_i (|x_i|^2 + |u_i|^2) mu - 2 D(s), the value both costs above
    take at every involution s."""
    norms = ((dom.points**2).sum() + (fld.values**2).sum()) * dom.cell_measure
    return float(norms - 2 * dual_objective(dom, fld, s))


def lagrangian(kernel, dom, p):
    """Kernel Lagrangian L(x_i, p) = max_j <x_j, p> - K[j, i] at a single
    slope p, for every i: the value vector and the attaining grid index per
    i, smallest index on ties."""
    p = np.asarray(p, dtype=float).reshape(dom.dim)
    scores = (dom.points @ p)[:, None] - kernel.matrix  # [j, i]
    return scores.max(axis=0), scores.argmax(axis=0)


def rotation_permutation(dom) -> np.ndarray:
    """Index permutation of the quarter turn (x1, x2) -> (x2, -x1), found as
    the library's swap_permutation finds its map (so -0.0 finds 0.0)."""
    if dom.dim != 2:
        raise ValueError("rotation map needs a planar grid")
    targets = np.stack([dom.points[:, 1], -dom.points[:, 0]], axis=1)
    return sd.domain._index_of_points(dom, targets)


def random_kernel(rng, n: int, scale: float = 1.0) -> sd.AntiSymmetricKernel:
    return sd.AntiSymmetricKernel(scale * np.triu(rng.normal(size=(n, n)), k=1))


def kernel_certificate(dom, fld, kernel):
    """The weak-duality certificate of a kernel along the identity: its P,
    argmax and floor do not depend on the involution."""
    return sd.weak_duality(dom, fld, kernel, sd.Involution.identity(dom.n))


def field_lagrangian(dom, fld, kernel):
    """(L(x_i, u_i), its first attaining index) per i, off the kernel's
    certificate: column i's max is its one piece at argmax_i, to the bit."""
    arg, idx = kernel_certificate(dom, fld, kernel).argmax, np.arange(dom.n)
    return sd.pairing(dom, fld)[idx, arg] - kernel.matrix[arg, idx], arg


def closed_form_primal(dom, fld):
    """(kernel, P, converged): the optimal kernel from the assignment
    potentials, its value and the convergence test, as the primal
    subcommand takes them."""
    _, pot, bound = sd.assignment_relaxation(dom, fld)
    kernel = sd.optimal_kernel(dom, fld, pot)
    cert = kernel_certificate(dom, fld, kernel)
    return kernel, cert.primal_value, sd.primal_converged(cert, bound)


@pytest.fixture(scope="session")
def sincos64():
    return sincos_problem(64)


@pytest.fixture(scope="session")
def sincos64_hreg(sincos64):
    dom, fld = sincos64
    kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
    pset = sd.build_dual_points(dom, fld)
    return sd.regularize(kernel, dom, pset), kernel, pset


def odd_cycle_problem():
    """Three points at 120 degrees with u = -x: the optimal assignment is a
    3-cycle of value 1/2, every involution is worth at most 0."""
    ang = 2 * np.pi * np.arange(3) / 3
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dom = sd.DiscreteDomain(pts, 1.0 / 3, 2, 0.0)
    return dom, sd.SampledField(-pts)
