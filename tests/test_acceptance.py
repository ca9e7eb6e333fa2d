"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen. Criterion 3 checks the tent map twice: its reflection and
half-shift tie at 3/8, and the solver optimum matches the closed form 2/3
(exactly 2/3 - 1/(6n^2) on the midpoint grid), which lies strictly above
that tie.
"""

import math
import time

import numpy as np
import pytest

import selfdual as sd
from selfdual.dual_solver import (
    dual_objective,
    solve_brute,
    solve_matching,
)
from selfdual.factorize import decompose, selfdual_test
from selfdual.primal_solver import (
    kernel_cancellation,
    weak_duality,
)

from conftest import (
    chain_rounding,
    closed_form_primal,
    lagrangian,
    lipschitz_allowance,
    lipschitz_quotients,
    monotone_problem,
    random_involution,
    random_kernel,
    random_problem,
    rotation_permutation,
    sincos_problem,
    slope_radius,
    symmetric_transport_cost,
    tent_problem,
)


def verdict(num, ok, desc, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 11):
        for _ in range(100):
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            vb = solve_brute(dom, fld)
            vm = solve_matching(dom, fld)
            rel = abs(vm.value - vb.value) / max(1.0, abs(vb.value))
            worst = max(worst, rel)
            # both report the value of an actual involution they return
            assert vb.value == pytest.approx(
                dual_objective(dom, fld, vb.sigma), rel=1e-12, abs=1e-12
            )
            assert vm.value == pytest.approx(
                dual_objective(dom, fld, vm.sigma), rel=1e-12, abs=1e-12
            )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert verdict(
        1,
        ok,
        "matching equals brute force on 900 random instances",
        f"worst rel diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_sincos_reproduction():
    t0 = time.monotonic()
    dom, fld = sincos_problem(64)
    rep = decompose(dom, fld)
    elapsed = time.monotonic() - t0
    refl_frac = float((rep.sigma.sigma == np.arange(64)[::-1]).mean())
    ok = (
        refl_frac >= 0.95
        and 0.98 * math.pi <= rep.d_value <= 1.02 * math.pi
        and rep.residual1.median <= 0.1
        and elapsed < 5.0
    )
    assert verdict(
        2,
        ok,
        "sine example at n=64: reflection, D near pi, small residuals",
        f"refl {refl_frac:.0%}, D {rep.d_value:.5f}, res1 med "
        f"{rep.residual1.median:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_tent_nonuniqueness():
    results = []
    solver_vals = {}
    tie_vals = {}
    for n in (32, 64):
        dom, fld = tent_problem(n)
        refl = dual_objective(dom, fld, sd.Involution.reversal(n))
        shift = dual_objective(dom, fld, sd.Involution.half_shift(n))
        tol = 2.0 / n**2
        results.append(abs(refl - 0.375) <= tol)
        results.append(abs(shift - 0.375) <= tol)
        results.append(abs(refl - shift) <= 1e-12 * max(1.0, abs(refl)))
        solver_vals[n] = solve_matching(dom, fld).value
        tie_vals[n] = max(refl, shift)
    values_ok = all(results)
    verdict(
        3,
        values_ok,
        "tent map: reflection and half-shift both evaluate to 3/8",
        f"reflection/half-shift equal within O(1/n^2) at n=32,64",
    )
    # The tent u (2x on [0, 1/2], 3 - 2x on (1/2, 1]) has distribution
    # function F_u(t) = t/2 on [0, 2]. By the Hardy-Littlewood rearrangement
    # inequality the supremum of the pairing over all measure preserving maps
    # is attained by T = F_u o u = u/2: the identity on [0, 1/2] and the
    # reflection x -> 3/2 - x of [1/2, 1], itself an involution. Its value is
    # int_0^1/2 2x^2 dx + int_1/2^1 (3 - 2x)^2 / 2 dx = 1/12 + 7/12 = 2/3.
    # Both integrands have second derivative 4, so the midpoint rule on n
    # cells (n even) falls short by exactly 1/(6n^2); the sorted grid
    # coupling is the same involution, so that is the discrete optimum.
    # The reflection/half-shift tie at 3/8 lies strictly below it.
    exact = {n: 2.0 / 3.0 - 1.0 / (6.0 * n**2) for n in solver_vals}
    opt_ok = all(
        abs(v - exact[n]) <= 1e-12
        and tie_vals[n] < exact[n]
        for n, v in solver_vals.items()
    )
    verdict(
        3,
        opt_ok,
        "tent map: solver optimum equals 2/3 - 1/(6n^2), above the 3/8 tie",
        f"measured optimum {solver_vals[64]:.13f} vs exact {exact[64]:.13f} "
        f"at n=64; reflection/half-shift {tie_vals[64]:.4f}",
    )
    assert values_ok and opt_ok


def test_criterion_4_monotone_gives_identity():
    rng = np.random.default_rng(104)
    dom = sd.symmetric_square_grid(1.0, 6)
    failures = 0
    for _ in range(20):
        g = rng.normal(size=(2, 2))
        q = g @ g.T + 0.5 * np.eye(2)  # strongly convex potential
        c = float(rng.uniform(0.2, 2.0))
        a = np.array([[0.0, c], [-c, 0.0]])
        b = rng.normal(size=2)
        fld = sd.sample_field(dom, lambda p, q=q, a=a, b=b: q @ p + b + a @ p)
        sol = solve_matching(dom, fld)
        if not np.array_equal(sol.sigma.sigma, np.arange(dom.n)):
            failures += 1
    ok = failures == 0
    assert verdict(
        4,
        ok,
        "20 random strongly monotone fields all return the identity exactly",
        f"{failures} failures",
    )


def test_criterion_5_exact_weak_duality():
    rng = np.random.default_rng(105)
    worst = np.inf
    cancel_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
        kernel = random_kernel(rng, n, scale=float(rng.uniform(0.2, 5)))
        s = random_involution(rng, n)
        cert = weak_duality(dom, fld, kernel, s)
        margin = cert.primal_value - cert.dual_value + 1e-12 * abs(cert.primal_value)
        worst = min(worst, margin)
        if kernel_cancellation(kernel, s, dom.cell_measure) != 0.0:
            cancel_ok = False
    ok = worst >= 0 and cancel_ok
    assert verdict(
        5,
        ok,
        "P >= D - 1e-12|P| on 1000 random pairs; kernel sums cancel bit-exactly",
        f"worst margin {worst:.2e}",
    )


def test_criterion_6_regularization_suite(sincos64, sincos64_hreg):
    dom, fld = sincos64
    hreg, kernel, pset = sincos64_hreg
    r = pset.radius
    r_p = slope_radius(hreg)
    e = chain_rounding(hreg, kernel, 2.3 * r)
    rng = np.random.default_rng(106)

    a = rng.uniform(-2 * r, 2 * r, size=(1000, 1))
    b = rng.uniform(-2 * r, 2 * r, size=(1000, 1))
    va = hreg(a, b)
    antisym_ok = np.array_equal(va, -hreg(b, a))

    # HR(b, b) = 0 and HR is R_p-Lipschitz, so |HR(a, b)| <= R_p |a - b|
    bound = r_p * np.abs(a - b)[:, 0] * (1 + 4 * np.finfo(float).eps)
    growth_ok = bool((np.abs(va) <= bound + e).all())

    a2 = a + rng.uniform(-0.3, 0.3, size=a.shape)
    q1, q2, den = lipschitz_quotients(hreg, a, a2, b)
    allowed = lipschitz_allowance(hreg, kernel, 2.3 * r, den)
    lipschitz_ok = bool((q1 <= allowed).all() and (q2 <= allowed).all())

    # L_{HR} <= L over grid points and every dual-set slope, up to rounding
    hg = hreg(
        np.repeat(dom.points, dom.n, axis=0), np.tile(dom.points, (dom.n, 1))
    ).reshape(dom.n, dom.n)  # hg[j, i] = HR(x_j, x_i)
    xp = dom.points @ pset.pts.T  # [j, k]
    lreg = (xp[:, None, :] - hg[:, :, None]).max(axis=0)  # [i, k]
    lh = np.stack([lagrangian(kernel, dom, p)[0] for p in pset.pts], axis=1)
    lag_ok = bool((lreg - lh).max() <= e)

    ok = antisym_ok and growth_ok and lipschitz_ok and lag_ok
    assert verdict(
        6,
        ok,
        "regularized Hamiltonian: exact sign flip, growth bound, Lipschitz, "
        "Lagrangian domination",
        f"defect {(lreg - lh).max():.2e} vs rounding {e:.2e}, "
        f"max quotient {max(q1.max(), q2.max()):.6f} vs R_p {r_p:.6f}",
    )


def test_criterion_7_rotation_counterexample():
    dom = sd.symmetric_square_grid(1.0, 4)
    mu = dom.cell_measure
    rot = rotation_permutation(dom)
    jx = np.stack([-dom.points[:, 1], dom.points[:, 0]], axis=1)
    lhs = float(np.sum(np.einsum("ij,ij->i", jx, dom.points[rot]) * mu))
    rhs = -float(np.sum(np.einsum("ij,ij->i", dom.points, dom.points) * mu))
    exact_ok = lhs == rhs and lhs < 0

    kernel = sd.AntiSymmetricKernel.from_matrix(jx @ dom.points.T)
    kval, kverdict = selfdual_test(kernel, rot, mu)
    kernel_ok = kval == pytest.approx(rhs, rel=1e-12) and kverdict == "not-self-dual"

    rng = np.random.default_rng(107)
    invol_ok = True
    trials = [sd.Involution.identity(16), sd.Involution.reversal(16)]
    trials += [random_involution(rng, 16) for _ in range(200)]
    for s in trials:
        value, v = selfdual_test(kernel, s, mu)
        if value != 0.0 or v != "self-dual-consistent":
            invol_ok = False
    ok = exact_ok and kernel_ok and invol_ok
    assert verdict(
        7,
        ok,
        "rotation is measure preserving but not self dual; involutions cancel",
        f"pairing sum {lhs:.6f} == -sum|x|^2 mu exactly, involution sums all 0.0",
    )


def test_criterion_8_transport_identity():
    # T(s) = sum_i (|x_i|^2 + |u_i|^2) mu - 2 D(s) for every involution s:
    # the transport problem is the dual, shifted, so no code computes T
    rng = np.random.default_rng(108)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 24))
        dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
        cases.append((dom, fld, random_involution(rng, n)))
    # u = x is its own fixed point, at cost 0; sincos by its reflection
    cases.append((*monotone_problem(10), sd.Involution.identity(10)))
    cases.append((*sincos_problem(64), sd.Involution.reversal(64)))
    worst = 0.0
    for dom, fld, s in cases:
        a = symmetric_transport_cost(dom, fld, s)
        norms = float(((dom.points**2).sum() + (fld.values**2).sum()) * dom.cell_measure)
        b = norms - 2 * dual_objective(dom, fld, s)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok = worst <= 1e-12
    assert verdict(
        8,
        ok,
        "transport cost equals sum (|x|^2 + |u|^2) mu - 2 D on 202 involutions",
        f"worst rel diff {worst:.2e}",
    )


def test_criterion_9_duality_gap_trend():
    details = []
    ok = True
    for name, problem in (("sincos", sincos_problem), ("tent", tent_problem)):
        fracs = []
        for n in (16, 32, 64, 128):
            dom, fld = problem(n)
            _, p, _ = closed_form_primal(dom, fld)
            d = solve_matching(dom, fld)
            fracs.append((p - d.value) / abs(p))
        ok = ok and fracs[2] <= 0.02
        ok = ok and all(b <= a + 1e-9 for a, b in zip(fracs, fracs[1:]))
        details.append(f"{name}: " + ", ".join(f"{f:.1e}" for f in fracs))
    assert verdict(
        9,
        ok,
        "gap fraction non-increasing over n in {16,32,64,128} and <= 2% at 64",
        "; ".join(details),
    )


def test_criterion_10_matrix_example():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    # oracle: polar factors of the symmetric part via eigendecomposition
    a_s = 0.5 * (a + a.T)
    evals, evecs = np.linalg.eigh(a_s)
    r_fac = evecs @ np.diag(np.abs(evals)) @ evecs.T
    s_mat = evecs @ np.diag(np.sign(evals)) @ evecs.T
    assert np.allclose(r_fac, 0.5 * np.eye(2))
    assert np.allclose(s_mat, [[0.0, 1.0], [1.0, 0.0]])

    dom = sd.symmetric_square_grid(1.0, 12)
    fld = sd.sample_field(dom, lambda p: a @ p)
    # grid involution induced by the unitary factor; the factor comes out of
    # the eigendecomposition with rounding, so match points by distance
    targets = dom.points @ s_mat.T
    d2 = ((targets[:, None, :] - dom.points[None, :, :]) ** 2).sum(axis=2)
    sigma_oracle = d2.argmin(axis=1)
    assert np.sqrt(d2.min(axis=1)).max() < 1e-9
    sd.Involution(sigma_oracle)  # raises unless an involution

    rep = decompose(dom, fld, rule=lambda p: a @ p, jacobian=lambda p: a)
    agree = float((rep.sigma.sigma == sigma_oracle).mean())
    ok = agree >= 0.90 and rep.residual1.median <= 0.15
    assert verdict(
        10,
        ok,
        "shear matrix field on a 12x12 grid recovers the swap involution",
        f"agreement {agree:.0%}, res1 median {rep.residual1.median:.4f}",
    )


def test_criterion_11_directional_derivative_symmetry(sincos64_hreg):
    hreg, kernel, pset = sincos64_hreg
    rng = np.random.default_rng(111)
    h = 1e-4 * pset.radius
    mesh = hreg.dom.mesh
    hits = 0
    for _ in range(100):
        x = rng.uniform(0, math.pi, (1, 1))
        y = rng.uniform(0, math.pi, (1, 1))
        u = 1.0 if rng.random() < 0.5 else -1.0
        base = hreg(x, y)[0]
        dplus = (hreg(x + h * u, y)[0] - base) / h
        dminus = (hreg(x - h * u, y)[0] - base) / h
        if abs(dplus + dminus) <= 10 * (h + mesh):
            hits += 1
    ok = hits >= 95
    assert verdict(
        11,
        ok,
        "one-sided directional derivatives cancel at 95% of probe triples",
        f"{hits}/100 within 10 (h + mesh)",
    )
