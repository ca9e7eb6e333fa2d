import gc
import json
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import selfdual as sd
from selfdual import conjugacy, domain, fields
from selfdual.conjugacy import (
    grad1,
    grad2,
    regularize,
    residual_gradients,
)

from conftest import (
    chain_rounding,
    field_lagrangian,
    kernel_certificate,
    lagrangian,
    lipschitz_allowance,
    lipschitz_quotients,
    odd_cycle_problem,
    random_problem,
    sincos_problem,
    slope_radius,
    tent_problem,
)


def single_point_setup():
    dom = sd.interval_grid(0.0, 1.0, 1)  # the lone midpoint is 0.5
    fld = sd.SampledField(np.array([[0.0]]))
    kernel = sd.AntiSymmetricKernel(np.zeros((1, 1)))
    pset = sd.DualPointSet(np.array([[0.0], [1.0]]), 1.0)
    return dom, fld, kernel, pset


class TestLagrangian:
    def test_zero_kernel_is_support_function(self):
        rng = np.random.default_rng(0)
        dom, fld = sincos_problem(12)
        kernel = sd.AntiSymmetricKernel(np.zeros((12, 12)))
        for _ in range(5):
            p = rng.normal(size=1)
            vals, arg = lagrangian(kernel, dom, p)
            expect = (dom.points @ p).max()
            assert np.allclose(vals, expect)

    def test_single_point_inner_product(self):
        dom, fld, kernel, _ = single_point_setup()
        vals, arg = lagrangian(kernel, dom, np.array([2.0]))
        assert vals[0] == pytest.approx(1.0)  # <0.5, 2.0>
        assert arg[0] == 0

    def test_sincos_near_mid_domain(self):
        # independent oracle: explicit loop over the defining expression
        dom, fld = sincos_problem(64)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        x = dom.points[:, 0]
        i_star = int(np.abs(x - math.pi / 2).argmin())
        p = np.array([1.0])  # u at pi/2
        vals, arg = lagrangian(kernel, dom, p)
        oracle = max(
            x[j] * p[0] - (x[j] * math.sin(x[i_star]) - x[i_star] * math.sin(x[j]))
            for j in range(64)
        )
        assert vals[i_star] == pytest.approx(oracle, rel=1e-14)
        # the attaining point approximates the reflection of x_i, which is
        # close to pi/2 itself near mid-domain
        assert abs(x[arg[i_star]] - (math.pi - x[i_star])) <= dom.mesh

    def test_argmax_smallest_index_on_ties(self):
        dom = sd.interval_grid(0.0, 1.0, 3)
        kernel = sd.AntiSymmetricKernel(np.zeros((3, 3)))
        vals, arg = lagrangian(kernel, dom, np.array([0.0]))  # all pieces tie at 0
        assert arg.tolist() == [0, 0, 0]

    def test_at_field_matches_per_point(self):
        dom, fld = sincos_problem(10)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        vals, arg = field_lagrangian(dom, fld, kernel)
        for i in range(10):
            vi, ai = lagrangian(kernel, dom, fld.values[i])
            assert vals[i] == vi[i]
            assert arg[i] == ai[i]

    def test_at_field_rejects_kernel_of_another_size(self):
        # P and the argmax come off one certificate, along any involution
        dom, fld = sincos_problem(10)
        kernel = sd.AntiSymmetricKernel(np.zeros((9, 9)))
        for call in (
            lambda: kernel_certificate(dom, fld, kernel),
            lambda: sd.weak_duality(dom, fld, kernel, sd.Involution.reversal(10)),
        ):
            with pytest.raises(ValueError, match="kernel size does not match"):
                call()


class TestRestrictedDual:
    def test_single_point_zero(self):
        dom, fld, kernel, _ = single_point_setup()
        pset = sd.DualPointSet(np.array([[0.0], [1.0]]), 1.0)
        table = regularize(kernel, dom, pset).lstar_table
        # L(0.5, 0) = 0, so L*(0, 0.5) = max(0.5*0 + 0*0.5 - 0, ...) over the set
        assert table[0, 0] == pytest.approx(0.0)

    def test_dominates_sampled_pairs(self):
        rng = np.random.default_rng(1)
        dom, fld = sincos_problem(16)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        pset = sd.build_dual_points(dom, fld)
        table = regularize(kernel, dom, pset).lstar_table
        lh = np.stack([lagrangian(kernel, dom, p)[0] for p in pset.pts])  # [k, i]
        for _ in range(200):
            kq = rng.integers(pset.m)
            iy = rng.integers(dom.n)
            jx = rng.integers(dom.n)
            kp = rng.integers(pset.m)
            lower = (
                dom.points[iy] @ pset.pts[kp]
                + pset.pts[kq] @ dom.points[jx]
                - lh[kp, jx]
            )
            assert table[kq, iy] >= lower - 1e-12

    def test_dual_below_lagrangian_on_tables(self, sincos64_hreg):
        # restriction inequality, exact at grid points and dual-set slopes
        hreg, kernel, pset = sincos64_hreg
        dom = hreg.dom
        lh = np.stack([lagrangian(kernel, dom, p)[0] for p in pset.pts])
        assert (hreg.lstar_table - lh).max() <= 1e-9


class TestRestrictedBidual:
    def test_single_point_zero(self):
        dom, fld, kernel, pset = single_point_setup()
        hreg = regularize(kernel, dom, pset)
        assert broadcast_restricted_bidual(hreg, [0.5], [0.0]) == pytest.approx(0.0)

    def test_below_lagrangian_at_field_slopes(self, sincos64, sincos64_hreg):
        dom, fld = sincos64
        hreg, kernel, pset = sincos64_hreg
        lvals, _ = field_lagrangian(dom, fld, kernel)
        bid = np.array(
            [
                broadcast_restricted_bidual(hreg, dom.points[i], fld.values[i])
                for i in range(0, dom.n, 4)
            ]
        )
        assert (bid - lvals[::4]).max() <= 1e-6

    def test_growth_bound_random_probes(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(2)
        r = pset.radius
        ys = rng.uniform(-2 * r, 2 * r, size=(50, 1))
        qs = rng.uniform(-2 * r, 2 * r, size=(50, 1))
        for y, q in zip(ys, qs):
            v = broadcast_restricted_bidual(hreg, y, q)
            bound = r * abs(y[0]) + r * abs(q[0]) + 3 * r * r
            assert abs(v) <= bound + 1e-9


class TestBallHamiltonian:
    def test_single_point_vanishes(self):
        dom, fld, kernel, _ = single_point_setup()
        pset = sd.DualPointSet(np.array([[0.0], [1.0], [-1.0]]), 1.0)
        hreg = regularize(kernel, dom, pset)
        # with the origin as the only relevant slope, HB(x, y) = max(0, x - y + c...)
        # on a one-point grid with zero kernel all tables vanish at slope zero
        v = hreg.ball_ham(np.array([[0.5]]), np.array([[0.5]]))
        assert v.shape == (1,) and np.isfinite(v[0])
        assert hreg([[0.5]], [[0.5]])[0] == 0.0

    def test_sign_inequality_on_grid_pairs(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(3)
        idx = rng.integers(0, hreg.dom.n, size=(300, 2))
        a = hreg.ball_ham(hreg.dom.points[idx[:, 0]], hreg.dom.points[idx[:, 1]])
        b = hreg.ball_ham(hreg.dom.points[idx[:, 1]], hreg.dom.points[idx[:, 0]])
        scale = 1.0 + np.abs(a).max()
        assert (a + b).max() <= 1e-12 * scale

    def test_growth_bound(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(4)
        r = pset.radius
        xs = rng.uniform(-2 * r, 2 * r, size=(60, 1))
        ys = rng.uniform(-2 * r, 2 * r, size=(60, 1))
        vals = hreg.ball_ham(xs, ys)
        bounds = r * np.abs(xs[:, 0]) + r * np.abs(ys[:, 0]) + 4 * r * r
        assert (np.abs(vals) - bounds).max() <= 1e-9

    def test_first_slot_convexity_exact(self, sincos64_hreg):
        # max of affine pieces: interpolation can only round, never overshoot
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(5)
        for _ in range(100):
            x1 = rng.uniform(0, math.pi, (1, 1))
            x2 = rng.uniform(0, math.pi, (1, 1))
            y = rng.uniform(0, math.pi, (1, 1))
            t = float(rng.uniform())
            lhs = hreg.ball_ham(t * x1 + (1 - t) * x2, y)[0]
            rhs = t * hreg.ball_ham(x1, y)[0] + (1 - t) * hreg.ball_ham(x2, y)[0]
            assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


class TestRegularize:
    def test_antisymmetry_bit_exact(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(6)
        a = rng.uniform(-4, 4, size=(1000, 1))
        b = rng.uniform(-4, 4, size=(1000, 1))
        assert np.array_equal(hreg(a, b), -hreg(b, a))

    def test_lagrangian_never_worse_at_data(self, sincos64, sincos64_hreg):
        dom, fld = sincos64
        hreg, kernel, pset = sincos64_hreg
        mu = dom.cell_measure
        lvals, _ = field_lagrangian(dom, fld, kernel)
        # L_HR(x_b, u_b) = max over grid j of <x_j, u_b> - HR(x_j, x_b),
        # off one batch of the n^2 grid pairs, [b, j] = HR(x_j, x_b)
        grid, n = dom.points, dom.n
        hg = hreg(np.tile(grid, (n, 1)), np.repeat(grid, n, axis=0)).reshape(n, n)
        lreg = (fld.values @ grid.T - hg).max(axis=1)
        assert (lreg * mu).sum() <= (lvals * mu).sum() + 1e-6
        # pointwise version is exact up to rounding at data slopes
        assert (lreg - lvals).max() <= 1e-9

    def test_lipschitz_probe(self, sincos64_hreg):
        # HR is Lipschitz in each slot with constant R_p = max |p_k|
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(7)
        a = rng.uniform(-3, 3, size=(400, 1))
        a2 = a + rng.uniform(-0.5, 0.5, size=(400, 1))
        b = rng.uniform(-3, 3, size=(400, 1))
        q1, q2, den = lipschitz_quotients(hreg, a, a2, b)
        allowed = lipschitz_allowance(hreg, kernel, 3.5, den)
        assert (q1 <= allowed).all() and (q2 <= allowed).all()

    @pytest.mark.parametrize("name", ["matrix", "rotationJ", "gradskew"])
    def test_lipschitz_probe_planar(self, name):
        dom, fld, bf = builtin_problem(name, 64)
        rep = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        hreg, r = rep.hamiltonian, rep.hamiltonian.pset.radius
        rng = np.random.default_rng(9)
        a = rng.uniform(-r, r, size=(400, 2))
        a2 = a + rng.uniform(-0.3, 0.3, size=(400, 2))
        b = rng.uniform(-r, r, size=(400, 2))
        q1, q2, den = lipschitz_quotients(hreg, a, a2, b)
        allowed = lipschitz_allowance(hreg, rep.kernel, 2 * r, den)
        assert (q1 <= allowed).all() and (q2 <= allowed).all()

    def test_hreg_convexity_within_resolution(self, sincos64_hreg):
        # HR is not convex-concave, but Lipschitz in x with constant R_p, so
        # a midpoint defect HR(t x1 + (1 - t) x2, y) - t HR(x1, y) -
        # (1 - t) HR(x2, y) is at most 2 t (1 - t) R_p |x1 - x2|, up to the
        # rounding of the three values
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(8)
        e = chain_rounding(hreg, kernel, math.pi)
        r_p = slope_radius(hreg)
        for _ in range(200):
            x1 = rng.uniform(0, math.pi, (1, 1))
            x2 = rng.uniform(0, math.pi, (1, 1))
            y = rng.uniform(0, math.pi, (1, 1))
            t = float(rng.uniform())
            lhs = hreg(t * x1 + (1 - t) * x2, y)[0]
            rhs = t * hreg(x1, y)[0] + (1 - t) * hreg(x2, y)[0]
            assert lhs - rhs <= 2 * t * (1 - t) * r_p * abs(x1 - x2)[0, 0] + 4 * e

    def test_not_convex_concave_at_grid_scale(self):
        # HB(x, y) is a max over k of pieces concave in y, which need not be
        # concave: seeded midpoints on rotationJ-64 break concavity in y by
        # far more than rounding
        dom, fld, bf = builtin_problem("rotationJ", 64)
        rep = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        hreg = rep.hamiltonian
        rng = np.random.default_rng(0)
        lo, hi = dom.points.min(axis=0), dom.points.max(axis=0)
        x, y1, y2 = (rng.uniform(lo, hi, size=(400, 2)) for _ in range(3))
        mid = hreg(x, 0.5 * (y1 + y2))
        defect = 0.5 * (hreg(x, y1) + hreg(x, y2)) - mid
        assert defect.max() > 1e3 * chain_rounding(hreg, rep.kernel, float(np.abs(lo).max()))

    def test_kernel_handed_over_freed_after_first_product(self, monkeypatch):
        # a temporary kernel's table is freed once L = E^T (x) -K is formed,
        # before the product E (x) -L starts
        dom, fld = sincos_problem(24)
        pset = sd.build_dual_points(dom, fld)
        refs, alive = [], []
        maxplus = conjugacy._maxplus

        def spy(*args, **kw):
            alive.append(refs[0]() is not None)
            return maxplus(*args, **kw)

        def temporary_kernel():
            kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
            refs.append(weakref.ref(kernel.matrix))
            return kernel

        monkeypatch.setattr(conjugacy, "_maxplus", spy)
        regularize(temporary_kernel(), dom, pset)
        assert alive == [True, False, False]

    def test_decompose_frees_kernel_after_first_product(self, monkeypatch):
        # decompose hands the primal kernel over: the matrix the first
        # product reads is dead when the second starts
        dom, fld = sincos_problem(24)
        first, dead = [], []
        maxplus = conjugacy._maxplus

        def spy(a, b, *args, **kw):
            if not first:
                first.append(weakref.ref(b))
            elif not dead:
                dead.append(first[0]() is None)
            return maxplus(a, b, *args, **kw)

        monkeypatch.setattr(conjugacy, "_maxplus", spy)
        sd.decompose(dom, fld)
        assert dead == [True]


class TestGradients:
    def test_grad1_sincos_oracle(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        h = 1e-4 * pset.radius
        mesh = hreg.dom.mesh
        for x0 in (math.pi / 4, math.pi / 3):
            got = grad1(hreg, [math.pi - x0], [x0], h)
            want = math.sin(x0) + x0 * math.cos(x0)
            assert abs(got[0] - want) <= 10 * (h + mesh)

    def test_grad2_symbolic_oracle(self, sincos64_hreg):
        # d/dy of the analytic kernel is x cos y - sin x
        hreg, kernel, pset = sincos64_hreg
        h = 1e-4 * pset.radius
        mesh = hreg.dom.mesh
        x0 = math.pi / 4
        a, b = math.pi - x0, x0
        got = grad2(hreg, [a], [b], h)
        want = a * math.cos(b) - math.sin(a)
        assert abs(got[0] - want) <= 10 * (h + mesh)
        # matches the second factorization identity at the reflection
        u_at_a = math.sin(a) + a * math.cos(a)
        assert abs(got[0] + u_at_a) <= 10 * (h + mesh)

    def test_quadratic_kernel_gradients(self):
        dom = sd.interval_grid(0.0, 1.0, 128)
        fld = sd.sample_field(dom, lambda x: x)
        kernel = sd.make_kernel(dom, lambda x, y: 0.5 * x * x - 0.5 * y * y)
        pset = sd.build_dual_points(dom, fld)
        hreg = regularize(kernel, dom, pset)
        h = 1e-4 * pset.radius
        tol = 10 * (h + dom.mesh)
        for x0 in (0.3, 0.55, 0.8):
            g1 = grad1(hreg, [x0], [0.4], h)
            g2 = grad2(hreg, [0.4], [x0], h)
            assert abs(g1[0] - x0) <= tol
            assert abs(g2[0] + x0) <= tol

    def test_grad2_is_negated_swapped_grad1(self, sincos64_hreg):
        # bit-exact consequence of the anti-symmetric evaluator
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(9)
        h = 1e-4 * pset.radius
        xs = rng.uniform(0, math.pi, size=(20, 1))
        ys = rng.uniform(0, math.pi, size=(20, 1))
        a = np.atleast_2d(grad2(hreg, xs, ys, h))
        b = np.atleast_2d(grad1(hreg, ys, xs, h))
        assert np.array_equal(a, -b)

    def test_one_sided_direction_symmetry(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        rng = np.random.default_rng(10)
        h = 1e-4 * pset.radius
        mesh = hreg.dom.mesh
        hits = 0
        trials = 100
        for _ in range(trials):
            x = rng.uniform(0, math.pi, (1, 1))
            y = rng.uniform(0, math.pi, (1, 1))
            u = 1.0 if rng.random() < 0.5 else -1.0
            base = hreg(x, y)[0]
            dplus = (hreg(x + h * u, y)[0] - base) / h
            dminus = (hreg(x - h * u, y)[0] - base) / h
            if abs(dplus + dminus) <= 10 * (h + mesh):
                hits += 1
        assert hits >= 95

    def test_bad_step_rejected(self, sincos64_hreg):
        hreg, *_ = sincos64_hreg
        with pytest.raises(ValueError):
            grad1(hreg, [0.5], [0.5], 0.0)


def fd_residual_gradients(hreg, perm):
    """grad1 at (x_{perm(i)}, x_i) through the general evaluator, at the
    Hamiltonian's step."""
    grid = hreg.dom.points
    return np.atleast_2d(grad1(hreg, grid[perm], grid, hreg.fd_step))


def builtin_problem(name, n):
    bf = fields.builtin_field(name, n)
    dom = sd.build_grid(bf.domain_spec)
    return dom, sd.sample_field(dom, bf.rule), bf


def pair_swap(n):
    """The involution (0 1)(2 3)..., with the last point fixed for odd n."""
    sigma = np.arange(n)
    sigma[: n - n % 2] = sigma[: n - n % 2].reshape(-1, 2)[:, ::-1].ravel()
    return sigma


def assert_shared_pass_matches(hreg, perm):
    got = residual_gradients(hreg, perm)
    assert np.array_equal(got, fd_residual_gradients(hreg, perm))


def assert_second_is_first_permuted(rep, fld):
    """residual2 is residual1 read at sigma, exactly, and is the second
    identity's residual through the general grad2."""
    s, grid = rep.sigma.sigma, rep.hamiltonian.dom.points
    assert np.array_equal(rep.residual2.values, rep.residual1.values[s])
    g2 = grad2(rep.hamiltonian, grid[s], grid, rep.tolerances["fd_step"])
    u2 = fld.values[s] + np.atleast_2d(g2)
    assert np.array_equal(rep.residual2.values, np.linalg.norm(u2, axis=1))


def three_cycle(n):
    """The permutation 0 -> 1 -> 2 -> 0, every other point fixed."""
    perm = np.arange(n)
    perm[:3] = [1, 2, 0]
    return perm


def fallback_cloud():
    """The d = 3 random cloud whose assignment has an odd cycle."""
    return random_problem(np.random.default_rng(4), 16, 3)


def near_tie_grid():
    """A 9 x 9 symmetric grid with a field rounded to tenths: at h = 1e-300 R
    a piece a few ulps below a maximum becomes it, so the window needs its
    rounding allowance."""
    dom = sd.symmetric_square_grid(1.0, 9)
    vals = np.round(np.random.default_rng(6).normal(size=(155, 2))[74:], 1)
    return dom, sd.SampledField(vals)


class TestResidualGradients:
    @pytest.mark.parametrize(
        "name, n", [("sincos", 32), ("tent", 32), ("gradskew", 64), ("matrix", 64)]
    )
    def test_builtins_bit_identical(self, name, n):
        dom, fld, bf = builtin_problem(name, n)
        rep = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        assert_second_is_first_permuted(rep, fld)
        for perm in (np.arange(dom.n), rep.sigma.sigma, three_cycle(dom.n)):
            assert_shared_pass_matches(rep.hamiltonian, perm)

    # (3, 6, 0) and (3, 5, 5) fail when the 1 + 2d shifted grids share one
    # matrix product: its edge tiles round some rows without FMA
    @pytest.mark.parametrize(
        "d, n, seed",
        [(1, 16, 3), (2, 16, 3), (3, 16, 3), (1, 16, 4), (2, 16, 4), (3, 16, 4)]
        + [(3, 6, 0), (3, 5, 5)],
    )
    def test_random_clouds_bit_identical(self, d, n, seed):
        dom, fld = random_problem(np.random.default_rng(seed), n, d)
        rep = sd.decompose(dom, fld)
        assert_second_is_first_permuted(rep, fld)
        if (d, n, seed) == (3, 16, 4):
            assert rep.dual.certificate == "kept-graph-exact"
        perms = (np.arange(n), pair_swap(n), rep.sigma.sigma, three_cycle(n))
        for perm in perms:
            assert_shared_pass_matches(rep.hamiltonian, perm)

    def test_odd_cycle_bit_identical(self):
        dom, fld = odd_cycle_problem()
        rep = sd.decompose(dom, fld)
        assert rep.dual.certificate == "kept-graph-exact"
        for perm in (np.arange(3), pair_swap(3), rep.sigma.sigma):
            assert_shared_pass_matches(rep.hamiltonian, perm)

    @pytest.mark.parametrize(
        "problem",
        [
            lambda: builtin_problem("sincos", 32),
            lambda: builtin_problem("matrix", 36),
            lambda: builtin_problem("gradskew", 36),
            lambda: random_problem(np.random.default_rng(4), 16, 2),
            odd_cycle_problem,
        ],
    )
    def test_report_unchanged_against_fd_gradients(self, problem, monkeypatch):
        dom, fld, *rest = problem()
        rules = {"rule": rest[0].rule, "jacobian": rest[0].jacobian} if rest else {}
        shared = json.dumps(sd.decompose(dom, fld, **rules).to_dict())
        monkeypatch.setattr(sd.factorize, "residual_gradients", fd_residual_gradients)
        assert json.dumps(sd.decompose(dom, fld, **rules).to_dict()) == shared

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_fields_bit_identical(self, scale):
        for dom, fld in (
            sincos_problem(24),
            random_problem(np.random.default_rng(3), 16, 2),
            fallback_cloud(),
        ):
            rep = sd.decompose(dom, sd.SampledField(scale * fld.values))
            for perm in (np.arange(dom.n), rep.sigma.sigma):
                assert_shared_pass_matches(rep.hamiltonian, perm)

    # the window at steps no caller takes, set on the Hamiltonian: h = R:
    # 98-100 % of the pieces lie in the window; h = 1e-12 R and 1e-300 R:
    # the window is 2 h R_p plus the rounding allowance, and at 1e-300 R
    # the allowance is nearly all of it
    @pytest.mark.parametrize("step", [1.0, 1e-12, 1e-300])
    def test_extreme_steps_bit_identical(self, step):
        for dom, fld in (
            builtin_problem("matrix", 36)[:2],
            sincos_problem(24),
            fallback_cloud(),
            near_tie_grid(),
        ):
            rep = sd.decompose(dom, fld)
            hreg = rep.hamiltonian
            hreg.fd_step = step * hreg.pset.radius
            for perm in (np.arange(dom.n), rep.sigma.sigma):
                assert_shared_pass_matches(hreg, perm)

    @pytest.mark.parametrize("step", [1e-300, 1e-320])
    def test_margin_keeps_rounding_allowance(self, step):
        # as h -> 0, 2 h R_p falls below the ulp of the values the window
        # compares; the window must still cover a few rounding errors of them
        for dom, fld in (
            builtin_problem("matrix", 36)[:2],
            sincos_problem(24),
            fallback_cloud(),
        ):
            hreg = sd.decompose(dom, fld).hamiltonian
            t0, g0 = hreg.bidual_at_slopes(dom.points), hreg._inner_table(dom.points)
            pieces = (
                hreg.lstar_table,
                g0,
                t0,
                dom.points @ hreg.pset.pts.T - t0,  # the pieces of HB
            )
            scale = max(float(np.abs(a).max()) for a in pieces)
            hreg.fd_step = step * hreg.pset.radius
            tau = conjugacy._candidate_margin(hreg)
            assert tau >= 8 * np.spacing(scale)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_grids_bit_identical(self, n):
        for dom, fld in (
            sincos_problem(n),
            random_problem(np.random.default_rng(5), n, 2),
        ):
            rep = sd.decompose(dom, fld)
            for perm in (np.arange(n), pair_swap(n), rep.sigma.sigma):
                assert_shared_pass_matches(rep.hamiltonian, perm)

    @pytest.mark.parametrize(
        "problem", [sincos_problem, tent_problem], ids=["sincos-160", "tent-160"]
    )
    def test_large_groups_bit_identical(self, problem, monkeypatch):
        # at n = 160 in d = 1 the derived budget passes the old fixed 1024
        # candidates; the residuals keep the bytes of one-candidate groups
        dom, fld = problem(160)
        rep = sd.decompose(dom, fld)
        hreg, perm = rep.hamiltonian, rep.sigma.sigma
        assert conjugacy._group_budget(dom.n, hreg.pset.m) > 1024
        want = residual_gradients(hreg, perm).tobytes()
        monkeypatch.setattr(conjugacy, "_group_budget", lambda n, m: 1)
        assert residual_gradients(hreg, perm).tobytes() == want

    def test_small_blocks_bit_identical(self, monkeypatch):
        # one-row test blocks and groups closed after every block
        dom, fld, bf = builtin_problem("matrix", 36)
        rep = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        hreg, perm = rep.hamiltonian, rep.sigma.sigma
        for h in (hreg.fd_step, 0.1 * hreg.pset.radius):
            hreg.fd_step = h
            want = residual_gradients(hreg, perm)
            monkeypatch.setattr(domain, "ROW_BLOCK", 1)
            monkeypatch.setattr(conjugacy, "_group_budget", lambda n, m: 1)
            got = residual_gradients(hreg, perm)
            monkeypatch.undo()
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("problem", ["sincos-24", "matrix-36"])
    def test_bidual_blocks_bit_identical(self, problem, monkeypatch):
        # the grid bidual in one-row blocks, in blocks of a few rows and in
        # one block of all n rows (d = 1 and d = 2); bytes, so that the sign
        # of a zero counts too
        if problem == "sincos-24":
            dom, fld = sincos_problem(24)
        else:
            dom, fld = builtin_problem("matrix", 36)[:2]
        hreg = sd.decompose(dom, fld).hamiltonian
        n, m = hreg._xp.shape
        blocks, maxplus = [], conjugacy._maxplus

        def spy(a, b, *args, **kw):
            if b is hreg._xp:  # a block of t0 = g0 (x) E
                blocks.append(len(a))
            return maxplus(a, b, *args, **kw)

        for perm in (np.arange(n), three_cycle(n), pair_swap(n)):
            want = residual_gradients(hreg, perm).tobytes()
            if np.array_equal(perm, np.arange(n)):
                assert want == fd_residual_gradients(hreg, perm).tobytes()
            for rows in (1, 3, n):  # d = 1 reads the first, d = 2 the second
                monkeypatch.setattr(domain, "ROW_BLOCK", rows * m)
                monkeypatch.setattr(conjugacy, "_BIDUAL_BLOCKS", -(-n // rows))
                monkeypatch.setattr(conjugacy, "_maxplus", spy)
                blocks.clear()
                assert residual_gradients(hreg, perm).tobytes() == want
                assert blocks == [rows] * (n // rows)
            monkeypatch.undo()

    def test_wrong_length_rejected(self, sincos64_hreg):
        hreg = sincos64_hreg[0]
        n = hreg.dom.n
        for perm in (np.arange(n - 1), np.arange(n + 1), np.arange(n).reshape(2, -1)):
            with pytest.raises(ValueError, match="permutation"):
                residual_gradients(hreg, perm)

    def test_repeated_or_foreign_index_rejected(self, sincos64_hreg):
        hreg = sincos64_hreg[0]
        n = hreg.dom.n
        repeated = np.arange(n)
        repeated[1] = 0
        out_of_range, floats = np.arange(1, n + 1), np.arange(n) + 0.0
        for perm in (repeated, out_of_range, np.arange(n) - 1, floats):
            with pytest.raises(ValueError, match="permutation"):
                residual_gradients(hreg, perm)

    # the dense pass over 1 + 2d bidual tables peaked at 4.02 and 0.94 MB,
    # the sparse pass with its 2d shifted products held together at 2.55
    # and 0.70 MB; with one shifted product at a time it read 1.48 and
    # 0.47 MB, and with the grid bidual in row blocks 1.11 and 0.414 MB
    # (gradskew-196: 63700 entries per [n, m] table). With 3 or more CPUs
    # gradskew-196's products take 3 workers, one more iteration buffer
    # each: 1.19 MB. On a random d = 1 field at n = 64 (m = 65) one group
    # of 1024 candidates' bookkeeping set the peak, 312,507 B; groups of
    # max(ROW_BLOCK, n m) // 16 = 260 candidates read 219,725 B
    @pytest.mark.parametrize(
        "name, n, peak_mb",
        [("gradskew", 196, 1.31), ("sincos", 128, 0.46), ("random", 64, 0.24)],
        # the same names when a bound moves
        ids=["gradskew-196", "sincos-128", "random-d1-64"],
    )
    def test_peak_memory_below_dense_pass(self, name, n, peak_mb):
        if name == "random":
            rep = sd.decompose(*random_problem(np.random.default_rng(n), n, d=1))
        else:
            dom, fld, bf = builtin_problem(name, n)
            rep = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        hreg = rep.hamiltonian
        gc.collect()
        tracemalloc.start()
        try:
            residual_gradients(hreg, rep.sigma.sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_mb * 1e6

    @pytest.mark.parametrize("n", [49, 100])
    def test_several_inner_groups_bit_identical(self, n, monkeypatch):
        # d = 2 recomputes the shifted products in every inner group of
        # candidates; a small group budget makes several of them
        dom, fld = random_problem(np.random.default_rng(n), n, d=2)
        rep = sd.decompose(dom, fld)
        hreg, m = rep.hamiltonian, rep.hamiltonian.pset.m
        assert m != n
        monkeypatch.setattr(conjugacy, "_group_budget", lambda n, m: 16)
        groups, candidate_groups = [], conjugacy._candidate_groups

        def counted(pieces, thr, width, budget):
            for group in candidate_groups(pieces, thr, width, budget):
                groups.append(width)
                yield group

        monkeypatch.setattr(conjugacy, "_candidate_groups", counted)
        for h in (hreg.fd_step, 0.05 * hreg.pset.radius):
            hreg.fd_step = h
            for perm in (np.arange(n), rep.sigma.sigma):
                groups.clear()
                assert_shared_pass_matches(hreg, perm)
                assert groups.count(m) >= 3


def broadcast_bidual_at_slopes(hreg, ys):
    """[b, k] = L**(y_b, p_k) as one [b, m, n] maximum."""
    yp = ys @ hreg.pset.pts.T
    g = (yp[:, :, None] - hreg.lstar_table[None, :, :]).max(axis=1)
    px = hreg._xp.T
    return (px[None, :, :] + g[:, None, :]).max(axis=2)


def broadcast_inner_table(hreg, ys):
    """[b, j] = max_k' <y_b, p_k'> - L*(p_k', x_j) as one [b, m, n] maximum."""
    yp = ys @ hreg.pset.pts.T
    return (yp[:, :, None] - hreg.lstar_table[None, :, :]).max(axis=1)


def broadcast_restricted_bidual(hreg, y, q):
    """L**(y, q) as one [1, m, n] maximum."""
    yp = np.reshape(y, (1, -1)) @ hreg.pset.pts.T
    qx = np.reshape(q, (1, -1)) @ hreg.dom.points.T
    block = yp[:, :, None] + qx[:, None, :] - hreg.lstar_table[None, :, :]
    return float(block.max())


class TestRunningMaxEvaluators:
    @pytest.fixture(scope="class")
    def plane_hreg(self):
        dom, fld, bf = builtin_problem("matrix", 36)
        return sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian).hamiltonian

    def test_bidual_at_slopes_matches_broadcast(self, sincos64_hreg, plane_hreg):
        rng = np.random.default_rng(11)
        for hreg in (sincos64_hreg[0], plane_hreg):
            r = hreg.pset.radius
            ys = np.concatenate(
                [hreg.dom.points, rng.uniform(-2 * r, 2 * r, size=(40, hreg.dom.dim))]
            )
            want = broadcast_bidual_at_slopes(hreg, ys)
            assert np.array_equal(hreg.bidual_at_slopes(ys), want)
            assert np.array_equal(hreg._inner_table(ys), broadcast_inner_table(hreg, ys))


def broadcast_restricted_dual(kernel, dom, pset):
    """[k, i] = L*(p_k, x_i) as three broadcast maxima over E = x @ P.T,
    in the association of regularize's lstar_table: through the [n, n] table
    E (x) -L."""
    e = dom.points @ pset.pts.T  # [j, k]
    lh = (e[:, :, None] - kernel.matrix[:, None, :]).max(axis=0)  # [k, j]
    a = (e[:, :, None] - lh[None, :, :]).max(axis=1)  # [i, j]
    return (a[:, :, None] + e[None, :, :]).max(axis=1).T


class TestMaxPlusProducts:
    @pytest.mark.parametrize(
        "r, s, c",
        [
            (1, 6, 5),
            (4, 1, 5),
            (4, 6, 1),
            (1, 1, 1),
            (7, 6, 5),
            # blocks of 8192 // 30 = 273 rows, the last one of 108
            (1200, 6, 5),
            # b alone holds 130 * 130 >= 2**13 cells: one row per block
            (3, 130, 130),
        ],
    )
    def test_maxplus_matches_broadcast(self, r, s, c, monkeypatch):
        rng = np.random.default_rng([r, s, c])
        a, b = rng.normal(size=(r, s)), rng.normal(size=(s, c))
        a[rng.random((r, s)) < 0.2] = -np.inf
        b[rng.random((s, c)) < 0.2] = -np.inf
        a[-1] = -np.inf  # a row of -inf gives a row of -inf
        want = (a[:, :, None] + b[None, :, :]).max(axis=1)
        # strided views into larger arrays
        wide_a, wide_b = np.full((2 * r, 3 * s), 7.0), np.full((3 * s, 2 * c), 7.0)
        wide_a[::2, ::3], wide_b[::3, ::2] = a, b
        # subtracting -b gives the bits of adding b, -inf entries included
        for op, sign in ((np.add, 1.0), (np.subtract, -1.0)):
            # the blocks of the default budget, then one row per block
            for budget in (conjugacy._MAXPLUS_BUDGET, 1):
                monkeypatch.setattr(conjugacy, "_MAXPLUS_BUDGET", budget)
                for x, y in (
                    (a, sign * b),
                    (np.ascontiguousarray(a.T).T, np.ascontiguousarray(sign * b.T).T),
                    (wide_a[::2, ::3], (sign * wide_b)[::3, ::2]),
                ):
                    assert np.array_equal(conjugacy._maxplus(x, y, op), want)
            monkeypatch.undo()
            # each row alone gives the same row
            for i in range(r):
                row = conjugacy._maxplus(a[i : i + 1], sign * b, op)[0]
                assert np.array_equal(row, want[i])

    @pytest.mark.parametrize("m", [1, 2, 7, 17, 130, 513])
    @pytest.mark.parametrize("n", [1, 2, 7, 17, 130, 513])
    def test_d1_shifted_entries_equal_blas_product(self, n, m):
        # across BLAS tile edges, with the zeros and signed zeros of a grid
        # and a dual set holding the origin; compared as bytes, so the sign
        # of a zero counts
        rng = np.random.default_rng([n, m])
        grid, pts = rng.normal(size=(n, 1)), rng.normal(size=(m, 1))
        grid[::3], grid[1::5], pts[::4], pts[2::7] = 0.0, -0.0, 0.0, -0.0
        h = 1e-4 * (1 + n % 3)
        shifts = np.array([[h], [-h]])
        b, k = (ix.ravel() for ix in np.meshgrid(np.arange(n), np.arange(m)))
        got = conjugacy._shifted_entries(grid, pts, shifts, b, k)
        for q, s in enumerate(shifts):
            assert got[q].tobytes() == ((grid + s) @ pts.T)[b, k].tobytes()

    def test_restricted_dual_matches_broadcast(self, sincos64_hreg):
        hreg, kernel, pset = sincos64_hreg
        dom, fld, bf = builtin_problem("matrix", 36)
        rep = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        # m = 65 > n = 64, m = 7 < n = 36 (matrix takes six distinct
        # values), and a hand-built dual set of m = 5 < n = 64 on the
        # sincos-64 grid
        r = pset.radius
        few = sd.DualPointSet(np.array([[0.0], [r], [-r], [0.5 * r], [-0.25 * r]]), r)
        for kernel, dom, pset in (
            (kernel, hreg.dom, pset),
            (rep.kernel, dom, rep.hamiltonian.pset),
            (kernel, hreg.dom, few),
        ):
            want = broadcast_restricted_dual(kernel, dom, pset)
            assert np.array_equal(regularize(kernel, dom, pset).lstar_table, want)

    @pytest.mark.parametrize("problem", ["matrix-64", "random-d2-48"])
    def test_blocks_raise_no_peak(self, problem, monkeypatch):
        if problem == "matrix-64":
            dom, fld, bf = builtin_problem("matrix", 64)
            kw = dict(rule=bf.rule, jacobian=bf.jacobian)
        else:
            dom, fld = random_problem(np.random.default_rng(48), 48, d=2)
            kw = {}
        sd.decompose(dom, fld, **kw)  # lazy imports and caches first

        def peak(budget):
            monkeypatch.setattr(conjugacy, "_MAXPLUS_BUDGET", budget)
            gc.collect()
            tracemalloc.start()
            try:
                sd.decompose(dom, fld, **kw)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # repeated decompose calls move the peak by about 50 bytes each way
        # through Python objects; a block above the peak would add up to
        # 64 KiB and numpy's iteration buffers (a budget of 2**14 cells
        # adds 7 KB on matrix-64, and one of 2**16 about 200 KiB)
        blocked = peak(conjugacy._MAXPLUS_BUDGET)
        assert blocked <= peak(1) + 1024

    @pytest.mark.parametrize("r, s, c", [(7, 6, 5), (5, 2, 9), (40, 33, 17), (4, 1, 5), (1, 6, 5)])
    def test_workers_give_the_same_bits(self, r, s, c, monkeypatch):
        # exact ties among a few values, zeros of both signs and -inf in a;
        # an output cell can be +0.0 or -0.0, so tables are compared as bytes
        rng = np.random.default_rng([r, s, c, 3])
        values, p = [0.0, -0.0, -1.0, -0.5, 1.0], [0.3, 0.3, 0.15, 0.15, 0.1]
        a, b = rng.choice(values, (r, s), p=p), rng.choice(values, (s, c), p=p)
        a[rng.random((r, s)) < 0.1] = -np.inf
        if s >= 2:  # np.add's first and last pieces at cell (0, 0): +0.0 and -0.0
            a[0], a[0, [0, -1]], b[[0, -1], 0] = -1.0, (0.0, -0.0), -0.0
        want = {}
        # 3 workers is more than the CPUs of a 2-core runner, and a short
        # switch interval interleaves the workers' rows finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for op in (np.add, np.subtract):
                for workers in (1, 2, 3):
                    monkeypatch.setattr(conjugacy, "_CPUS", workers)
                    monkeypatch.setattr(conjugacy, "_WORKER_CELLS", 1)
                    got = conjugacy._maxplus(a, b, op)
                    # the strided path of regularize, out=lstar.T
                    strided = np.full((c, r), 7.0)
                    conjugacy._maxplus(a, b, op, out=strided.T)
                    want.setdefault(op, got)
                    assert got.tobytes() == want[op].tobytes(), (op, workers)
                    assert np.ascontiguousarray(strided.T).tobytes() == want[op].tobytes()
                ref = op(a[:, :, None], b).max(axis=1)
                assert want[op].tobytes() == ref.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_worker_error_raised_after_join(self, failing, monkeypatch):
        # the failing share raises at once, the other sleeps first: the
        # error reaches the caller only once the sleeper is joined
        monkeypatch.setattr(conjugacy, "_CPUS", 2)
        monkeypatch.setattr(conjugacy, "_WORKER_CELLS", 1)
        before = set(threading.enumerate())

        def op(x, y):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} failed")
            time.sleep(0.05)
            return np.add(x, y)

        a, b = np.zeros((4, 6)), np.zeros((6, 5))
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            conjugacy._maxplus(a, b, op)
        assert set(threading.enumerate()) == before

    def test_floor_starts_no_thread(self, monkeypatch):
        started = []

        def no_thread(*args, **kw):
            started.append(args)
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(conjugacy, "_CPUS", 2)
        # 128 x 255 cells split in two would give calls below 2**14 cells
        a, b = np.ones((3, 128)), np.ones((128, 255))
        assert np.array_equal(conjugacy._maxplus(a, b), np.full((3, 255), 2.0))
        # nor does any product of a 128-cell interval, up to 131 x 128 cells
        dom, fld = sincos_problem(128)
        sd.decompose(dom, fld)
        assert started == []
        # one more column of b makes two calls of 2**14 cells each
        with pytest.raises(AssertionError, match="thread was started"):
            conjugacy._maxplus(a, np.ones((128, 256)))

    def test_grid_pairing_is_the_one_product(self):
        dom, fld, bf = builtin_problem("gradskew", 196)
        hreg = sd.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian).hamiltonian
        assert np.array_equal(hreg._xp, dom.points @ hreg.pset.pts.T)

    def test_regularize_computes_the_grid_pairing_once(self, monkeypatch):
        dom, fld = random_problem(np.random.default_rng(49), 12, d=2)
        kernel = sd.optimal_kernel(dom, fld, sd.assignment_relaxation(dom, fld)[1])
        pset = sd.build_dual_points(dom, fld)
        made = []

        def spy(d, p):
            made.append(dom.points @ pset.pts.T)
            return made[-1]

        monkeypatch.setattr(conjugacy, "_grid_pairing", spy)
        hreg = regularize(kernel, dom, pset)
        assert len(made) == 1 and hreg._xp is made[0]
        monkeypatch.undo()
        assert np.array_equal(hreg.lstar_table, regularize(kernel, dom, pset).lstar_table)
