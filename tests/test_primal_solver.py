import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import selfdual as sd
from selfdual import domain, fields
from selfdual.dual_solver import (
    assignment_relaxation,
    dual_objective,
    solve,
    solve_brute,
    solve_matching,
)
from selfdual.primal_solver import (
    EPS_PRIMAL,
    kernel_cancellation,
    optimal_kernel,
    primal_converged,
    weak_duality,
)

from conftest import (
    closed_form_primal,
    kernel_certificate,
    monotone_problem,
    random_involution,
    random_kernel,
    random_problem,
    sincos_problem,
    tent_problem,
)


def primal_lp_oracle(dom, fld):
    """Independent dense LP for min P over anti-symmetric kernels.

    Built directly from the definition (one epigraph variable per index,
    one constraint per affine piece), no reuse of solver code paths.
    """
    n = dom.n
    cji = dom.points @ fld.values.T
    iu, ju = np.triu_indices(n, k=1)
    pos = -np.ones((n, n), dtype=int)
    pos[iu, ju] = np.arange(len(iu))
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for i in range(n):
        for j in range(n):
            rows.append(r), cols.append(i), vals.append(1.0)
            if j < i:
                rows.append(r), cols.append(n + pos[j, i]), vals.append(1.0)
            elif j > i:
                rows.append(r), cols.append(n + pos[i, j]), vals.append(-1.0)
            rhs.append(cji[j, i])
            r += 1
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(r, n + len(iu)))
    c = np.concatenate([np.full(n, dom.cell_measure), np.zeros(len(iu))])
    big = 10 * (1 + max(dom.radius, fld.field_radius)) ** 2
    res = linprog(
        c,
        A_ub=-a,
        b_ub=-np.array(rhs),
        bounds=[(None, None)] * n + [(-big, big)] * len(iu),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


class TestPrimalObjective:
    def test_zero_kernel_support_form(self):
        dom, fld = monotone_problem(10)
        kernel = sd.AntiSymmetricKernel(np.zeros((10, 10)))
        # all field values are positive, so the right endpoint wins every max
        expect = float(dom.points[-1, 0] * fld.values.sum() * dom.cell_measure)
        p = kernel_certificate(dom, fld, kernel).primal_value
        assert p == pytest.approx(expect, rel=1e-14)

    def test_sincos_near_pi(self):
        dom, fld = sincos_problem(64)
        _, value, _ = closed_form_primal(dom, fld)
        assert value == pytest.approx(math.pi, rel=0.02)

    def test_sincos_analytic_kernel_near_pi(self):
        # complementarity along the reflection makes the tabulated analytic
        # kernel essentially optimal already
        dom, fld = sincos_problem(64)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        p = kernel_certificate(dom, fld, kernel).primal_value
        assert p == pytest.approx(math.pi, rel=0.02)

    def test_dominates_every_involution(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            dom, fld = random_problem(rng, n)
            kernel = random_kernel(rng, n)
            s = random_involution(rng, n)
            p = kernel_certificate(dom, fld, kernel).primal_value
            assert p >= dual_objective(dom, fld, s) - 1e-12

    def test_convex_in_kernel(self):
        rng = np.random.default_rng(21)
        dom, fld = random_problem(rng, 9)
        for _ in range(50):
            k1 = random_kernel(rng, 9)
            k2 = random_kernel(rng, 9)
            t = float(rng.uniform())
            mix = sd.AntiSymmetricKernel(
                np.triu(t * k1.matrix + (1 - t) * k2.matrix, 1)
            )
            lhs, p1, p2 = (kernel_certificate(dom, fld, k).primal_value for k in (mix, k1, k2))
            rhs = t * p1 + (1 - t) * p2
            assert lhs <= rhs + 1e-12 * max(1, abs(rhs))


class TestWeakDuality:
    def test_random_pairs_nonnegative_slack(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            kernel = random_kernel(rng, n)
            s = random_involution(rng, n)
            cert = weak_duality(dom, fld, kernel, s)
            assert (cert.slack >= 0).all()
            assert cert.gap >= 0
            assert cert.cancellation == 0.0
            assert cert.primal_value - cert.dual_value >= -1e-12 * max(
                1, abs(cert.primal_value)
            )

    def test_zero_kernel_identity_slack_formula(self):
        dom, fld = monotone_problem(10)
        kernel = sd.AntiSymmetricKernel(np.zeros((10, 10)))
        cert = weak_duality(dom, fld, kernel, sd.Involution.identity(10))
        x = dom.points[:, 0]
        u = fld.values[:, 0]
        expect = ((x[-1] - x) * u).sum() * dom.cell_measure
        assert cert.gap == pytest.approx(expect, rel=1e-12)
        assert cert.gap > 0

    def test_optimal_pair_small_slack(self):
        dom, fld = sincos_problem(64)
        kernel, _, _ = closed_form_primal(dom, fld)
        s = solve_matching(dom, fld).sigma
        cert = weak_duality(dom, fld, kernel, s)
        assert cert.gap <= 0.02 * cert.primal_value

    def test_dual_value_is_dual_objective_bit_for_bit(self):
        # D is read off the pairing that also gives the scores, in
        # dual_objective's order: the same bits
        rng = np.random.default_rng(27)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 4)))
            s = random_involution(rng, n)
            cert = weak_duality(dom, fld, random_kernel(rng, n), s)
            assert cert.dual_value.hex() == dual_objective(dom, fld, s).hex()

    @staticmethod
    def check_against_formulas(dom, fld, kernel, s):
        """argmax, P and floor as the Lagrangian's argmax map, the primal
        objective and the convergence test's floor, from their formulas."""
        cert = weak_duality(dom, fld, kernel, s)
        c, k = sd.pairing(dom, fld), kernel.matrix
        scores = c.T - k  # [j, i] = <x_j, u_i> - K[j, i]
        assert cert.argmax.tobytes() == scores.argmax(axis=0).tobytes()
        p = float(scores.max(axis=0).sum() * dom.cell_measure)
        assert cert.primal_value.hex() == p.hex()
        scale = np.maximum(c.max(axis=1), -c.min(axis=1)).sum()
        scale += np.maximum(k.max(axis=0), -k.min(axis=0)).sum()
        mu = dom.cell_measure
        floor = float(4 * (dom.n + dom.dim + 2) * np.finfo(float).eps * mu * scale)
        assert cert.floor.hex() == floor.hex()

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name", fields.builtin_names())
    def test_argmax_and_floor_match_their_formulas_on_builtins(self, name, n):
        # the optimal kernel along the solved involution, and the builtin's
        # closed-form kernel, where it has one, along the identity
        bf = fields.builtin_field(name, n)
        dom = sd.build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        sol = solve(dom, fld)
        self.check_against_formulas(dom, fld, optimal_kernel(dom, fld, sol.pot), sol.sigma)
        if bf.hamiltonian is not None:
            kernel = sd.make_kernel(dom, bf.hamiltonian)
            self.check_against_formulas(dom, fld, kernel, sd.Involution.identity(dom.n))

    def test_argmax_and_floor_match_their_formulas_on_random_pairs(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 4)))
            kernel = random_kernel(rng, n, scale=float(rng.uniform(0.1, 10)))
            self.check_against_formulas(dom, fld, kernel, random_involution(rng, n))

    def test_rejects_a_kernel_of_another_size(self):
        dom, fld = monotone_problem(3)
        kernel = sd.AntiSymmetricKernel(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="kernel size"):
            weak_duality(dom, fld, kernel, sd.Involution.identity(3))
        with pytest.raises(ValueError, match="involution length"):
            weak_duality(dom, fld, kernel, sd.Involution.identity(4))

    def test_cancellation_bit_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 16))
            kernel = random_kernel(rng, n, scale=float(rng.uniform(0.1, 100)))
            s = random_involution(rng, n)
            assert kernel_cancellation(kernel, s, float(rng.uniform(0.1, 3))) == 0.0

    def test_rejects_non_involution(self):
        dom, fld = monotone_problem(3)
        kernel = sd.AntiSymmetricKernel(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            weak_duality(dom, fld, kernel, sd.Involution(np.array([1, 2, 0])))


class TestMinimizePrimal:
    """The closed-form primal that takes the minimizer's place: the optimal
    kernel from the assignment potentials, its value and primal_converged."""

    def test_single_cell(self):
        dom, fld = monotone_problem(1)
        kernel, value, _ = closed_form_primal(dom, fld)
        assert np.all(kernel.matrix == 0.0)
        assert value == pytest.approx(
            float(dom.points[0] @ fld.values[0]) * dom.cell_measure
        )

    def test_monotone_reaches_dual_value(self):
        dom, fld = monotone_problem(16)
        _, value, converged = closed_form_primal(dom, fld)
        d = solve_brute(dom, fld).value if dom.n <= 12 else solve_matching(dom, fld).value
        assert converged
        assert value == pytest.approx(d, rel=1e-6)
        assert value == pytest.approx(
            float((dom.points**2).sum() * dom.cell_measure), rel=1e-6
        )

    def test_tent_matches_certified_optimum(self):
        # enumeration at small n and the relaxation bound at n = 64 agree on
        # an optimum near 2/3; the identity involution alone gives the
        # closed-form 5/8 - O(1/n^2), so that is a hard lower bound on D
        dom, fld = tent_problem(64)
        _, value, converged = closed_form_primal(dom, fld)
        match = solve_matching(dom, fld)
        ident = dual_objective(dom, fld, sd.Involution.identity(64))
        assert ident == pytest.approx(0.625, abs=2.0 / 64**2)
        assert match.value >= ident - 1e-12
        assert value == pytest.approx(match.value, rel=0.02)
        assert converged

    def test_closed_form_bounded_by_zero_kernel(self):
        rng = np.random.default_rng(24)
        dom, fld = random_problem(rng, 14)
        zero = sd.AntiSymmetricKernel(np.zeros((14, 14)))
        zero_val = kernel_certificate(dom, fld, zero).primal_value
        _, value, _ = closed_form_primal(dom, fld)
        assert value <= zero_val + 1e-12
        bound = assignment_relaxation(dom, fld)[2]
        assert value >= bound - 1e-6 * max(1, abs(value))

    def test_closed_form_kernel_attains_the_bound(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            _, pot, bound = assignment_relaxation(dom, fld)
            kernel, value, converged = closed_form_primal(dom, fld)
            k = kernel.matrix
            assert np.array_equal(k, -k.T) and not np.diag(k).any()
            # every affine piece of index i stays below pot_i, so P <= bound
            z = dom.points @ fld.values.T - k
            scale = 1 + np.abs(z).max()
            assert (z.max(axis=0) <= pot + 1e-13 * scale).all()
            assert value == pytest.approx(bound, rel=1e-12, abs=1e-14)
            assert converged

    @pytest.mark.parametrize("n, d", [(1, 1), (13, 1), (70, 2)])
    def test_optimal_kernel_in_row_blocks_bit_for_bit(self, n, d, monkeypatch):
        # the potential differences in row blocks give the bits of the whole
        # [n, n] table (pot_i - pot_j) / 2 taken off (c_ji - c_ij) / 2
        dom, fld = random_problem(np.random.default_rng([n, d]), n, d=d)
        pot = assignment_relaxation(dom, fld)[1]
        c = domain.pairing(dom, fld).T  # [j, i] = c_ji
        k = np.multiply(c - c.T, 0.5)
        k -= np.multiply(0.5, np.subtract(pot[None, :], pot[:, None]))
        want = sd.AntiSymmetricKernel(k).matrix.tobytes()
        for budget in (domain.ROW_BLOCK, 1, 3 * n):
            monkeypatch.setattr(domain, "ROW_BLOCK", budget)
            assert optimal_kernel(dom, fld, pot).matrix.tobytes() == want

    def test_convergence_floor(self):
        # the floor is 4 (n + d + 2) eps mu (sum_i max_j |C_ij| + sum_i
        # max_j |K_ji|), to the bit: at P = 0, where EPS_PRIMAL |P| is 0, a
        # P exactly the floor over the bound converges and the next float
        # does not
        for n, d in ((1, 1), (9, 1), (12, 2)):
            dom, fld = random_problem(np.random.default_rng([n, d, 7]), n, d=d)
            kernel = optimal_kernel(dom, fld, assignment_relaxation(dom, fld)[1])
            c = sd.pairing(dom, fld)
            scale = np.abs(c).max(axis=1).sum() + np.abs(kernel.matrix).max(axis=0).sum()
            floor = float(4 * (n + d + 2) * np.finfo(float).eps * dom.cell_measure * scale)
            cert = dataclasses.replace(kernel_certificate(dom, fld, kernel), primal_value=0.0)
            assert cert.floor == floor
            assert primal_converged(cert, -floor)
            assert not primal_converged(cert, -np.nextafter(floor, np.inf))
            # and at P = 1 the relative part, EPS_PRIMAL |P|, decides
            one = dataclasses.replace(cert, primal_value=1.0)
            assert primal_converged(one, 1.0 - 0.5 * EPS_PRIMAL)
            assert not primal_converged(one, 1.0 - 2.0 * EPS_PRIMAL)

    def test_lp_duality_crosscheck(self):
        # the dual of the kernel program is exactly the symmetric doubly
        # stochastic relaxation; certified here with an independent LP
        rng = np.random.default_rng(26)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            direct = primal_lp_oracle(dom, fld)
            relaxed = assignment_relaxation(dom, fld)[2]
            assert direct == pytest.approx(relaxed, rel=1e-7, abs=1e-9)
            _, value, _ = closed_form_primal(dom, fld)
            assert value == pytest.approx(direct, rel=1e-5, abs=1e-8)


class TestRecoverInvolution:
    """The involution read off a kernel: the argmax map of the Lagrangian
    and the pairs where the weak duality slack vanishes."""

    def test_zero_kernel_not_a_permutation(self):
        dom, fld = monotone_problem(12)
        cand = kernel_certificate(dom, fld, sd.AntiSymmetricKernel(np.zeros((12, 12)))).argmax
        # every index maxes out at the right endpoint
        assert len(np.unique(cand)) != 12
        assert (cand == 11).all()

    def test_sincos_analytic_kernel_raw_candidate(self):
        # a strictly complementary kernel needs no rounding: the argmax map
        # itself is the reflection involution
        dom, fld = sincos_problem(64)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        cand = kernel_certificate(dom, fld, kernel).argmax
        refl = np.arange(64)[::-1]
        sd.Involution(cand)  # raises unless an involution
        assert (cand == refl).mean() >= 0.95

    def test_tight_pairs_contain_optimal_cycles(self):
        # complementary slackness: at the optimal kernel every slack along
        # the blossom optimum vanishes, fixed points and 2-cycles alike
        dom, fld = sincos_problem(32)
        kernel, _, _ = closed_form_primal(dom, fld)
        s = solve_matching(dom, fld).sigma
        assert s.pairs()
        cert = weak_duality(dom, fld, kernel, s)
        assert (cert.slack >= 0).all()
        assert cert.slack.max() <= 1e-8 * max(1.0, abs(cert.primal_value))
