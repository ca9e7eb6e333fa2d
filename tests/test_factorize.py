import gc
import inspect
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import selfdual as sd
from selfdual import conjugacy, domain, dual_solver, factorize, fields
from selfdual.domain import box_grid, swap_permutation
from selfdual.factorize import (
    UniquenessVerdict,
    _estimate_jacobians,
    check_monotone,
    check_uniqueness,
    decompose,
    second_identity_check,
    selfdual_test,
)

from conftest import (
    matrix_problem,
    monotone_problem,
    odd_cycle_problem,
    random_involution,
    random_kernel,
    random_problem,
    rotation_permutation,
    sincos_problem,
    tent_problem,
)


def _reference_jacobians(dom, fld):
    """The sample-only Jacobian fit with one argpartition per point."""
    n, d = dom.n, dom.dim
    k = min(n - 1, max(d + 1, 2 * d))
    d2 = ((dom.points[:, None, :] - dom.points[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    out = np.empty((n, d, d))
    for i in range(n):
        nbrs = np.argpartition(d2[i], k - 1)[:k]
        dx = dom.points[nbrs] - dom.points[i]
        du = fld.values[nbrs] - fld.values[i]
        j_t, *_ = np.linalg.lstsq(dx, du, rcond=None)
        out[i] = j_t.T
    return out


def _traced_peak(f, *args, **kw):
    """tracemalloc peak, in bytes, of one call of f."""
    gc.collect()
    tracemalloc.start()
    try:
        f(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _builtin(name, n):
    bf = fields.builtin_field(name, n)
    dom = sd.build_grid(bf.domain_spec)
    return dom, sd.sample_field(dom, bf.rule), bf


def _uniqueness_samples(n, seed=0, max_triples=200_000):
    """The sample points and pairs check_uniqueness scans."""
    rng = np.random.default_rng(seed)
    if n * n * (n - 1) // 2 <= max_triples:
        return np.arange(n), np.stack(np.triu_indices(n, k=1), axis=1)
    m = int(np.sqrt(max_triples))
    xs = rng.integers(0, n, size=m)
    a = rng.integers(0, n, size=max_triples // max(1, m))
    b = rng.integers(0, n, size=max_triples // max(1, m))
    keep = a != b
    return xs, np.stack([a[keep], b[keep]], axis=1)


def _reference_uniqueness(dom, fld, jac, seed=0):
    """check_uniqueness as a loop over the sample points, one at a time."""
    xs, pairs = _uniqueness_samples(dom.n, seed)
    diff_y = dom.points[pairs[:, 0]] - dom.points[pairs[:, 1]]
    diff_u = fld.values[pairs[:, 0]] - fld.values[pairs[:, 1]]
    norms = np.linalg.norm(diff_y, axis=1)
    min_ratio = np.inf
    witness = (0, 0, 0)
    medians = []
    for xi in xs:
        resid = diff_y @ jac[xi] + diff_u
        ratio = np.linalg.norm(resid, axis=1) / norms
        k = int(ratio.argmin())
        if ratio[k] < min_ratio:
            min_ratio = float(ratio[k])
            witness = (int(xi), int(pairs[k, 0]), int(pairs[k, 1]))
        medians.append(np.median(ratio))
    med = float(np.median(medians))
    verdict = (
        "non-unique-plausible" if min_ratio <= 0.1 * med else "uniqueness-plausible"
    )
    return factorize.UniquenessVerdict(verdict, min_ratio, med, witness)


def _same_verdict(a, b):
    bits = lambda v: np.float64(v).tobytes()
    return (
        a.verdict == b.verdict
        and a.witness == b.witness
        and bits(a.min_ratio) == bits(b.min_ratio)
        and bits(a.median_ratio) == bits(b.median_ratio)
    )


def _smooth_field(rng, d):
    """u(x) = A x + sin(B x) / 2 on a point cloud, with its rule and Jacobian."""
    a, b = rng.normal(size=(d, d)), rng.normal(size=(d, d))

    def rule(x):
        x = np.atleast_1d(x)
        return a @ x + 0.5 * np.sin(b @ x)

    def jacobian(x):
        x = np.atleast_1d(x)
        return a + 0.5 * np.cos(b @ x)[:, None] * b

    return rule, jacobian


class TestDecompose:
    @pytest.mark.parametrize("name", ["sincos", "tent", "gradskew", "matrix"])
    def test_field_scaled_by_two_to_the_600(self, name):
        # a power of two scales the pairing exactly, so sigma stays at
        # 2^-600; at 2^600 R^2 overflows, and the field is refused by scale
        dom, fld, _ = _builtin(name, 16)
        sigma = decompose(dom, fld).sigma
        assert decompose(dom, sd.SampledField(np.ldexp(fld.values, -600))).sigma == sigma
        with pytest.raises(ValueError, match=r"field radius \S+e\+18[01]"):
            decompose(dom, sd.SampledField(np.ldexp(fld.values, 600)))

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name", fields.builtin_names())
    def test_report_kernel_is_the_primal_kernel(self, name, n):
        # the report's kernel is the closed form in the dual's potentials,
        # and P, D, gap, complementarity and the convergence verdict are
        # recomputed from it, sigma and the bound, bit for bit
        dom, fld, bf = _builtin(name, n)
        rep = decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        _, pot, bound = sd.assignment_relaxation(dom, fld)
        assert rep.dual.pot.tobytes() == pot.tobytes() and rep.dual.bound == bound
        kernel = rep.kernel
        assert kernel.matrix.tobytes() == sd.optimal_kernel(dom, fld, pot).matrix.tobytes()
        assert not kernel.matrix.flags.writeable
        p = float((sd.pairing(dom, fld).T - kernel.matrix).max(axis=0).sum() * dom.cell_measure)
        assert rep.p_value.hex() == p.hex()
        assert rep.d_value.hex() == sd.dual_objective(dom, fld, rep.sigma).hex()
        cert = sd.weak_duality(dom, fld, kernel, rep.sigma)
        assert rep.gap.hex() == cert.gap.hex()
        assert rep.complementarity.tobytes() == cert.slack.tobytes()
        converged = sd.primal_converged(cert, rep.dual.bound)
        assert rep.tolerances["primal_converged"] is converged is True

    def test_sincos(self):
        dom, fld = sincos_problem(64)
        rep = decompose(dom, fld)
        refl = np.arange(64)[::-1]
        assert (rep.sigma.sigma == refl).mean() >= 0.95
        assert rep.p_value == pytest.approx(math.pi, rel=0.02)
        assert rep.d_value == pytest.approx(math.pi, rel=0.02)
        assert rep.residual1.median <= 0.1
        assert rep.gap >= -1e-12 * abs(rep.p_value)
        assert (rep.complementarity >= 0).all()
        mu = dom.cell_measure
        assert rep.complementarity.sum() * mu == pytest.approx(
            rep.gap, rel=1e-9, abs=1e-12
        )
        assert rep.monotone.verdict == "non-monotone"

    def test_peak_memory_gradskew_196(self):
        # 3.89 MB while the residual pass held its 2d shifted [n, m]
        # products together; 2.88 MB with one at a time, 2.74 MB with one
        # residual slot, 2.44 MB with the kernel rebuilt after the pass,
        # 2.52 MB with two workers per product, and 2.15 MB with the kernel
        # freed once L is formed and the grid bidual taken in row blocks
        # (2.23 MB with 3 or more CPUs, where the products take 3 workers)
        dom, fld, bf = _builtin("gradskew", 196)
        kw = dict(rule=bf.rule, jacobian=bf.jacobian)
        decompose(dom, fld, **kw)  # lazy imports and caches first
        assert _traced_peak(decompose, dom, fld, **kw) <= 2.36e6

    def test_peak_memory_matrix_196(self):
        # m < n here, so the certificate and the convergence test, which run
        # beside E and L*, come closest to the residual pass: 1.26 MB with no
        # |C| or |K| table in the convergence test, 1.40 MB with them
        dom, fld, bf = _builtin("matrix", 196)
        kw = dict(rule=bf.rule, jacobian=bf.jacobian)
        decompose(dom, fld, **kw)  # lazy imports and caches first
        assert _traced_peak(decompose, dom, fld, **kw) <= 1.32e6

    def test_monotone_identity_and_krauss(self):
        dom, fld = monotone_problem(16)
        rep = decompose(dom, fld)
        assert np.array_equal(rep.sigma.sigma, np.arange(16))
        assert rep.monotone.verdict == "strictly-monotone"
        assert rep.uniqueness.verdict == "unique"
        # the diagonal identity u_i ~ grad1 HR(x_i, x_i) of a monotone field
        stats = second_identity_check(dom, fld, rep.hamiltonian, sd.Involution.identity(16))
        h = rep.tolerances["fd_step"]
        assert stats.median <= 10 * (h + dom.mesh)

    def test_matrix_swap(self):
        dom, fld, bf = matrix_problem(12)
        rep = decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        swap = swap_permutation(dom)
        assert (rep.sigma.sigma == swap.sigma).mean() >= 0.90
        assert rep.residual1.median <= 0.15
        assert rep.uniqueness.verdict == "unique"

    def test_matrix_analytic_kernel_residuals(self):
        # the closed-form planar Hamiltonian reproduces u along the swap
        dom, fld, bf = matrix_problem(8)
        kernel = sd.make_kernel(dom, bf.hamiltonian)
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(kernel, dom, pset)
        h = 1e-4 * pset.radius
        swap = swap_permutation(dom)
        g1 = sd.grad1(hreg, dom.points[swap.sigma], dom.points, h)
        res1 = np.linalg.norm(fld.values - np.atleast_2d(g1), axis=1)
        assert np.median(res1) <= 10 * (h + dom.mesh)

    def test_report_dict_schema(self):
        dom, fld = sincos_problem(16)
        rep = decompose(dom, fld)
        d = rep.to_dict()
        assert set(d) == {
            "P",
            "D",
            "gap",
            "sigma",
            "residual1",
            "residual2",
            "complementarity",
            "monotone",
            "uniqueness",
            "config",
        }
        # perfbench reads primal_iterations, pset_size, eps_primal and
        # primal_converged
        assert set(d["config"]) == {
            "certificate",
            "dual_bound",
            "eps_primal",
            "fd_step",
            "mesh",
            "primal_converged",
            "primal_iterations",
            "pset_size",
            "radius",
            "radius_margin",
            "residual_scale_factor",
            "seed",
        }
        # the one dual path: the rounded assignment, or on an odd cycle the
        # kept-graph blossom
        certificates = {"assignment-bound-tight", "kept-graph-exact"}
        rng = np.random.default_rng(21)
        problems = [odd_cycle_problem()] + [random_problem(rng, 9, d=2) for _ in range(6)]
        for problem in [(dom, fld)] + problems:
            config = decompose(*problem).to_dict()["config"]
            assert config["certificate"] in certificates

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, value):
        # no library call takes a margin, finite or not: the dual ball's
        # margin is the module constant domain.RADIUS_MARGIN
        dom, fld = monotone_problem(8)
        with pytest.raises(TypeError, match="margin"):
            sd.build_dual_points(dom, fld, margin=value)

    def test_brute_path_on_small_instance(self):
        # the brute enumerator is an oracle, no longer a path of decompose
        dom, fld = monotone_problem(8)
        rep = decompose(dom, fld)
        assert rep.sigma == sd.solve_brute(dom, fld).sigma
        assert np.array_equal(rep.sigma.sigma, np.arange(8))

    def test_local_path_small_instance(self):
        # decompose takes no settings: asking it for a dual path fails loudly
        dom, fld = monotone_problem(8)
        with pytest.raises(TypeError, match="dual_method"):
            decompose(dom, fld, dual_method="local")

    @pytest.mark.parametrize(
        "problem, n",
        [
            (sincos_problem, 8),
            (sincos_problem, 56),
            (sincos_problem, 184),
            (tent_problem, 56),
            (tent_problem, 160),
        ],
    )
    def test_gap_never_negative(self, problem, n):
        # P and D round apart by an ulp or two here; the reported gap is
        # the certificate's mu * sum of slacks, which cannot be negative
        rep = decompose(*problem(n))
        assert rep.gap >= 0
        assert rep.to_dict()["gap"] >= 0

    def test_certificate_names_the_path(self):
        cases = [
            (sincos_problem(16), "assignment-bound-tight"),
            (monotone_problem(8), "assignment-bound-tight"),
            (odd_cycle_problem(), "kept-graph-exact"),
        ]
        for (dom, fld), cert in cases:
            rep = decompose(dom, fld)
            config = rep.to_dict()["config"]
            assert config["certificate"] == cert
            assert config["dual_bound"] == pytest.approx(rep.p_value, rel=1e-12)
            if cert == "kept-graph-exact":
                assert rep.p_value > rep.d_value + 0.4
            else:
                assert rep.d_value == pytest.approx(rep.p_value, rel=1e-12)

    def test_gradskew_potentials_kernel_reproduces_field(self):
        # the closed-form kernel of the monotone planar field is the one
        # whose regularization reproduces u along the identity
        dom = sd.symmetric_square_grid(1.0, 8)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fld = sd.sample_field(dom, lambda p: 2.0 * p + a @ p)
        rep = decompose(dom, fld)
        assert np.array_equal(rep.sigma.sigma, np.arange(dom.n))
        assert rep.residual1.median <= 1e-9
        assert rep.residual2.median <= 1e-9

    def test_signature_takes_no_settings(self):
        params = list(inspect.signature(sd.decompose).parameters)
        assert params == ["dom", "fld", "rule", "jacobian"]
        assert not hasattr(sd, "PipelineConfig")
        assert not hasattr(factorize, "PipelineConfig")

    def test_checks_take_no_step_or_tolerance(self):
        # the residual step is the Hamiltonian's fd_step and the tolerance
        # EPS_PRIMAL; the diagonal check is second_identity_check at the identity
        def params(f):
            return list(inspect.signature(f).parameters)

        assert params(sd.residual_gradients) == ["hreg", "perm"]
        assert params(second_identity_check) == ["dom", "fld", "hreg", "s"]
        assert params(sd.primal_converged) == ["cert", "bound"]
        for name in ("krauss_check", "FD_STEP_REL"):
            assert not hasattr(factorize, name) and not hasattr(sd, name)

    def test_report_config_holds_the_constants(self):
        dom, fld = sincos_problem(16)
        rep = decompose(dom, fld)
        config = rep.to_dict()["config"]
        assert config["eps_primal"] == 1e-6 == sd.primal_solver.EPS_PRIMAL
        assert config["radius_margin"] == 0.05 == domain.RADIUS_MARGIN
        assert config["seed"] == 0 and type(config["seed"]) is int
        # the step is computed once, on the Hamiltonian, and reported as is
        hreg = rep.hamiltonian
        step = conjugacy.FD_STEP_REL * hreg.pset.radius
        assert config["fd_step"].hex() == hreg.fd_step.hex() == step.hex()
        assert config["radius"] == hreg.pset.radius and conjugacy.FD_STEP_REL == 1e-4


class TestSelfdualTest:
    def test_involutions_cancel_exactly(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            n = int(rng.integers(2, 14))
            kernel = random_kernel(rng, n, scale=float(rng.uniform(0.5, 50)))
            s = random_involution(rng, n)
            value, verdict = selfdual_test(kernel, s, mu=0.37)
            assert value == 0.0
            assert verdict == "self-dual-consistent"

    def test_difference_kernel_any_permutation(self):
        rng = np.random.default_rng(31)
        dom = sd.interval_grid(0.0, 1.0, 9)
        f = np.cos(3 * dom.points[:, 0])
        kernel = sd.AntiSymmetricKernel.from_matrix(f[:, None] - f[None, :])
        for _ in range(50):
            perm = rng.permutation(9)
            value, verdict = selfdual_test(kernel, perm, mu=1.0 / 9)
            assert verdict == "self-dual-consistent"

    def test_rotation_map_detected(self):
        dom = sd.symmetric_square_grid(1.0, 4)
        jx = np.stack([-dom.points[:, 1], dom.points[:, 0]], axis=1)
        kernel = sd.AntiSymmetricKernel.from_matrix(jx @ dom.points.T)
        rot = rotation_permutation(dom)
        mu = dom.cell_measure
        value, verdict = selfdual_test(kernel, rot, mu)
        expect = -float((dom.points**2).sum() * mu)
        assert value == pytest.approx(expect, rel=1e-12)
        assert value < 0
        assert verdict == "not-self-dual"


class TestCheckMonotone:
    def test_linear(self):
        dom, fld = monotone_problem(12)
        assert check_monotone(dom, fld).verdict == "strictly-monotone"

    def test_sincos_non_monotone(self):
        dom, fld = sincos_problem(32)
        v = check_monotone(dom, fld)
        assert v.verdict == "non-monotone"
        i, j = v.worst_pair
        pairing = float(
            (dom.points[i] - dom.points[j]) @ (fld.values[i] - fld.values[j])
        )
        assert pairing == pytest.approx(v.min_pairing)
        assert pairing < 0

    def test_gradskew_strict(self):
        dom = sd.symmetric_square_grid(1.0, 5)
        a = np.array([[0.0, 2.0], [-2.0, 0.0]])
        fld = sd.sample_field(dom, lambda p: 2.0 * p + a @ p)
        assert check_monotone(dom, fld).verdict == "strictly-monotone"

    def test_peak_memory_in_place(self):
        # the pairing and one row block of reduced costs: 1.4 tables (a full
        # [n, n] table of pairings would add one more)
        dom, fld, _ = _builtin("gradskew", 196)
        assert _traced_peak(check_monotone, dom, fld) <= 1.5 * dom.n**2 * 8

    @pytest.mark.parametrize("d", [1, 2])
    def test_single_cell(self, d):
        # the walk reads only the +inf diagonal
        dom = sd.DiscreteDomain(np.full((1, d), 0.5), 1.0, d, 0.0)
        v = check_monotone(dom, sd.SampledField(np.full((1, d), -2.0)))
        assert (v.verdict, v.min_pairing, v.worst_pair) == ("strictly-monotone", np.inf, (0, 0))

    @pytest.mark.parametrize(
        "problem",
        [
            lambda: sincos_problem(32),
            lambda: _builtin("gradskew", 196)[:2],
            lambda: _builtin("rotationJ", 36)[:2],
            lambda: random_problem(np.random.default_rng(7), 23, 2),
        ],
        ids=["sincos-32", "gradskew-196", "rotationJ-36", "random-23"],
    )
    def test_row_blocks_do_not_move_the_walk(self, problem):
        # one row, seven entries and the default: the first least entry and
        # its bits do not depend on the blocks
        dom, fld = problem()
        want = check_monotone(dom, fld)
        for budget in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(domain, "ROW_BLOCK", budget)
                got = check_monotone(dom, fld)
            assert got.verdict == want.verdict and got.worst_pair == want.worst_pair
            assert np.float64(got.min_pairing).tobytes() == np.float64(want.min_pairing).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_pairings_raise(self, sign):
        # u = +-x 1e290 on a box of side 1e10: the pairings pass 1.8e308, so
        # the verdict of either sign would rest on inf - inf, and the
        # assignment would read inf entries; every pairing is refused by name
        dom = box_grid([(0, 1e10), (0, 1e10)], [2, 2])
        fld = sd.SampledField(sign * dom.points * 1e290)
        hreg = sd.decompose(dom, sd.SampledField(dom.points)).hamiltonian
        calls = [
            lambda: check_monotone(dom, fld),
            lambda: second_identity_check(dom, fld, hreg, sd.Involution.identity(4)),
            lambda: decompose(dom, fld),
            lambda: dual_solver.solve(dom, fld),
            lambda: sd.pairing(dom, fld),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="pairings overflow") as err:
                call()
            assert "field radius 1.061e+300 and domain radius 1.061e+10" in str(err.value)

    @pytest.mark.parametrize("n", [36, 121, 196])
    def test_rotation_monotone_within_rounding(self, n):
        # <J(x - y), x - y> = 0 exactly; the computed worst pairing reads
        # -1.1e-16 to -2.2e-16 at these sizes
        dom, fld, _ = _builtin("rotationJ", n)
        v = check_monotone(dom, fld)
        assert v.min_pairing < 0
        assert v.verdict == "monotone"

    @pytest.mark.parametrize(
        "t, verdict", [(1e-10, "strictly-monotone"), (-1e-10, "non-monotone")]
    )
    def test_beyond_allowance_decides(self, t, verdict):
        # the rotation plus t times the identity pairs to t |x - y|^2
        dom = sd.symmetric_square_grid(1.0, 6)
        fld = sd.sample_field(dom, lambda p: np.array([-p[1], p[0]]) + t * p)
        assert check_monotone(dom, fld).verdict == verdict

    @pytest.mark.parametrize("s", [1.0, 1e150, 1e155, 1e300])
    def test_large_non_monotone_field_stays_non_monotone(self, s):
        # <x_i - x_j, u_i - u_j> = -s (dx_1 + dx_2)^2: the allowance reads
        # the overflow-safe radii, where squaring past |u| ~ 1.3e154 made it
        # infinite and the verdict monotone
        dom = box_grid([(0, 1), (0, 1)], [2, 2])
        fld = sd.SampledField(-(dom.points[:, ::-1] + dom.points) * s)
        v = check_monotone(dom, fld)
        assert v.verdict == "non-monotone"
        assert v.min_pairing == pytest.approx(-s, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_allowance_bounds_rounding(self, d):
        # every pairing, computed as check_monotone computes it (both r_ij
        # and r_ji of dual_solver.reduced at pot = diag(c)), lies within
        # delta of its exact value in Fraction arithmetic, at mixed scales
        rng = np.random.default_rng(40 + d)
        dom, _ = random_problem(rng, 14, d)
        dom = sd.DiscreteDomain(dom.points * 1e3, dom.cell_measure, d, 0.0)
        fld = sd.SampledField(rng.normal(size=(14, d)) * np.logspace(-3, 2, d))
        c = sd.pairing(dom, fld)
        diag = np.diagonal(c)
        mono = ((diag[:, None] + diag[None, :]) - c) - c.T
        x = np.linalg.norm(dom.points, axis=1).max()
        u = np.linalg.norm(fld.values, axis=1).max()
        delta = Fraction((2 * d + 5) * np.finfo(float).eps * x * u)
        worst = Fraction(0)
        for i in range(14):
            for j in range(i + 1, 14):
                exact = sum(
                    (Fraction(dom.points[i, k]) - Fraction(dom.points[j, k]))
                    * (Fraction(fld.values[i, k]) - Fraction(fld.values[j, k]))
                    for k in range(d)
                )
                for r in (mono[i, j], mono[j, i]):
                    worst = max(worst, abs(Fraction(r) - exact))
        assert 0 < worst <= delta

    def test_rotation_field_monotone_not_strict(self):
        dom = sd.symmetric_square_grid(1.0, 4)
        fld = sd.sample_field(dom, lambda p: np.array([-p[1], p[0]]))
        v = check_monotone(dom, fld)
        assert v.verdict == "monotone"
        assert v.min_pairing == 0.0


class TestCheckUniqueness:
    def test_matrix_with_nonsingular_symmetric_part(self):
        dom, fld, bf = matrix_problem(8)
        v = check_uniqueness(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        assert v.verdict == "uniqueness-plausible"

    def test_tent_flagged_non_unique(self):
        dom, fld = tent_problem(32)
        rule = lambda x: 2.0 * x if x <= 0.5 else 3.0 - 2.0 * x
        jac = lambda x: np.array([[2.0 if x <= 0.5 else -2.0]])
        v = check_uniqueness(dom, fld, rule=rule, jacobian=jac)
        assert v.verdict == "non-unique-plausible"

    def test_strictly_monotone_plausible(self):
        dom, fld = monotone_problem(24)
        v = check_uniqueness(dom, fld, rule=lambda x: x)
        assert v.verdict == "uniqueness-plausible"

    def test_sample_only_fallback(self):
        dom, fld = tent_problem(32)
        v = check_uniqueness(dom, fld)  # jacobians estimated from samples
        assert v.verdict == "non-unique-plausible"

    # n <= 74 scans every triple, n >= 75 a seeded sample of them
    @pytest.mark.parametrize("n", [9, 74, 75, 120])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("source", ["jacobian", "rule", "samples"])
    def test_blocks_equal_point_loop(self, source, d, n, monkeypatch):
        rng = np.random.default_rng(1000 * d + n)
        dom, _ = random_problem(rng, n, d)
        rule, jacobian = _smooth_field(rng, d)
        fld = sd.SampledField(np.array([rule(p) for p in dom.points]))
        kw = {"jacobian": {"jacobian": jacobian}, "rule": {"rule": rule}, "samples": {}}
        kw = kw[source]
        if source == "samples":
            jac = _reference_jacobians(dom, fld)
        else:
            jac = _estimate_jacobians(dom, fld, **kw)
        ref = _reference_uniqueness(dom, fld, jac, seed=3)
        xs, pairs = _uniqueness_samples(n, seed=3)
        # blocks of one point, and blocks of four that leave a short last one
        assert len(xs) % 4
        for cap in (domain.ROW_BLOCK, 1, 4 * len(pairs) + 1):
            monkeypatch.setattr(domain, "ROW_BLOCK", cap)
            got = check_uniqueness(dom, fld, seed=3, **kw)
            assert _same_verdict(got, ref), (cap, got, ref)

    @pytest.mark.parametrize("n", [32, 128])
    def test_ties_and_nan_equal_point_loop(self, n, monkeypatch):
        # the tent has many exact zero ratios: the witness is the first
        # point, then the first pair; a NaN Jacobian never gives the minimum
        dom, fld = tent_problem(n)
        tent_jac = lambda x: np.array([[2.0 if x <= 0.5 else -2.0]])
        nan_jac = lambda x: np.array([[np.nan if x > 0.8 else 1.0]])
        refs = []
        for jacobian in (tent_jac, nan_jac, None):
            if jacobian is None:
                jac = _reference_jacobians(dom, fld)
            else:
                jac = _estimate_jacobians(dom, fld, jacobian=jacobian)
            refs.append(_reference_uniqueness(dom, fld, jac))
            # 2480 ratios: blocks of five points, the last one short
            for cap in (domain.ROW_BLOCK, 1, 2480):
                monkeypatch.setattr(domain, "ROW_BLOCK", cap)
                got = check_uniqueness(dom, fld, jacobian=jacobian)
                assert _same_verdict(got, refs[-1]), (jacobian, cap, got, refs[-1])
        assert refs[0].min_ratio == 0.0
        assert np.isnan(refs[1].median_ratio)

    def test_fallback_neighbours_equal_per_point_partition(self):
        # grids tie many neighbour distances; the batched argpartition must
        # pick the same neighbours in the same order as one call per row
        rng = np.random.default_rng(5)
        doms = [
            sd.interval_grid(0.0, 1.0, 40),
            sd.symmetric_square_grid(1.0, 7),
            sd.build_grid({"kind": "box", "bounds": [[0, 1]] * 3, "cells": [4] * 3}),
        ]
        doms += [random_problem(rng, 30, d)[0] for d in (1, 2, 3)]
        for dom in doms:
            fld = sd.SampledField(rng.normal(size=(dom.n, dom.dim)))
            got = _estimate_jacobians(dom, fld)
            assert np.array_equal(got, _reference_jacobians(dom, fld))

    def test_sample_only_fit_peak_below_distance_table(self):
        # the fit finds neighbours in row blocks: 0.26 MB at n = 400, where
        # the [n, n, d] differences and [n, n] distances took 3.85 MB
        dom, fld = random_problem(np.random.default_rng(400), 400, 2)
        assert _traced_peak(check_uniqueness, dom, fld) <= 0.5 * dom.n**2 * 8

    @pytest.mark.parametrize("name, n", [("sincos", 128), ("gradskew", 196)])
    def test_decompose_peak_not_above_point_loop(self, name, n, monkeypatch):
        # inside one decompose, from the same live memory, the blocks and the
        # per-point loop each run; decompose's tracemalloc peak with the
        # blocks is no higher than with the loop
        bf = fields.builtin_field(name, n)
        dom = sd.build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        peaks = {}

        def point_loop(dom, fld, rule=None, jacobian=None, seed=0):
            jac = _estimate_jacobians(dom, fld, rule, jacobian)
            return _reference_uniqueness(dom, fld, jac, seed)

        def both(*args, **kw):
            peaks["before"] = tracemalloc.get_traced_memory()[1]
            for label, f in (("loop", point_loop), ("blocks", check_uniqueness)):
                tracemalloc.reset_peak()
                out = f(*args, **kw)
                peaks[label] = tracemalloc.get_traced_memory()[1]
            return out

        monkeypatch.setattr(factorize, "check_uniqueness", both)
        # the kept graph certifies both fields; force the scan to run
        solve = dual_solver.solve
        monkeypatch.setattr(
            dual_solver, "solve", lambda *a: replace(solve(*a), uniqueness=None)
        )
        tracemalloc.start()
        try:
            decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        finally:
            tracemalloc.stop()
        before = peaks["before"]
        assert max(before, peaks["blocks"]) <= max(before, peaks["loop"])


def _optima(dom, fld):
    """Every optimal involution by enumeration, in exact values: the pairing
    entries scaled to integers by one power of two."""
    c = sd.pairing(dom, fld)
    n = dom.n
    scale = max(Fraction(x).denominator for x in c.flat)
    ci = np.array([[int(Fraction(x) * scale) for x in row] for row in c], dtype=object)
    sigs = dual_solver.all_involutions(n)
    vals = ci[np.arange(n)[None, :], sigs].sum(axis=1)
    best = max(vals)
    return {tuple(map(int, sig)) for sig, v in zip(sigs, vals) if v == best}


def _exact_value(dom, fld, sigma):
    c = sd.pairing(dom, fld)
    return sum(Fraction(c[i, k]) for i, k in enumerate(sigma))


def _certificate_cases():
    """Every builtin at n <= 12, seeded random instances, and planted ties:
    points on a grid of quarters and field values in halves, so that the
    pairing entries are exact and many involutions tie; last, two blocks
    that each tie a swap with two fixed points (four optima)."""
    cases = []
    for name in fields.builtin_names():
        for n in range(1, 13):
            bf = fields.builtin_field(name, n)
            dom = sd.build_grid(bf.domain_spec)
            if dom.n == n:
                cases.append((f"{name}-{n}", dom, sd.sample_field(dom, bf.rule)))
    rng = np.random.default_rng(7)
    for k in range(40):
        n, d = int(rng.integers(2, 11)), int(rng.integers(1, 3))
        dom, fld = random_problem(rng, n, d)
        cases.append((f"random-{k}", dom, fld))
    for k in range(60):
        n, d = int(rng.integers(2, 11)), int(rng.integers(1, 3))
        pts = np.unique(rng.integers(-4, 5, size=(3 * n, d)) / 4, axis=0)[:n]
        vals = rng.integers(-2, 3, size=pts.shape) / 2
        dom = sd.DiscreteDomain(pts, 1.0 / len(pts), d, 0.0)
        cases.append((f"planted-{k}", dom, sd.SampledField(vals)))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0], [0.0, 6.0]])
    vals = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    dom = sd.DiscreteDomain(pts, 0.25, 2, 0.0)
    cases.append(("two-blocks", dom, sd.SampledField(vals)))
    return cases


def _certify(dom, fld):
    """sigma and its exact uniqueness verdict from solve, as decompose
    reports it, or None past the blossom's edge cap."""
    sol = dual_solver.solve(dom, fld)
    if sol.uniqueness is None:
        return sol.sigma, None
    return sol.sigma, UniquenessVerdict(sol.uniqueness, alternative=sol.alternative)


class TestUniquenessCertificate:
    def test_agrees_with_enumeration(self, monkeypatch):
        # at the default cap the certificate decides every case; with a cap
        # of a few edges the larger rival components fall back to the scan
        cases = [(*case, _optima(*case[1:])) for case in _certificate_cases()]
        for cap in (dual_solver._BLOSSOM_EDGES, 3):
            monkeypatch.setattr(dual_solver, "_BLOSSOM_EDGES", cap)
            seen = dict.fromkeys(["unique", "ties of 2", "ties of 3+", "undecided"], 0)
            for label, dom, fld, optima in cases:
                sigma, v = _certify(dom, fld)
                mine = tuple(map(int, sigma.sigma))
                if v is None:
                    seen["undecided"] += 1
                elif v.verdict == "unique":
                    assert optima == {mine}, label
                    seen["unique"] += 1
                else:
                    assert v.verdict == "non-unique", label
                    alt = tuple(map(int, v.alternative.sigma))
                    assert alt != mine and {alt, mine} <= optima, label
                    seen["ties of 2" if len(optima) == 2 else "ties of 3+"] += 1
                if label == "two-blocks":
                    assert len(optima) == 4 and (v is None or v.verdict == "non-unique")
            decided = [seen[k] for k in ("unique", "ties of 2", "ties of 3+")]
            assert min(decided) >= 1, seen
            assert (seen["undecided"] >= 1) == (cap == 3), seen

    def test_rounding_allowance_keeps_a_tie(self):
        # two optima tie exactly, but rounding lifts the computed reduced
        # costs of the second one's pairs above the gap: without rho in tol
        # the kept graph loses it, and the verdict would read "unique"
        dom = sd.DiscreteDomain(np.arange(-3, 1)[:, None] * 0.3, 0.25, 1, 0.0)
        fld = sd.SampledField(np.array([[0.0], [-0.7], [-0.7], [-0.7]]))
        assert len(_optima(dom, fld)) == 2
        assert _certify(dom, fld)[1].verdict == "non-unique"

    @pytest.mark.parametrize("n", [4, 9, 16, 64])
    def test_rotation_non_unique_with_exact_tie(self, n):
        dom, fld, _ = _builtin("rotationJ", n)
        rep = decompose(dom, fld)
        v = rep.uniqueness
        assert v.verdict == "non-unique"
        assert v.alternative != rep.sigma
        assert _exact_value(dom, fld, v.alternative.sigma) == _exact_value(
            dom, fld, rep.sigma.sigma
        )

    def test_undecided_instance_gets_scan_verdict(self):
        # rotationJ on 196 cells: the assignment has no odd cycle, and the
        # kept graph is complete, 19110 edges in one rival component, above
        # the blossom's cap, so the scan decides
        dom, fld, bf = _builtin("rotationJ", 196)
        assert dom.n * (dom.n - 1) // 2 > dual_solver._BLOSSOM_EDGES
        assert dual_solver.solve(dom, fld).certificate == "assignment-bound-tight"
        assert _certify(dom, fld)[1] is None
        rep = decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
        verdicts = {"uniqueness-plausible", "non-unique-plausible"}
        assert rep.uniqueness.verdict in verdicts
        assert np.isfinite(rep.uniqueness.min_ratio)

    def test_odd_cycle_unique(self):
        # three points at 120 degrees with u = -x: in exact values of the
        # float data one involution is optimal, and the blossom finds it
        dom, fld = odd_cycle_problem()
        assert _optima(dom, fld) == {(2, 1, 0)}
        sigma, v = _certify(dom, fld)
        assert v.verdict == "unique"
        assert tuple(map(int, sigma.sigma)) == (2, 1, 0)
        assert decompose(dom, fld).uniqueness.verdict == "unique"

    def test_blossom_cap_boundary(self, monkeypatch):
        # rotationJ on 16 cells: the kept graph is complete, 120 edges in
        # one rival component; at the cap it is decided, one edge above not
        dom, fld, _ = _builtin("rotationJ", 16)
        monkeypatch.setattr(dual_solver, "_BLOSSOM_EDGES", 120)
        assert _certify(dom, fld)[1].verdict == "non-unique"
        monkeypatch.setattr(dual_solver, "_BLOSSOM_EDGES", 119)
        assert _certify(dom, fld)[1] is None

    @pytest.mark.parametrize("power", [-600, 600])
    def test_verdicts_hold_at_extreme_scale(self, power):
        # a power of two keeps every tie exact; the integers of the blossom
        # then carry about 1000 bits
        cases = [c for c in _certificate_cases() if c[0].startswith(("planted", "two"))]
        for label, dom, fld in cases:
            sigma, v = _certify(dom, fld)
            big = sd.SampledField(np.ldexp(fld.values, power))
            got_sigma, got = _certify(dom, big)
            assert np.array_equal(got_sigma.sigma, sigma.sigma), label
            assert got.verdict == v.verdict, label
            if v.alternative is not None:
                assert np.array_equal(got.alternative.sigma, v.alternative.sigma), label

    def test_certified_instance_skips_scan(self, monkeypatch):
        def scan(*args, **kw):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(factorize, "check_uniqueness", scan)
        for dom, fld in (sincos_problem(32), tent_problem(32), monotone_problem(8)):
            assert decompose(dom, fld).uniqueness.verdict == "unique"

    def test_admits_another_equals_enumeration(self):
        # random forests, sigma a matching of some tree edges, random
        # vertices that may stay fixed (all of sigma's fixed points)
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            edges = [
                (int(rng.integers(0, k)), k) for k in range(1, n) if rng.random() < 0.8
            ]
            s = np.arange(n)
            for i, j in rng.permutation(np.array(edges, dtype=int).reshape(-1, 2)):
                if s[i] == i and s[j] == j and rng.random() < 0.6:
                    s[i], s[j] = j, i
            fixed_ok = (rng.random(n) < 0.5) | (s == np.arange(n))
            ei = np.array([e[0] for e in edges], dtype=np.intp)
            ej = np.array([e[1] for e in edges], dtype=np.intp)
            kept = set(edges)
            admitted = [
                sig
                for sig in dual_solver.all_involutions(n)
                if all(
                    fixed_ok[i] if k == i else (min(i, k), max(i, k)) in kept
                    for i, k in enumerate(sig)
                )
            ]
            assert any(np.array_equal(sig, s) for sig in admitted)
            assert dual_solver._admits_another(s, fixed_ok, ei, ej) == (len(admitted) > 1)

    @pytest.mark.parametrize(
        "name, n, parent_mb", [("sincos", 128, 0.918), ("gradskew", 196, 2.887)]
    )
    def test_decompose_peak_not_above_scan_pipeline(self, name, n, parent_mb):
        # decompose's tracemalloc peak when every report ran the scan
        dom, fld, bf = _builtin(name, n)
        kw = dict(rule=bf.rule, jacobian=bf.jacobian)
        decompose(dom, fld, **kw)  # lazy imports and caches first
        assert _traced_peak(decompose, dom, fld, **kw) <= parent_mb * 1e6


class TestKraussCheck:
    """The diagonal identity of a monotone field, u_i ~ grad1 HR(x_i, x_i):
    the second identity at the identity involution."""

    def test_quadratic_pair(self):
        dom, fld = monotone_problem(64)
        kernel = sd.make_kernel(dom, lambda x, y: 0.5 * x * x - 0.5 * y * y)
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(kernel, dom, pset)
        stats = second_identity_check(dom, fld, hreg, sd.Involution.identity(64))
        assert stats.median <= 10 * (hreg.fd_step + dom.mesh)

    def test_gradient_plus_skew_pair(self):
        dom = sd.symmetric_square_grid(1.0, 8)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fld = sd.sample_field(dom, lambda p: 2.0 * p + a @ p)
        kernel = sd.make_kernel(
            dom, lambda x, y: float(x @ x) - float(y @ y) - float((a @ x) @ y)
        )
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(kernel, dom, pset)
        stats = second_identity_check(dom, fld, hreg, sd.Involution.identity(dom.n))
        assert stats.median <= 10 * (hreg.fd_step + dom.mesh)

    def test_refuses_non_monotone(self):
        # the diagonal representation is only available for monotone maps:
        # sincos is not one, and its Hamiltonian misses u on the diagonal
        # (median 1.15) where it meets it along the reflection (0.019)
        dom, fld = sincos_problem(16)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(kernel, dom, pset)
        assert check_monotone(dom, fld).verdict == "non-monotone"
        diagonal = second_identity_check(dom, fld, hreg, sd.Involution.identity(16))
        reflection = second_identity_check(dom, fld, hreg, sd.Involution.reversal(16))
        assert diagonal.median > 0.5 > 10 * reflection.median

    def test_refuses_hamiltonian_of_another_grid(self):
        # the residual gradients are taken at the Hamiltonian's own grid
        dom, fld = monotone_problem(16)
        other, ofld = monotone_problem(12)
        kernel = sd.make_kernel(other, lambda x, y: 0.5 * x * x - 0.5 * y * y)
        pset = sd.build_dual_points(other, ofld)
        hreg = sd.regularize(kernel, other, pset)
        with pytest.raises(ValueError, match="another grid"):
            second_identity_check(dom, fld, hreg, sd.Involution.identity(16))


class TestSecondIdentity:
    def test_sincos_reflection(self):
        dom, fld = sincos_problem(64)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(kernel, dom, pset)
        stats = second_identity_check(dom, fld, hreg, sd.Involution.reversal(64))
        assert stats.median <= 0.1

    def test_monotone_identity_reduces_to_krauss(self):
        # at the identity the second identity is the diagonal one, u_i ~
        # grad1 HR(x_i, x_i), to the bit of the general evaluator
        dom, fld = monotone_problem(32)
        kernel = sd.make_kernel(dom, lambda x, y: 0.5 * x * x - 0.5 * y * y)
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(kernel, dom, pset)
        res2 = second_identity_check(dom, fld, hreg, sd.Involution.identity(32))
        g1 = np.atleast_2d(sd.grad1(hreg, dom.points, dom.points, hreg.fd_step))
        krauss = np.linalg.norm(fld.values - g1, axis=1)
        assert res2.values.tobytes() == krauss.tobytes()
        assert res2.median <= 10 * (hreg.fd_step + dom.mesh)


class TestGapTrend:
    def test_sincos_gap_small_and_nonincreasing(self):
        fracs = []
        for n in (16, 32, 64):
            dom, fld = sincos_problem(n)
            rep = decompose(dom, fld)
            fracs.append(rep.gap / abs(rep.p_value))
        assert fracs[-1] <= 0.02
        for a, b in zip(fracs, fracs[1:]):
            assert b <= a + 1e-9
