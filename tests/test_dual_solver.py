import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfdual as sd
from selfdual import fields
from selfdual.dual_solver import (
    _round_cycles,
    all_involutions,
    assignment_relaxation,
    dual_objective,
    involution_count,
    solve,
    solve_brute,
    solve_matching,
)
from selfdual.primal_solver import weak_duality

from conftest import (
    monotone_problem,
    odd_cycle_problem,
    random_involution,
    random_problem,
    shifted_dual,
    sincos_problem,
    squared_distance,
    tent_problem,
)


class TestDualObjective:
    def test_identity_on_linear_field(self):
        # midpoint sum of x^2 over [0, 1] has the closed form (1 - 1/(4 n^2)) / 3
        dom, fld = monotone_problem(100)
        val = dual_objective(dom, fld, sd.Involution.identity(100))
        assert val == pytest.approx((1 - 1 / (4 * 100**2)) / 3, abs=1e-12)
        assert val == pytest.approx(0.333325, abs=1e-6)

    @pytest.mark.parametrize("n", [32, 64])
    def test_tent_reflection_and_half_shift(self, n):
        # both closed-form integrals equal 3/8
        dom, fld = tent_problem(n)
        refl = dual_objective(dom, fld, sd.Involution.reversal(n))
        shift = dual_objective(dom, fld, sd.Involution.half_shift(n))
        assert refl == pytest.approx(0.375, abs=2.0 / n**2)
        assert shift == pytest.approx(0.375, abs=2.0 / n**2)
        assert refl == pytest.approx(shift, rel=1e-12)

    def test_length_mismatch(self):
        dom, fld = monotone_problem(8)
        with pytest.raises(ValueError):
            dual_objective(dom, fld, sd.Involution.identity(9))


class TestDistanceObjective:
    """The squared distance to an involution is the dual shifted by the
    norms, so D alone ranks involutions by distance."""

    def test_fixed_point_of_linear_field(self):
        dom, fld = monotone_problem(10)
        s = sd.Involution.identity(10)
        assert squared_distance(dom, fld, s) == 0.0
        assert shifted_dual(dom, fld, s) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 2**31 - 1))
    def test_relation_to_dual(self, n, seed):
        rng = np.random.default_rng(seed)
        dom, fld = random_problem(rng, n, d=2)
        s = random_involution(rng, n)
        lhs = squared_distance(dom, fld, s)
        assert lhs == pytest.approx(shifted_dual(dom, fld, s), rel=1e-12, abs=1e-12)

    def test_sincos_reflection_distance(self):
        dom, fld = sincos_problem(64)
        s = sd.Involution.reversal(64)
        mu = dom.cell_measure
        norms = ((fld.values**2).sum() + (dom.points**2).sum()) * mu
        expect = norms - 2 * math.pi  # dual value tends to pi
        got = squared_distance(dom, fld, s)
        assert got == pytest.approx(expect, rel=0.02)
        assert got == pytest.approx(shifted_dual(dom, fld, s), rel=1e-12)


class TestKnownAnswers:
    """Builtins that list their optimal involution: solve returns it at every
    cell, and where the builtin has a closed-form Hamiltonian it closes the
    duality gap on it exactly. tent has none, so only its sigma is checked.
    rotationJ's H_J is measure preserving but not self dual, so its gap
    stays open; verify labels that kernel builtin-analytic."""

    @staticmethod
    def problem(name, n):
        bf = fields.builtin_field(name, n)
        dom = sd.build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        sol = solve(dom, fld)
        if bf.hamiltonian is None:
            return bf, dom, sol, None, None
        kernel = sd.make_kernel(dom, bf.hamiltonian)
        cert = weak_duality(dom, fld, kernel, sol.sigma)
        converged = sd.primal_converged(cert, sol.bound)
        return bf, dom, sol, cert, converged

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize(
        "name, label",
        [
            ("sincos", "reflection"),
            ("matrix", "swap"),
            ("gradskew", "identity"),
            ("monotone1d", "identity"),
            ("tent", "optimum"),
        ],
    )
    def test_solve_finds_the_known_involution(self, name, label, n):
        bf, dom, sol, cert, converged = self.problem(name, n)
        assert dom.n == n
        assert np.array_equal(sol.sigma.sigma, dict(bf.involutions(dom))[label].sigma)
        if cert is not None:
            assert cert.gap == 0.0
            assert converged

    @pytest.mark.parametrize("n, gap", [(16, 6.0), (64, 7.0), (256, 7.5)])
    def test_rotation_kernel_leaves_a_gap(self, n, gap):
        bf, dom, sol, cert, converged = self.problem("rotationJ", n)
        assert bf.involutions is None
        assert cert.gap == pytest.approx(gap, rel=1e-12) and cert.gap > 0
        assert not converged


class TestSolveBrute:
    def test_single_cell(self):
        dom, fld = monotone_problem(1)
        sol = solve_brute(dom, fld)
        assert sol.sigma == sd.Involution.identity(1)
        assert involution_count(1) == 1

    def test_involution_enumeration(self):
        assert involution_count(4) == 10
        assert all_involutions(4).shape == (10, 4)
        assert involution_count(12) == 140152
        # recurrence against direct check at small n
        perms = itertools.permutations(range(5))
        direct = sum(
            1 for p in perms if all(p[p[i]] == i for i in range(5))
        )
        assert involution_count(5) == direct == len(all_involutions(5))

    def test_enumeration_is_lexicographic(self):
        sigs = [tuple(s) for s in all_involutions(6)]
        assert sigs == sorted(sigs)

    def test_monotone_gives_identity(self):
        dom, fld = monotone_problem(8)
        sol = solve_brute(dom, fld)
        assert sol.sigma == sd.Involution.identity(8)
        assert sol.certificate == "brute"

    def test_size_cap(self):
        rng = np.random.default_rng(0)
        dom, fld = random_problem(rng, 13)
        with pytest.raises(ValueError):
            solve_brute(dom, fld)


class TestSolveMatching:
    def test_agrees_with_brute_on_random_instances(self):
        rng = np.random.default_rng(12)
        for n in range(2, 11):
            for _ in range(20):
                dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
                vb = solve_brute(dom, fld).value
                vm = solve_matching(dom, fld).value
                assert vm == pytest.approx(vb, rel=1e-12, abs=1e-12)

    def test_sincos_reflection(self):
        dom, fld = sincos_problem(64)
        sol = solve_matching(dom, fld)
        refl = np.arange(64)[::-1]
        assert (sol.sigma.sigma == refl).mean() >= 0.95
        assert sol.value == pytest.approx(math.pi, rel=0.02)

    def test_gradskew_identity(self):
        # strictly monotone planar field: the skew part cancels in the pairing
        dom = sd.symmetric_square_grid(1.0, 6)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fld = sd.sample_field(dom, lambda p: 2.0 * p + a @ p)
        sol = solve_matching(dom, fld)
        assert np.array_equal(sol.sigma.sigma, np.arange(dom.n))

    def test_strict_monotonicity_negative_surplus(self):
        # every pair surplus of a strictly monotone field is negative, so
        # no edge enters the graph and every point stays fixed
        dom, fld = monotone_problem(20)
        sol = solve_matching(dom, fld)
        assert np.array_equal(sol.sigma.sigma, np.arange(20))

    def test_pairing_beats_fixed_points(self):
        # surplus 1 - 0 - 0 > 0: the two points swap
        dom = sd.DiscreteDomain(np.array([[0.0], [1.0]]), 0.5, 1, 0.0)
        fld = sd.SampledField(np.array([[1.0], [0.0]]))
        sol = solve_matching(dom, fld)
        assert sol.sigma.sigma.tolist() == [1, 0]
        assert sol.value == 0.5

    def test_identity_beats_pairing(self):
        # surplus 0 - 0 - 1 < 0: both points stay fixed
        dom = sd.DiscreteDomain(np.array([[0.0], [1.0]]), 0.5, 1, 0.0)
        fld = sd.SampledField(np.array([[0.0], [1.0]]))
        sol = solve_matching(dom, fld)
        assert sol.sigma.sigma.tolist() == [0, 1]
        assert sol.value == 0.5


class TestSolveAuto:
    def test_agrees_with_matching_on_sincos(self):
        dom, fld = sincos_problem(24)
        best = solve_matching(dom, fld)
        sol = solve(dom, fld)
        assert sol.certificate == "assignment-bound-tight"
        assert sol.sigma == best.sigma
        assert sol.value == pytest.approx(best.value, rel=1e-12)
        assert sol.bound == pytest.approx(sol.value, rel=1e-12)

    def test_monotone_gives_identity(self):
        for n in (6, 8, 10):
            dom, fld = monotone_problem(n)
            sol = solve(dom, fld)
            oracle = solve_brute(dom, fld)
            assert sol.value == pytest.approx(oracle.value, rel=1e-12)
            assert sol.sigma == sd.Involution.identity(n)

    def test_dominates_random_involutions(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            dom, fld = random_problem(rng, 12, d=2)
            sol = solve(dom, fld)
            for _ in range(20):
                start = random_involution(rng, 12)
                assert sol.value >= dual_objective(dom, fld, start) - 1e-12

    def test_odd_cycle_solved_on_the_kept_graph(self):
        dom, fld = odd_cycle_problem()
        perm, _, bound = assignment_relaxation(dom, fld)
        assert len(perm) == 3 and not np.array_equal(perm[perm], np.arange(3))
        sol = solve(dom, fld)
        assert sol.certificate == "kept-graph-exact"
        assert sol.value == pytest.approx(solve_brute(dom, fld).value, abs=1e-15)
        assert sol.bound == bound
        assert sol.bound > sol.value + 0.4

    def test_potentials_without_a_fixpoint(self):
        # the tied 2-cycle 1 <-> 3 has exact length 0 but rounds below it:
        # b[3] falls by 5.55e-17 every two sweeps, and the Bellman-Ford
        # loop ends at its cap of n + 1 sweeps without a fixpoint
        dom = sd.DiscreteDomain(np.array([[1.0], [0.4], [-0.6], [0.7]]), 0.25, 1, 0.0)
        fld = sd.SampledField(np.array([[-1.5], [0.6], [-0.6], [0.6]]))
        rep = sd.decompose(dom, fld)
        assert rep.d_value == pytest.approx(solve_brute(dom, fld).value, abs=1e-15)
        assert (rep.complementarity >= 0).all()
        assert rep.tolerances["certificate"] == "assignment-bound-tight"
        assert rep.uniqueness.verdict == "non-unique"

    def test_odd_cycle_rounds_at_its_best_fixed_vertex(self):
        # a 5-cycle and a 2-cycle: of the five ways to fix one vertex of the
        # 5-cycle and pair the rest along it, the rounding of the pairing c
        # takes the best for S = (c + c^T) / 2
        rng = np.random.default_rng(23)
        perm = np.array([1, 2, 3, 4, 0, 6, 5])
        for _ in range(20):
            c = rng.normal(size=(7, 7))
            s = 0.5 * (c + c.T)
            sigma, tight = _round_cycles(c, perm)
            assert not tight
            ways = []
            for k in range(5):
                way = perm.copy()
                way[k] = k
                for a, b in ((k + 1) % 5, (k + 2) % 5), ((k + 3) % 5, (k + 4) % 5):
                    way[a], way[b] = b, a
                ways.append(way)
            best = max(ways, key=lambda w: s[np.arange(7), w].sum())
            assert np.array_equal(sigma, best)

    def test_blossom_leaves_little_behind(self):
        # networkx's matching keeps its working state in reference cycles
        # that hold the graph; with the graph emptied and the youngest
        # generation collected after each matching, about 25 KB stay traced
        # here, against about 43 KB with the graph emptied only. The
        # automatic collector is off, so the figure does not depend on when
        # it runs
        dom, fld = random_problem(np.random.default_rng(1), 48, 2)
        assert solve(dom, fld).certificate == "kept-graph-exact"
        gc.disable()
        tracemalloc.start()
        try:
            solve(dom, fld)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left <= 40_000

    def test_oracles_agree_under_the_bound(self):
        dom, fld = tent_problem(10)
        auto = solve(dom, fld)
        for oracle, cert in ((solve_matching, "blossom"), (solve_brute, "brute")):
            sol = oracle(dom, fld)
            assert sol.certificate == cert
            assert sol.bound is None and sol.uniqueness is None
            assert sol.value == pytest.approx(auto.value, rel=1e-12)
            assert sol.value <= auto.bound * (1 + 1e-12)

    def test_even_cycles_round_to_an_optimal_involution(self):
        # small integer coordinates make many ties, and on ties the optimal
        # assignment can be a longer even cycle of the same value
        rng = np.random.default_rng(19)
        seen_long = 0
        for _ in range(400):
            n, d = int(rng.integers(3, 9)), int(rng.integers(1, 3))
            pts = rng.integers(-2, 3, size=(n, d)).astype(float)
            if len(np.unique(pts, axis=0)) != n:
                continue
            dom = sd.DiscreteDomain(pts, 1.0 / n, d, 0.0)
            fld = sd.SampledField(rng.integers(-2, 3, size=(n, d)).astype(float))
            perm, _, _ = assignment_relaxation(dom, fld)
            sol = solve(dom, fld)
            oracle = solve_brute(dom, fld).value
            assert sol.value == pytest.approx(oracle, rel=1e-12, abs=1e-12)
            if sol.certificate != "assignment-bound-tight":
                continue
            k, length = np.arange(n), np.zeros(n, dtype=int)
            for t in range(1, n + 1):  # cycle length of each index
                k = perm[k]
                length[(length == 0) & (k == np.arange(n))] = t
            seen_long += int((length >= 4).any())
            assert sol.value == pytest.approx(sol.bound, rel=1e-12)
        assert seen_long > 0


class TestLpBound:
    def test_single_cell(self):
        dom, fld = monotone_problem(1)
        assert assignment_relaxation(dom, fld)[2] == pytest.approx(
            float(fld.values[0] @ dom.points[0]) * dom.cell_measure
        )

    def test_dominates_brute(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            vb = solve_brute(dom, fld).value
            assert assignment_relaxation(dom, fld)[2] >= vb - 1e-9 * max(1, abs(vb))

    def test_vertex_oracle_small(self):
        # every extreme point of the symmetric doubly stochastic polytope is
        # the symmetrization of a permutation matrix, so at n <= 4 the LP
        # optimum equals the max over all n! symmetrized permutations
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            dom, fld = random_problem(rng, n)
            c = fld.values @ dom.points.T
            best = -np.inf
            for perm in itertools.permutations(range(n)):
                p = np.zeros((n, n))
                p[np.arange(n), perm] = 1.0
                best = max(best, float((0.5 * (p + p.T) * c).sum()))
            best *= dom.cell_measure
            bound = assignment_relaxation(dom, fld)[2]
            assert bound == pytest.approx(best, rel=1e-8, abs=1e-10)

    def test_monotone_attained_by_identity(self):
        dom, fld = monotone_problem(12)
        expect = float((dom.points**2).sum() * dom.cell_measure)
        assert assignment_relaxation(dom, fld)[2] == pytest.approx(expect, rel=1e-9)
