import numpy as np
import pytest

import selfdual as sd
from selfdual.dual_solver import distance_objective
from selfdual.transport import (
    build_pair_measures,
    export_atoms_csv,
    parametrize_map,
    transport_cost,
    transpose,
)

from conftest import random_involution, random_problem, sincos_problem


class TestPairMeasures:
    def test_single_atom(self):
        dom = sd.DiscreteDomain(np.array([[0.5]]), 1.0, 1, 0.0)
        fld = sd.SampledField(np.array([[0.25]]))
        mu_hat, nu_hat = build_pair_measures(dom, fld)
        assert mu_hat.atoms.tolist() == [[0.5, 0.25]]
        assert nu_hat.atoms.tolist() == [[0.25, 0.5]]
        assert mu_hat.masses.tolist() == [1.0]

    def test_total_mass_is_domain_measure(self):
        dom, fld = sincos_problem(20)
        mu_hat, nu_hat = build_pair_measures(dom, fld)
        assert mu_hat.total_mass == pytest.approx(dom.cell_measure * dom.n)
        assert nu_hat.total_mass == pytest.approx(dom.cell_measure * dom.n)

    def test_double_transpose_roundtrip(self):
        dom, fld = sincos_problem(7)
        mu_hat, _ = build_pair_measures(dom, fld)
        again = transpose(transpose(mu_hat))
        assert np.array_equal(again.atoms, mu_hat.atoms)
        assert np.array_equal(again.masses, mu_hat.masses)


class TestTransportCost:
    def test_involution_cost_equals_distance(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            s = random_involution(rng, n)
            a = transport_cost(dom, fld, s)
            b = distance_objective(dom, fld, s)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_fixed_point_field_zero(self):
        dom = sd.interval_grid(0.0, 1.0, 9)
        fld = sd.sample_field(dom, lambda x: x)
        assert transport_cost(dom, fld, sd.Involution.identity(9)) == 0.0

    def test_three_cycle_differs_from_distance(self):
        # frozen instance: both sides evaluated from their defining formulas
        dom = sd.DiscreteDomain(np.array([[0.0], [0.25], [1.0]]), 1.0 / 3, 1, 0.0)
        fld = sd.SampledField(np.array([[0.9], [0.1], [0.5]]))
        cycle = np.array([1, 2, 0])  # not an involution
        mu = dom.cell_measure
        u, x = fld.values[:, 0], dom.points[:, 0]
        cost_oracle = 0.5 * sum(
            (u[cycle[i]] - x[i]) ** 2 + (u[i] - x[cycle[i]]) ** 2 for i in range(3)
        ) * mu
        dist_oracle = sum((u[i] - x[cycle[i]]) ** 2 for i in range(3)) * mu
        got = transport_cost(dom, fld, cycle)
        assert got == pytest.approx(cost_oracle, rel=1e-14)
        assert abs(got - dist_oracle) > 1e-3

    def test_nonnegative_and_zero_only_at_graph_match(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            dom, fld = random_problem(rng, n)
            s = random_involution(rng, n)
            c = transport_cost(dom, fld, s)
            assert c >= 0
        dom = sd.DiscreteDomain(np.array([[0.1], [0.9]]), 0.5, 1, 0.0)
        fld = sd.SampledField(np.array([[0.9], [0.1]]))
        s = sd.Involution(np.array([1, 0]))
        assert transport_cost(dom, fld, s) == 0.0


class TestParametrizeMap:
    def test_identity_gives_transposition(self):
        dom, fld = sincos_problem(6)
        plan = parametrize_map(dom, fld, sd.Involution.identity(6))
        mu_hat, nu_hat = build_pair_measures(dom, fld)
        assert np.array_equal(plan.image, nu_hat.atoms)
        assert plan.pushes_onto_transpose

    def test_mass_conservation_any_permutation(self):
        rng = np.random.default_rng(42)
        dom, fld = random_problem(rng, 12, d=2)
        perm = rng.permutation(12)
        plan = parametrize_map(dom, fld, perm)
        assert plan.pushes_onto_transpose
        assert plan.masses.sum() == pytest.approx(dom.cell_measure * dom.n)

    def test_sincos_reflection_atoms(self):
        dom, fld = sincos_problem(16)
        s = sd.Involution.reversal(16)
        plan = parametrize_map(dom, fld, s)
        # row i should read (u(reflected point), reflected point)
        expect = np.hstack([fld.values[s.sigma], dom.points[s.sigma]])
        assert np.array_equal(plan.image, expect)

    def test_rejects_non_permutation(self):
        dom, fld = sincos_problem(4)
        with pytest.raises(ValueError):
            parametrize_map(dom, fld, np.array([0, 0, 1, 2]))


class TestAtomExport:
    def test_csv_round_trip(self, tmp_path):
        dom, fld = sincos_problem(5)
        mu_hat, _ = build_pair_measures(dom, fld)
        path = tmp_path / "atoms.csv"
        export_atoms_csv(path, mu_hat)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "mass,p0,p1"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.array_equal(data[:, 0], mu_hat.masses)
        assert np.array_equal(data[:, 1:], mu_hat.atoms)
