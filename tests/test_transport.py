"""The paper's self-dual transport cost of the plan an involution
parametrizes is the dual objective shifted by the norms; no module computes
it, so these tests take it from its formula and check it against D."""

import numpy as np
import pytest

import selfdual as sd

from conftest import (
    random_involution,
    random_problem,
    shifted_dual,
    squared_distance,
    symmetric_transport_cost,
)


class TestTransportCost:
    def test_involution_cost_equals_distance(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            dom, fld = random_problem(rng, n, d=int(rng.integers(1, 3)))
            s = random_involution(rng, n)
            a = symmetric_transport_cost(dom, fld, s)
            b = squared_distance(dom, fld, s)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            assert a == pytest.approx(shifted_dual(dom, fld, s), rel=1e-12, abs=1e-12)

    def test_fixed_point_field_zero(self):
        dom = sd.interval_grid(0.0, 1.0, 9)
        fld = sd.sample_field(dom, lambda x: x)
        s = sd.Involution.identity(9)
        assert symmetric_transport_cost(dom, fld, s) == 0.0
        assert shifted_dual(dom, fld, s) == pytest.approx(0.0, abs=1e-15)
