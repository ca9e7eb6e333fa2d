import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfdual as sd
from selfdual import domain, factorize, fields
from selfdual.domain import (
    _covering_candidates,
    _flats,
    box_grid,
    build_grid,
    check_permutation,
    read_field_csv,
    swap_permutation,
    write_field_csv,
)

from conftest import (
    BAD_PERMUTATIONS,
    monotone_problem,
    random_problem,
    rotation_permutation,
    sincos_problem,
)


class TestBuildGrid:
    @pytest.mark.parametrize("measure", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_cell_measure_not_positive_finite_rejected(self, measure):
        pts = np.array([[0.25], [0.75]])
        with pytest.raises(ValueError, match="not a positive finite float"):
            sd.DiscreteDomain(pts, measure, 1, 0.0)

    def test_box_whose_cell_measure_overflows_rejected(self):
        # each cell of [0, 1e200]^2 on 2 x 2 cells measures 2.5e399
        with pytest.raises(ValueError, match="cell_measure inf .* overflows"):
            box_grid([(0, 1e200), (0, 1e200)], [2, 2])

    def test_interval_midpoints(self):
        dom = sd.interval_grid(0.0, math.pi, 4)
        expect = np.array([math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8])
        np.testing.assert_allclose(dom.points[:, 0], expect, rtol=0, atol=1e-15)
        assert dom.cell_measure == pytest.approx(math.pi / 4, abs=1e-15)

    def test_single_cell(self):
        dom = sd.interval_grid(0.0, 1.0, 1)
        assert dom.points[0, 0] == 0.5
        assert dom.cell_measure == 1.0

    def test_symmetric_square_rotation_closure(self):
        # 16 points must be permuted by the quarter turn; enumerate and check
        dom = sd.symmetric_square_grid(1.0, 4)
        assert dom.n == 16
        perm = rotation_permutation(dom)
        assert sorted(perm.tolist()) == list(range(16))
        rotated = np.stack([dom.points[:, 1], -dom.points[:, 0]], axis=1)
        np.testing.assert_array_equal(dom.points[perm], rotated)

    def test_negation_closure(self):
        dom = sd.symmetric_square_grid(1.5, 5)
        neg = -dom.points
        found = {tuple(p) for p in dom.points}
        assert all(tuple(q) in found for q in neg)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "interval", "bounds": [0, 1], "cells": 0},
            {"kind": "interval", "bounds": [1, 1], "cells": 4},
            {"kind": "box", "bounds": [[0, 1], [0, 0]], "cells": [2, 2]},
            {"kind": "symmetric-square", "bounds": -1.0, "cells": 4},
            {"kind": "mystery", "bounds": [0, 1], "cells": 4},
            {"kind": "interval", "bounds": 5, "cells": 4},
            {"kind": "interval", "bounds": [0, "1"], "cells": 4},
            {"kind": "interval", "bounds": [0, 1], "cells": 4.7},
            {"kind": "interval", "bounds": [0, 1], "cells": True},
            {"kind": "interval", "bounds": [0, 1], "cells": 4, "extra": 5},
            {"kind": "interval", "bounds": [0, 1]},
            {"kind": "box", "bounds": 5, "cells": [4]},
            {"kind": "box", "bounds": [[0, 1]], "cells": 4},
            {"kind": "box", "bounds": [[0, 1]], "cells": [4.0]},
            {"kind": "symmetric-square", "bounds": [-1, 2], "cells": 4},
            {"kind": "symmetric-square", "bounds": 1.0, "cells": False},
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            build_grid(spec)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            sd.DiscreteDomain(np.array([[0.0], [0.0]]), 0.5, 1, 0.0)

    @pytest.mark.parametrize(
        "pts, dim",
        [(np.array([0.1, 0.2, 0.3]), 1), (np.eye(2), 5), (np.eye(3), 2)],
        ids=["flat-row-dim-1", "2-columns-dim-5", "3-columns-dim-2"],
    )
    def test_dim_that_contradicts_the_points_rejected(self, pts, dim):
        # a flat array is one point in R^3, not three in R^1: its dim is refused
        with pytest.raises(ValueError, match=f"dim {dim} does not match"):
            sd.DiscreteDomain(pts, 1.0 / 3, dim, 0.0)

    def test_symmetric_square_bounds_forms(self):
        dom = build_grid({"kind": "symmetric-square", "bounds": 1, "cells": 3})
        pair = build_grid({"kind": "symmetric-square", "bounds": [-1.0, 1.0], "cells": 3})
        assert np.array_equal(dom.points, pair.points)

    def test_box_grid(self):
        dom = build_grid({"kind": "box", "bounds": [[0, 1], [0, 2]], "cells": [2, 4]})
        assert dom.n == 8
        assert dom.cell_measure == pytest.approx(0.25)
        assert dom.dim == 2


class TestSampleField:
    def test_linear(self):
        dom = sd.interval_grid(0.0, 1.0, 2)
        fld = sd.sample_field(dom, lambda x: x)
        np.testing.assert_array_equal(fld.values[:, 0], [0.25, 0.75])

    def test_sincos_rule_value(self):
        rule = lambda x: math.sin(x) + x * math.cos(x)
        assert rule(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_tent_rule_value(self):
        rule = lambda x: 2 * x if x <= 0.5 else 3 - 2 * x
        assert rule(0.75) == 1.5

    def test_nonfinite_rejected(self):
        dom = sd.interval_grid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            sd.sample_field(dom, lambda x: float("nan"))

    def test_field_radius(self):
        dom = sd.interval_grid(0.0, 1.0, 3)
        fld = sd.sample_field(dom, lambda x: -2 * x)
        assert fld.field_radius == pytest.approx(np.abs(fld.values).max())


class TestMakeKernel:
    def test_sincos_kernel_antisymmetric(self):
        dom = sd.interval_grid(0.0, math.pi, 8)
        k = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        assert np.array_equal(k.matrix + k.matrix.T, np.zeros((8, 8)))
        assert np.all(np.diag(k.matrix) == 0.0)

    def test_constant_killed(self):
        dom = sd.interval_grid(0.0, 1.0, 5)
        k = sd.make_kernel(dom, lambda x, y: 3.7)
        assert np.all(k.matrix == 0.0)

    def test_difference_form(self):
        dom = sd.interval_grid(0.0, 1.0, 6)
        k = sd.make_kernel(dom, lambda x, y: x**2 - y**2)
        x = dom.points[:, 0]
        np.testing.assert_allclose(
            k.matrix, x[:, None] ** 2 - x[None, :] ** 2, rtol=0, atol=1e-15
        )

    def test_bitexact_antisymmetry_random(self):
        rng = np.random.default_rng(3)
        k = sd.AntiSymmetricKernel(np.triu(rng.normal(size=(20, 20)), 1))
        assert np.array_equal(k.matrix, -k.matrix.T)

    @pytest.mark.parametrize("n", [1, 2, 7, 65, 130])
    def test_row_blocks_mirror_bit_for_bit(self, n, monkeypatch):
        # the in-place mirror is triu(upper, 1) - triu(upper, 1).T in blocks
        # of one row, of several with a short last one, and of all rows
        upper = np.random.default_rng(n).normal(size=(n, n))
        upper[0, -1] = -0.0
        np.fill_diagonal(upper, -0.0)  # the diagonal comes out +0.0
        tri = np.triu(upper, 1)
        want = (tri - tri.T).tobytes()
        for budget in (domain.ROW_BLOCK, 1, n, 3 * n, n * n):
            monkeypatch.setattr(domain, "ROW_BLOCK", budget)
            assert sd.AntiSymmetricKernel(upper).matrix.tobytes() == want


    @pytest.mark.parametrize("n", [64, 300])
    def test_mirror_peak_one_scratch_tile(self, n):
        # the copy of the table, one scratch tile and the small tile mask;
        # an overlapping np.subtract per tile (a copied input beside numpy's
        # buffer) and an [n, n] finiteness mask held 101 KB beside the copy
        upper = np.random.default_rng(n).normal(size=(n, n))
        sd.AntiSymmetricKernel(upper)
        gc.collect()
        tracemalloc.start()
        try:
            sd.AntiSymmetricKernel(upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 2 * 8 * domain.ROW_BLOCK

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
    def test_from_matrix_refuses_a_table_that_is_not_square(self, shape):
        with pytest.raises(ValueError, match="kernel table must be square"):
            sd.AntiSymmetricKernel.from_matrix(np.ones(shape))

    def test_from_matrix_halves_the_antisymmetric_part(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(sd.AntiSymmetricKernel.from_matrix(m).matrix, 0.5 * (m - m.T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        upper = np.zeros((5, 5))
        upper[3, 1] = bad  # below the diagonal, so it would not be kept
        with pytest.raises(ValueError, match="non-finite"):
            sd.AntiSymmetricKernel(upper)
        assert sd.AntiSymmetricKernel(np.zeros((0, 0))).n == 0  # nothing to check


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n, width, budget",
        [(0, 3, 8), (1, 9, 8), (10, 3, 8), (9, 3, 9), (5, 0, 2), (7, 2, None)],
    )
    def test_slices_cover_the_rows_within_budget(self, n, width, budget):
        blocks = list(domain.row_blocks(n, width, budget))
        step = max(1, (budget or domain.ROW_BLOCK) // max(1, width))
        assert [b.start for b in blocks] == list(range(0, n, step))
        assert [b.stop for b in blocks] == [min(b.start + step, n) for b in blocks]

    def test_budget_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(domain, "ROW_BLOCK", 6)
        assert list(domain.row_blocks(5, 2)) == [slice(0, 3), slice(3, 5)]
        monkeypatch.setattr(domain, "ROW_BLOCK", 1)
        assert len(list(domain.row_blocks(5, 2))) == 5


class TestInvolution:
    def test_involution_examples(self):
        sd.Involution(np.arange(5))
        sd.Involution(np.arange(6)[::-1])
        with pytest.raises(ValueError, match="not an involution"):
            sd.Involution(np.array([1, 2, 0]))

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation of range"):
            sd.Involution(np.array([0, 0, 2]))

    def test_half_shift_needs_even(self):
        with pytest.raises(ValueError):
            sd.Involution.half_shift(5)

    def test_pairs_and_fixed_points(self):
        s = sd.Involution(np.array([1, 0, 2, 4, 3]))
        assert s.pairs() == [(0, 1), (3, 4)]
        assert np.flatnonzero(s.sigma == np.arange(s.n)).tolist() == [2]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**31 - 1))
def test_permutations_preserve_measure(n, seed):
    # equal cells: every permutation leaves tabulated integrals unchanged
    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(0.1, 2.0))
    table = rng.normal(size=n)
    perm = rng.permutation(n)
    a = (table * mu).sum()
    b = (table[perm] * mu).sum()
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def _zero_hamiltonian(dom, fld):
    pset = sd.build_dual_points(dom, fld)
    return sd.regularize(sd.AntiSymmetricKernel(np.zeros((dom.n, dom.n))), dom, pset)


PERMUTATION_READERS = {
    "Involution": lambda dom, fld, s: sd.Involution(s),
    "selfdual_test": lambda dom, fld, s: sd.selfdual_test(
        sd.AntiSymmetricKernel(np.zeros((dom.n, dom.n))), s
    ),
    "residual_gradients": lambda dom, fld, s: sd.residual_gradients(
        _zero_hamiltonian(dom, fld), s
    ),
}


class TestCheckPermutation:
    @pytest.mark.parametrize("bad", BAD_PERMUTATIONS, ids=str)
    @pytest.mark.parametrize("reader", sorted(PERMUTATION_READERS))
    def test_every_reader_rejects(self, reader, bad):
        dom, fld = monotone_problem(len(bad))
        with pytest.raises(ValueError, match="permutation of range"):
            PERMUTATION_READERS[reader](dom, fld, bad)

    def test_returns_the_index_array(self):
        assert check_permutation([2, 0, 1], 3).tolist() == [2, 0, 1]
        assert check_permutation(sd.Involution([1, 0]), 2).tolist() == [1, 0]
        with pytest.raises(ValueError, match="range\\(4\\)"):
            check_permutation([2, 0, 1], 4)


class TestPairing:
    def test_measure_weighted_sums_that_overflow_refused(self):
        # on [0, 1e103]^3 with u = x 1e-103 the pairings are of order 1e103
        # and mu = 1.25e308 is finite, but D = mu sum_i <u_i, x_i> is not
        dom = box_grid([(0, 1e103)] * 3, [2] * 3)
        fld = sd.SampledField(dom.points * 1e-103)
        assert math.isfinite(dom.cell_measure)
        for call in (sd.pairing, sd.dual_solver.solve, factorize.decompose):
            with pytest.raises(ValueError, match="measure-weighted sums overflow"):
                call(dom, fld)
        # at mu = 1e200, 4 n (n + 2) X U mu = 320 * 1.69e103 * 1e200 is finite
        domain.check_pairing(sd.DiscreteDomain(dom.points, 1e200, 3, 0.0), fld)

    def test_every_reader_sees_the_same_bits(self, monkeypatch):
        # on this grid x @ u.T and (u @ x.T).T differ in 242 entries, so
        # every [j, i] table must be a transpose of the one pairing C
        bf = fields.builtin_field("gradskew", 196)
        dom = build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        c = sd.pairing(dom, fld)
        assert np.array_equal(c, fld.values @ dom.points.T)
        zero = sd.AntiSymmetricKernel(np.zeros((dom.n, dom.n)))
        # the zero kernel's certificate scores the columns of c.T itself
        cert = sd.weak_duality(dom, fld, zero, sd.Involution.identity(dom.n))
        assert np.array_equal(cert.argmax, c.T.argmax(axis=0))
        assert np.array_equal(cert.slack, c.T.max(axis=0) - np.diagonal(c))
        assert cert.primal_value == float(c.T.max(axis=0).sum() * dom.cell_measure)

        seen = []

        def spy(d, f):
            seen.append(sd.pairing(d, f))
            return seen[-1]

        monkeypatch.setattr(factorize, "pairing", spy)
        verdict = factorize.check_monotone(dom, fld)
        assert len(seen) == 1 and np.array_equal(seen[0], c)
        diag = np.diagonal(c)
        mono = ((diag[:, None] + diag[None, :]) - c) - c.T  # as dual_solver.reduced
        np.fill_diagonal(mono, np.inf)
        assert verdict.min_pairing == mono.min()

        idx = np.arange(dom.n)
        for s in (sd.Involution.identity(dom.n), swap_permutation(dom)):
            cert = sd.weak_duality(dom, fld, zero, s)
            assert cert.dual_value == float(c[idx, s.sigma].sum() * dom.cell_measure)

class TestBallAndDualPoints:
    def test_radius_dominates(self):
        dom, fld = sincos_problem(16)
        pset = sd.build_dual_points(dom, fld, margin=0.05)
        assert pset.radius >= dom.radius and pset.radius >= fld.field_radius

    @pytest.mark.parametrize("margin", [0.0, 0.05, 0.2])
    def test_radius_is_the_margin_over_both_radii(self, margin):
        for dom, fld in (sincos_problem(16), random_problem(np.random.default_rng(5), 9, d=2)):
            pset = sd.build_dual_points(dom, fld, margin=margin)
            assert pset.radius == (1 + margin) * max(dom.radius, fld.field_radius)

    def test_radii_are_the_plain_row_norms_on_builtins(self):
        for name in fields.builtin_names():
            for n in (16, 64, 196):
                bf = fields.builtin_field(name, n)
                dom = build_grid(bf.domain_spec)
                fld = sd.sample_field(dom, bf.rule)
                assert dom.radius == np.linalg.norm(dom.points, axis=1).max()
                assert fld.field_radius == np.linalg.norm(fld.values, axis=1).max()

    @pytest.mark.parametrize("power", [-600, 600])
    def test_radii_scale_exactly_by_powers_of_two(self, power):
        dom, fld = random_problem(np.random.default_rng(5), 9, d=2)
        pts, vals = np.ldexp(dom.points, power), np.ldexp(fld.values, power)
        big = sd.DiscreteDomain(pts, 1.0, 2, 0.0)
        assert big.radius == np.ldexp(dom.radius, power)
        assert sd.SampledField(vals).field_radius == np.ldexp(fld.field_radius, power)
        # the norm checks of a dual set see its points at that scale
        pset = sd.build_dual_points(dom, fld)
        pts, radius = np.ldexp(pset.pts, power), np.ldexp(pset.radius, power)
        sd.DualPointSet(pts, radius)
        with pytest.raises(ValueError, match="outside the ball"):
            sd.DualPointSet(pts, 0.9 * radius)

    @pytest.mark.parametrize("power", [-600, 600])
    def test_radius_whose_square_leaves_the_floats_rejected(self, power):
        dom, fld = random_problem(np.random.default_rng(5), 9, d=2)
        small = sd.DiscreteDomain(np.ldexp(dom.points, power), 1.0, 2, 0.0)
        with pytest.raises(ValueError, match="out of scale"):
            sd.build_dual_points(small, sd.SampledField(np.ldexp(fld.values, power)))

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -0.01])
    def test_bad_margin_rejected(self, margin):
        dom, fld = sincos_problem(8)
        with pytest.raises(ValueError, match="margin"):
            sd.build_dual_points(dom, fld, margin=margin)

    def test_settings_are_keywords(self):
        dom, fld = sincos_problem(8)
        with pytest.raises(TypeError):
            sd.build_dual_points(dom, fld, 0.05)

    def test_dual_point_invariants(self):
        dom, fld = sincos_problem(16)
        pset = sd.build_dual_points(dom, fld)
        norms = np.linalg.norm(pset.pts, axis=1)
        assert norms.max() <= pset.radius * (1 + 1e-12)
        assert norms.max() >= 0.99 * pset.radius
        assert (norms == 0).any()
        for u in fld.values:
            assert (pset.pts == u).all(axis=1).any()

    def test_covering_radius_1d(self):
        pset = sd.DualPointSet(np.array([[-1.0], [0.0], [1.0]]), 1.0)
        assert pset.covering_radius() == pytest.approx(0.5)

    def test_covering_radius_2d_closed_form(self):
        # the point of the disk farthest from the origin and 32 unit-circle
        # points is the circumcentre of the origin and two neighbours, at
        # 1 / (2 cos(pi/32)) from each
        ang = 2 * np.pi * np.arange(32) / 32
        pts = np.vstack([[[0.0, 0.0]], np.stack([np.cos(ang), np.sin(ang)], axis=1)])
        pset = sd.DualPointSet(pts, 1.0)
        expect = 1.0 / (2.0 * math.cos(math.pi / 32))
        assert pset.covering_radius() == pytest.approx(expect, rel=1e-12, abs=0)

    def test_covering_radius_2d_at_a_circle_crossing(self):
        # unit-circle points every 30 degrees from 90 to 330 and at 0, and the
        # origin: the farthest point is the circle point at 45 degrees, where
        # the bisector of the two sites at 0 and 90 degrees crosses the
        # circle; negating the set swaps which of the bisector's two
        # crossings it is
        ang = np.radians([0.0, *range(90, 360, 30)])
        pts = np.vstack([[[0.0, 0.0]], np.stack([np.cos(ang), np.sin(ang)], axis=1)])
        for sign in (1.0, -1.0):
            pset = sd.DualPointSet(sign * pts, 1.0)
            rho = pset.covering_radius()
            assert rho == pytest.approx(2.0 * math.sin(math.pi / 8), rel=1e-12, abs=0)
            assert rho == pytest.approx(_covering_oracle(pset.pts, 1.0), rel=1e-9, abs=0)

    def test_covering_radius_2d_matches_oracle(self):
        for pset in _small_planar_psets():
            assert pset.m <= 30
            expect = _covering_oracle(pset.pts, pset.radius)
            assert pset.covering_radius() == pytest.approx(expect, rel=1e-9, abs=0)

    def test_covering_radius_2d_dominates_probes(self):
        # the seeded probes are points of the disk, so none is farther from
        # the set than the exact covering radius
        psets = [p for p in _seeded_psets() if p.pts.shape[1] == 2]
        for pset in psets + _small_planar_psets():
            probes = _seeded_probes(pset)
            d2 = ((probes[:, None, :] - pset.pts[None, :, :]) ** 2).sum(axis=2)
            assert pset.covering_radius() >= float(np.sqrt(d2.min(axis=1)).max())

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [0.6, -0.8]],
            [[0.0, 0.0], [0.3, 0.1], [-0.2, 0.99]],
            [[0.0, 0.0], [0.5, 0.5], [-0.3, -0.3], [0.7, 0.7]],
            [[0.0, 0.0], [0.0, 0.25], [0.0, -0.5], [0.0, 0.9], [0.0, 1.0], [0.0, -1.0]],
            [[k / 8.0, -k / 16.0] for k in range(-8, 9)],
        ],
        ids=["m2", "m2-oblique", "m3", "collinear-4", "collinear-axis", "collinear-17"],
    )
    def test_covering_radius_2d_few_or_collinear_sites(self, pts):
        pts = np.array(pts)
        pset = sd.DualPointSet(pts, float(np.linalg.norm(pts, axis=1).max()))
        expect = _covering_oracle(pset.pts, pset.radius)
        assert pset.covering_radius() == pytest.approx(expect, rel=1e-9, abs=0)

    @pytest.mark.parametrize("sphere_points", [1, 2, 64])
    def test_sphere_points_refused_in_d_1(self, sphere_points):
        # the d = 1 shell is +-R whatever the count: a count is refused,
        # not ignored
        dom = sd.interval_grid(0.0, 1.0, 8)
        fld = sd.sample_field(dom, lambda x: x)
        with pytest.raises(ValueError, match="sphere_points sets no shell in d = 1"):
            sd.build_dual_points(dom, fld, sphere_points=sphere_points)
        pset = sd.build_dual_points(dom, fld)
        assert {-pset.radius, pset.radius} <= set(pset.pts[:, 0].tolist())

    def test_covering_radius_2d_collinear_field(self):
        # field values on the first axis and a one-point shell at -R: the
        # sites lie on one line up to the rounding of sin(pi)
        dom = box_grid([(0.0, 1.0), (0.0, 1.0)], [3, 3])
        x, y = dom.points.T
        fld = sd.SampledField(np.stack([x - y, np.zeros(dom.n)], axis=1))
        for sphere_points in (1, 8):
            pset = sd.build_dual_points(dom, fld, sphere_points=sphere_points)
            expect = _covering_oracle(pset.pts, pset.radius)
            assert pset.covering_radius() == pytest.approx(expect, rel=1e-9, abs=0)

    @pytest.mark.parametrize("name", ["matrix", "rotationJ"])
    def test_covering_radius_2d_grid_valued_builtins(self, name):
        # grid values and the shell put many sites on common circles
        bf = fields.builtin_field(name, 16)
        dom = build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        for sphere_points in (4, 8, 12):
            pset = sd.build_dual_points(dom, fld, sphere_points=sphere_points)
            expect = _covering_oracle(pset.pts, pset.radius)
            assert pset.covering_radius() == pytest.approx(expect, rel=1e-9, abs=0)

    def test_covering_radius_is_deterministic(self):
        bf = fields.builtin_field("gradskew", 196)
        dom = build_grid(bf.domain_spec)
        pset = sd.build_dual_points(dom, sd.sample_field(dom, bf.rule))
        assert pset.covering_radius() == pset.covering_radius()

    def test_covering_radius_3d_closed_form(self):
        # the origin and +-R e_i: the farthest point is R (1, 1, 1) / sqrt(3),
        # where the line equidistant from R e_1, R e_2 and R e_3 meets the
        # sphere
        for radius in (1.0, 2.5):
            pts = radius * np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
            pset = sd.DualPointSet(pts, radius)
            expect = radius * math.sqrt(2.0 - 2.0 / math.sqrt(3.0))
            assert pset.covering_radius() == pytest.approx(expect, rel=1e-12, abs=0)

    def test_covering_radius_3d_and_4d_match_oracle(self):
        for pset in _small_spatial_psets():
            assert pset.m <= (20 if pset.pts.shape[1] == 3 else 10)
            expect = _covering_oracle(pset.pts, pset.radius)
            assert pset.covering_radius() == pytest.approx(expect, rel=1e-9, abs=0)

    def test_covering_radius_dominates_probes_in_every_dimension(self):
        # the seeded probes are points of the ball, so none is farther from
        # the set than the exact covering radius
        for pset in _seeded_psets():
            probes = _seeded_probes(pset)
            d2 = ((probes[:, None, :] - pset.pts[None, :, :]) ** 2).sum(axis=2)
            assert pset.covering_radius() >= float(np.sqrt(d2.min(axis=1)).max())

    def test_covering_candidates_lie_in_the_ball(self):
        # a flat that misses the ball adds no candidate. In the last set the
        # bisector of (0.3, 1e-10) and (0.9, 0) has P_V a of about 1e-10, so
        # its rounding would tilt the crossings off the circle if it were
        # projected onto the bisector only once
        psets = _seeded_psets() + _small_planar_psets() + _small_spatial_psets()
        psets.append(sd.DualPointSet(np.array([[0.0, 0.0], [0.3, 1e-10], [0.9, 0.0]]), 0.9))
        for pset in psets:
            cands = _covering_candidates(pset.pts, pset.radius)
            assert np.linalg.norm(cands, axis=1).max() <= pset.radius * (1 + 1e-12)

    def test_covering_radius_where_a_bisector_meets_the_circle_at_equal_distance(self):
        # the bisector of the origin and (0.5, 0) is the line x = 0.25; the
        # distance to the origin is the same at both of its crossings, so
        # the projection P_V a that picks one of them is 0
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        cands = _covering_candidates(pts, 1.0)
        crossing = [0.25, math.sqrt(1.0 - 0.25**2)]
        for z in (crossing, [0.25, -crossing[1]]):
            assert np.abs(cands - z).max(axis=1).min() <= 1e-15
        assert sd.DualPointSet(pts, 1.0).covering_radius() == pytest.approx(1.0, rel=1e-12)
        assert sd.DualPointSet(pts, 1.0).covering_radius() == pytest.approx(
            _covering_oracle(pts, 1.0), rel=1e-9, abs=0
        )

    def test_affinely_dependent_faces_have_no_centre(self):
        # three sites on a line and four on a plane, up to rounding
        a, b, x = np.array([[0.1, 0.2, 0.3], [0.7, -0.4, 1.1], [-0.5, 0.9, 0.2]])
        pts = np.array([a, b, x, a + 0.3 * (b - a), a + 0.2 * (b - a) + 0.5 * (x - a)])
        assert np.isnan(_flats(pts, np.array([[0, 1, 3], [1, 3, 0], [3, 0, 1]]))[0]).all()
        assert np.isnan(_flats(pts, np.array([[0, 1, 2, 4], [4, 2, 1, 0]]))[0]).all()
        centre, q = _flats(pts, np.array([[0, 1, 2]]))
        dist = np.linalg.norm(pts[:3] - centre, axis=1)
        assert dist.max() - dist.min() <= 1e-15 * dist.max()
        np.testing.assert_allclose(q[0] @ q[0].T, np.eye(2), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "pts, radius",
        [
            ([[0.0, 0.0], [1.0, 0.0]], math.nan),
            ([[0.0, 0.0], [1.0, 0.0]], math.inf),
            ([[0.0, 0.0], [1.0, 0.0]], 0.0),
            ([[0.0], [math.nan], [1.0]], 1.0),
            ([[0.0, 0.0], [math.nan, 0.5], [1.0, 0.0]], 1.0),
            ([[0.0, 0.0], [math.inf, 0.5], [1.0, 0.0]], 1.0),
        ],
        ids=["nan-radius", "inf-radius", "zero-radius", "nan-1d", "nan-2d", "inf-2d"],
    )
    def test_non_finite_input_rejected(self, pts, radius):
        with pytest.raises(ValueError, match="dual"):
            sd.DualPointSet(np.array(pts), radius)


def _seeded_probes(pset):
    """4096 seeded uniform probes of the ball."""
    samples, d = 4096, pset.pts.shape[1]
    rng = np.random.default_rng(0)
    g = rng.standard_normal((samples, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (pset.radius * rng.random(samples) ** (1.0 / d))[:, None]


def _seeded_psets():
    rng = np.random.default_rng(40)
    psets = []
    for n, d in ((8, 2), (48, 2), (200, 2), (30, 3)):
        dom = sd.DiscreteDomain(rng.normal(size=(n, d)), 1.0 / n, d, 0.0)
        fld = sd.SampledField(rng.normal(size=(n, d)))
        psets.append(sd.build_dual_points(dom, fld))
    return psets


def _small_planar_psets():
    """Seeded planar dual sets of at most 30 points: random field values,
    tenths-rounded ones (sites on common lines and circles), and shells of
    one to three points far outside the field values, where the farthest
    point is often on the circle."""
    rng = np.random.default_rng(41)
    psets = []
    for n, sphere_points in ((3, 4), (8, 8), (12, 12), (16, 8), (20, 6)):
        for decimals in (None, 1):
            dom, fld = random_problem(rng, n, d=2)
            if decimals is not None:
                fld = sd.SampledField(np.round(fld.values, decimals))
            psets.append(sd.build_dual_points(dom, fld, sphere_points=sphere_points))
    for n, sphere_points, margin in ((7, 2, 1.0), (11, 3, 1.0), (17, 1, 0.5), (18, 2, 0.5)):
        for _ in range(8):
            dom, fld = random_problem(rng, n, d=2)
            fld = sd.SampledField(fld.values * rng.random((n, 1)))
            psets.append(
                sd.build_dual_points(dom, fld, sphere_points=sphere_points, margin=margin)
            )
    return psets


def _small_spatial_psets():
    """Seeded dual sets of at most 20 points in d = 3 and 10 in d = 4:
    random field values, integer-rounded ones (sites on common planes and
    spheres), and coplanar sites plus a pole."""
    rng = np.random.default_rng(42)
    psets = []
    for d, sizes in ((3, ((5, 4), (8, 6), (12, 7))), (4, ((4, 4), (5, 4)))):
        for n, sphere_points in sizes:
            for scale in (None, 2.0):
                dom, fld = random_problem(rng, n, d=d)
                if scale is not None:
                    fld = sd.SampledField(np.round(scale * fld.values))
                psets.append(sd.build_dual_points(dom, fld, sphere_points=sphere_points))
    for n in (6, 12, 18):
        for _ in range(3):
            pts = np.zeros((n + 2, 3))
            pts[1:-1, :2] = rng.normal(size=(n, 2))
            radius = float(np.linalg.norm(pts, axis=1).max())
            pts[-1, 2] = radius
            psets.append(sd.DualPointSet(pts, radius))
    return psets


def _covering_oracle(pts, radius):
    """Covering radius of the sites pts (d >= 2) in the ball |z| <= radius
    by brute force: the distance to the nearest site, against every site,
    maximised over the antipodes -R p/|p| and, for every k + 1 affinely
    independent sites (k = 1..d), points of their flat F, the points
    equidistant from them. F's point c0 nearest the origin if k = d and it
    is inside the ball; else both points c0 +- r w of F on the sphere,
    r^2 = R^2 - |c0|^2, with w the unit direction of F that a site's
    projection onto F's directions points along (any direction of F if
    that projection is 0). A flat that misses the ball adds nothing."""
    m, d = pts.shape
    cands = [-radius * p / np.linalg.norm(p) for p in pts if p.any()]
    for k in range(1, min(m - 1, d) + 1):
        a = pts[np.array(list(itertools.combinations(range(m), k + 1)))]
        e = a[:, 1:] - a[:, :1]
        # F = {z : <z, e_i> = (|a_i|^2 - |a_0|^2) / 2}
        h = 0.5 * ((a[:, 1:] ** 2).sum(axis=2) - (a[:, :1] ** 2).sum(axis=2))
        u, sv, vt = np.linalg.svd(e)
        ok = sv[:, -1] > 1e-12 * sv[:, 0]
        u, sv, vt, h, a0 = u[ok], sv[ok], vt[ok], h[ok], a[ok, 0]
        # the least-norm solution, through the pseudo-inverse of e
        coef = np.einsum("fki,fk->fi", u, h) / sv
        c0 = np.einsum("fk,fki->fi", coef, vt[:, :k])
        if k == d:
            cands += list(c0[np.linalg.norm(c0, axis=1) <= radius])
            continue
        flat = vt[:, k:]  # rows: an orthonormal basis of F's directions
        w = np.einsum("fj,fji->fi", np.einsum("fji,fi->fj", flat, a0), flat)
        wn = np.linalg.norm(w, axis=1)
        big = wn > 1e-12 * radius
        w = np.where(big[:, None], w / np.where(big, wn, 1.0)[:, None], flat[:, 0])
        r2 = radius * radius - (c0 * c0).sum(axis=1)
        meets = r2 >= -1e-12 * radius * radius
        r = np.sqrt(np.maximum(r2[meets], 0.0))[:, None]
        cands += list(c0[meets] + r * w[meets]) + list(c0[meets] - r * w[meets])
    c = np.array(cands)
    return float(np.sqrt(((c[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1).max())


class TestSymmetricGridMaps:
    def test_swap_is_involution(self):
        dom = sd.symmetric_square_grid(1.0, 4)
        s = swap_permutation(dom)
        assert np.array_equal(s.sigma[s.sigma], np.arange(dom.n))

    def test_rotation_is_order_four(self):
        dom = sd.symmetric_square_grid(1.0, 4)
        r = rotation_permutation(dom)
        twice = r[r]
        assert not np.array_equal(twice, np.arange(dom.n))
        assert np.array_equal(twice[twice], np.arange(dom.n))

    @pytest.mark.parametrize("side", [3, 5])
    def test_odd_sides_find_negated_zero(self, side):
        # the middle coordinate is 0.0; the quarter turn sends it to -0.0
        dom = sd.symmetric_square_grid(1.0, side)
        x, y = dom.points[:, 0], dom.points[:, 1]
        rot = rotation_permutation(dom)
        assert np.array_equal(dom.points[rot], np.stack([y, -x], axis=1))
        swap = swap_permutation(dom)
        assert np.array_equal(dom.points[swap.sigma], np.stack([y, x], axis=1))

    @pytest.mark.parametrize("perm", [rotation_permutation, swap_permutation])
    def test_map_off_the_grid_rejected(self, perm):
        dom = build_grid({"kind": "box", "bounds": [[0, 1], [0, 2]], "cells": [3, 3]})
        with pytest.raises(ValueError, match="not closed"):
            perm(dom)


class TestFieldCsv:
    def test_roundtrip(self, tmp_path):
        dom, fld = sincos_problem(10)
        path = tmp_path / "field.csv"
        write_field_csv(path, dom, fld)
        pts, vals = read_field_csv(path)
        np.testing.assert_array_equal(pts, dom.points)
        np.testing.assert_array_equal(vals, fld.values)

    def test_format(self, tmp_path):
        dom = sd.interval_grid(0.0, 3.0, 7)
        path = tmp_path / "field.csv"
        write_field_csv(path, dom, sd.sample_field(dom, lambda x: x * x))
        rows = path.read_text().splitlines()
        assert rows[:2] == ["x0,u0", "0.21428571428571427,0.04591836734693877"]
        assert len(rows) == 8

    def test_2d_roundtrip(self, tmp_path):
        dom = sd.symmetric_square_grid(1.0, 3)
        fld = sd.sample_field(dom, lambda p: np.array([p[1], -p[0]]))
        path = tmp_path / "field2.csv"
        write_field_csv(path, dom, fld)
        pts, vals = read_field_csv(path)
        np.testing.assert_array_equal(pts, dom.points)
        np.testing.assert_array_equal(vals, fld.values)

    def test_domain_spec_json(self, tmp_path):
        spec = {"kind": "interval", "bounds": [0.0, 2.0], "cells": 5}
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(spec))
        dom = build_grid(json.loads(path.read_text()))
        assert dom.n == 5
        assert dom.cell_measure == pytest.approx(0.4)
