import gc
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
    box_grid,
    build_grid,
    check_permutation,
    read_field_csv,
    swap_permutation,
    write_field_csv,
)

from conftest import (
    BAD_PERMUTATIONS,
    matrix_problem,
    monotone_problem,
    random_problem,
    rotation_permutation,
    sincos_problem,
    tent_problem,
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
        pset = sd.build_dual_points(dom, fld)
        assert pset.radius >= dom.radius and pset.radius >= fld.field_radius

    @pytest.mark.parametrize("margin", [0.0, 0.05, 0.2])
    def test_radius_is_the_margin_over_both_radii(self, margin, monkeypatch):
        # build_dual_points reads domain.RADIUS_MARGIN as it is called
        monkeypatch.setattr(domain, "RADIUS_MARGIN", margin)
        for dom, fld in (sincos_problem(16), random_problem(np.random.default_rng(5), 9, d=2)):
            pset = sd.build_dual_points(dom, fld)
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
        # the norm checks of a dual set see its points at that scale; its
        # farthest point is the largest field value
        pset = sd.build_dual_points(dom, fld)
        pts, radius = np.ldexp(pset.pts, power), np.ldexp(pset.radius, power)
        sd.DualPointSet(pts, radius)
        with pytest.raises(ValueError, match="outside the ball"):
            sd.DualPointSet(pts, 0.9 * np.ldexp(fld.field_radius, power))

    @pytest.mark.parametrize("power", [-600, 600])
    def test_radius_whose_square_leaves_the_floats_rejected(self, power):
        dom, fld = random_problem(np.random.default_rng(5), 9, d=2)
        small = sd.DiscreteDomain(np.ldexp(dom.points, power), 1.0, 2, 0.0)
        with pytest.raises(ValueError, match="out of scale"):
            sd.build_dual_points(small, sd.SampledField(np.ldexp(fld.values, power)))

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -0.01])
    def test_bad_margin_rejected(self, margin):
        # the margin is the module constant RADIUS_MARGIN, no parameter
        dom, fld = sincos_problem(8)
        with pytest.raises(TypeError, match="margin"):
            sd.build_dual_points(dom, fld, margin=margin)

    def test_settings_are_keywords(self):
        # build_dual_points takes the problem and nothing else
        dom, fld = sincos_problem(8)
        with pytest.raises(TypeError):
            sd.build_dual_points(dom, fld, 0.05)

    @pytest.mark.parametrize("sphere_points", [1, 2, 64])
    def test_sphere_points_refused_in_d_1(self, sphere_points):
        # no dimension has a shell, so no count is taken in d = 1 or d = 2
        for dom, fld in (sincos_problem(8), random_problem(np.random.default_rng(5), 9, d=2)):
            with pytest.raises(TypeError, match="sphere_points"):
                sd.build_dual_points(dom, fld, sphere_points=sphere_points)

    def test_dual_point_invariants(self):
        # the origin and the field values, each once, in the order of first
        # occurrence: the matrix field takes few distinct values
        for dom, fld in (sincos_problem(16), matrix_problem(8)[:2]):
            pset = sd.build_dual_points(dom, fld)
            rows = [(0.0,) * dom.dim]
            for u in map(tuple, fld.values.tolist()):
                if u not in rows:
                    rows.append(u)
            assert pset.pts.tolist() == [list(r) for r in rows]
            norms = np.linalg.norm(pset.pts, axis=1)
            assert norms.max() <= pset.radius * (1 + 1e-12)
            assert (norms == 0).any()
        # no point need lie near the sphere
        assert sd.DualPointSet(np.array([[0.0], [0.1]]), 1.0).m == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dual_points_are_the_first_occurrences(self, d):
        # the bytes of np.unique(axis=0)'s first occurrences in their order:
        # a -0.0 coordinate equals 0.0, so a -0.0 field value is the origin
        rng = np.random.default_rng(d)
        for n in (1, 2, 9, 40):
            dom = sd.DiscreteDomain(rng.normal(size=(n, d)), 1.0 / n, d, 0.0)
            vals = np.round(rng.normal(size=(n, d)))  # few distinct values
            vals[rng.random((n, d)) < 0.3] = -0.0
            pts = np.vstack([np.zeros((1, d)), vals])
            _, keep = np.unique(pts, axis=0, return_index=True)
            want = pts[np.sort(keep)]
            got = sd.build_dual_points(dom, sd.SampledField(vals)).pts
            assert got.tobytes() == want.tobytes()
        negzero = sd.SampledField(np.full((1, d), -0.0))
        pset = sd.build_dual_points(sd.DiscreteDomain(np.ones((1, d)), 1.0, d, 0.0), negzero)
        assert pset.m == 1 and not np.signbit(pset.pts).any()

    def test_covering_radius_1d(self):
        # the covering radius measured the gaps of a +-R shell; d = 1 has no
        # shell now, so the farthest dual point is the largest field value,
        # R_p = field radius < R
        for dom, fld in (sincos_problem(16), tent_problem(16)):
            pset = sd.build_dual_points(dom, fld)
            assert pset.m <= dom.n + 1
            assert np.abs(pset.pts).max() == fld.field_radius < pset.radius
            assert not np.isin(pset.pts, [-pset.radius, pset.radius]).any()

    @pytest.mark.parametrize("name", ["matrix", "rotationJ"])
    def test_covering_radius_2d_grid_valued_builtins(self, name):
        # grid values put many sites on common points and circles: the dual
        # set holds the origin and each distinct value once, whatever n
        for n in (16, 64, 196):
            bf = fields.builtin_field(name, n)
            dom = build_grid(bf.domain_spec)
            fld = sd.sample_field(dom, bf.rule)
            pset = sd.build_dual_points(dom, fld)
            distinct = np.unique(np.vstack([np.zeros((1, 2)), fld.values]), axis=0)
            assert pset.m == len(distinct) == len(np.unique(pset.pts, axis=0))
            for u in fld.values:
                assert (pset.pts == u).all(axis=1).any()

    def test_covering_radius_is_deterministic(self):
        # the dual set is built the same way, in the same order, every time
        bf = fields.builtin_field("gradskew", 196)
        dom = build_grid(bf.domain_spec)
        first = sd.build_dual_points(dom, sd.sample_field(dom, bf.rule))
        again = sd.build_dual_points(dom, sd.sample_field(dom, bf.rule))
        assert np.array_equal(first.pts, again.pts) and first.radius == again.radius

    def test_covering_candidates_lie_in_the_ball(self):
        # the dual points, the candidate slopes of HR's max, lie in the ball
        # of radius R in every dimension
        rng = np.random.default_rng(40)
        for n, d in ((8, 2), (48, 2), (200, 2), (30, 3), (10, 4)):
            dom, fld = random_problem(rng, n, d=d)
            pset = sd.build_dual_points(dom, fld)
            assert np.linalg.norm(pset.pts, axis=1).max() <= pset.radius * (1 + 1e-12)

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
