"""One set of properties across the dual path and its two oracles: the
assignment core, blossom and brute, each paired with the closed-form
primal kernel."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import selfdual as sd
from selfdual import domain
from selfdual.dual_solver import (
    BRUTE_LIMIT,
    _kept_graph,
    _round_cycles,
    assignment_relaxation,
    solve,
    solve_brute,
    solve_matching,
)
from selfdual.primal_solver import EPS_PRIMAL, optimal_kernel, weak_duality

from conftest import closed_form_primal, odd_cycle_problem


def make_problem(n, d, seed, scale, kind):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        # integer coordinates: exact arithmetic and many equal-value optima
        pts = rng.integers(-5, 6, size=(n, d)).astype(float)
        while len(np.unique(pts, axis=0)) != n:
            pts = rng.integers(-5, 6, size=(n, d)).astype(float)
        vals = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        pts = rng.normal(size=(n, d))
        while len(np.unique(pts, axis=0)) != n:
            pts = rng.normal(size=(n, d))
        vals = rng.normal(size=(n, d))
        if kind == "constant":
            vals = np.repeat(vals[:1], n, axis=0)
    dom = sd.DiscreteDomain(scale * pts, 1.0 / n, d, 0.0)
    return dom, sd.SampledField(scale * vals)


def check_paths(dom, fld):
    """The path and each oracle: sigma an involution of the optimal value,
    slacks >= 0 bitwise, the kernel exactly anti-symmetric and P at the
    bound."""
    n = dom.n
    _, _, bound = assignment_relaxation(dom, fld)
    kernel, value, converged = closed_form_primal(dom, fld)
    k = kernel.matrix
    assert np.array_equal(k, -k.T)
    assert not np.diag(k).any()
    c = fld.values @ dom.points.T
    # rounding of an n-term sum of d-term dot products
    scale = np.abs(c).max() * n * dom.cell_measure
    rounding = 64 * (n + 2) * np.finfo(float).eps * scale
    assert abs(value - bound) <= EPS_PRIMAL * abs(value) + rounding
    assert converged
    values = {}
    solvers = {"auto": solve, "matching": solve_matching, "brute": solve_brute}
    for method, solver in solvers.items():
        sol = solver(dom, fld)
        sigma = sol.sigma.sigma
        assert np.array_equal(sigma[sigma], np.arange(n))
        assert sol.bound == (bound if method == "auto" else None)
        assert sol.value <= bound + rounding
        cert = weak_duality(dom, fld, kernel, sol.sigma)
        assert (cert.slack >= 0).all()
        assert cert.gap >= 0
        assert cert.cancellation == 0.0
        values[method] = sol.value
    assert abs(values["auto"] - values["brute"]) <= rounding
    assert abs(values["matching"] - values["brute"]) <= rounding
    return values, bound


problems = given(
    n=st.integers(1, 10),
    d=st.integers(1, 2),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1.0, 1e-8, 1e8]),
    kind=st.sampled_from(["normal", "constant", "ties"]),
)


@settings(max_examples=150, deadline=None)
@problems
@example(n=1, d=1, seed=0, scale=1.0, kind="normal")
@example(n=2, d=1, seed=0, scale=1.0, kind="normal")
@example(n=2, d=2, seed=1, scale=1e8, kind="ties")
@example(n=10, d=2, seed=2, scale=1e-8, kind="constant")
# a constant field: P = 1.2e-32 and bound 6.2e-33 are both rounding noise
@example(n=4, d=1, seed=1582, scale=1e-8, kind="ties")
def test_paths_agree(n, d, seed, scale, kind):
    check_paths(*make_problem(n, d, seed, scale, kind))


@settings(max_examples=150, deadline=None)
@problems
def test_report_kernel_is_the_primal_kernel(n, d, seed, scale, kind):
    # decompose builds the kernel from the dual's potentials after the
    # residual pass: the assignment's potentials and their kernel, bit for bit
    dom, fld = make_problem(n, d, seed, scale, kind)
    # decompose refuses a ball radius R whose square is not a normal float
    assume(max(dom.radius, fld.field_radius) > 0)
    rep = sd.decompose(dom, fld)
    pot = assignment_relaxation(dom, fld)[1]
    assert rep.dual.pot.tobytes() == pot.tobytes()
    assert rep.kernel.matrix.tobytes() == optimal_kernel(dom, fld, pot).matrix.tobytes()


@settings(max_examples=150, deadline=None)
@problems
def test_monotone_verdict_within_its_allowance(n, d, seed, scale, kind):
    # min_pairing lies within delta of the least pairing in Fraction values,
    # a verdict beyond +-delta has its sign, and the exact minimum beyond
    # +-2 delta gets the strict verdict
    assume(n > 1)
    dom, fld = make_problem(n, d, seed, scale, kind)
    v = sd.check_monotone(dom, fld)
    x = [[Fraction(t) for t in row] for row in dom.points.tolist()]
    u = [[Fraction(t) for t in row] for row in fld.values.tolist()]
    exact = min(
        sum((x[i][k] - x[j][k]) * (u[i][k] - u[j][k]) for k in range(d))
        for i in range(n)
        for j in range(i + 1, n)
    )
    delta = Fraction((2 * d + 5) * np.finfo(float).eps * dom.radius * fld.field_radius)
    assert abs(Fraction(v.min_pairing) - exact) <= delta
    if v.verdict == "strictly-monotone":
        assert exact > 0
    if v.verdict == "non-monotone":
        assert exact < 0
    if abs(exact) > 2 * delta:
        assert v.verdict == ("strictly-monotone" if exact > 0 else "non-monotone")


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
def test_odd_cycle_instance(scale):
    dom, fld = odd_cycle_problem()
    dom = sd.DiscreteDomain(scale * dom.points, dom.cell_measure, dom.dim, 0.0)
    fld = sd.SampledField(scale * fld.values)
    values, bound = check_paths(dom, fld)
    assert solve(dom, fld).certificate == "kept-graph-exact"
    # no involution reaches the fractional optimum of a 3-cycle
    assert values["brute"] < bound - 0.4 * scale * scale


def test_constant_zero_field():
    dom = sd.interval_grid(-1.0, 1.0, 6)
    fld = sd.SampledField(np.zeros((6, 1)))
    values, bound = check_paths(dom, fld)
    assert bound == 0.0 and values["auto"] == 0.0


def planted_odd_cycle(n, k, seed, bonus, scale):
    """The unit vectors of R^n as points, so that C is the field matrix:
    normal noise, with bonus on the links of an odd cycle of 2k + 1 (at
    most n) indices, which the optimal assignment then tends to keep."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n))
    cyc = rng.permutation(n)[: min(2 * k + 1, n - 1 + n % 2)]
    c[cyc, np.roll(cyc, -1)] += bonus
    dom = sd.DiscreteDomain(scale * np.eye(n), 1.0 / n, n, 0.0)
    return dom, sd.SampledField(scale * c)


odd_cycles = given(
    n=st.integers(3, 24),
    k=st.integers(1, 11),
    seed=st.integers(0, 2**31 - 1),
    bonus=st.sampled_from([4.0, 16.0, 32.0]),
    scale=st.sampled_from([1.0, 1e-8, 1e8]),
)


@settings(max_examples=100, deadline=None)
@odd_cycles
def test_odd_cycles_solved_exactly(n, k, seed, bonus, scale):
    # exact against enumeration up to BRUTE_LIMIT, and above it at least as
    # good as the float blossom, in Fraction values, and within its rounding
    dom, fld = planted_odd_cycle(n, k, seed, bonus, scale)
    c = sd.pairing(dom, fld)
    perm, _, bound = assignment_relaxation(dom, fld)
    assume(not _round_cycles(c, perm)[1])
    sol = solve(dom, fld)
    assert sol.certificate == "kept-graph-exact" and sol.bound == bound
    assert sol.uniqueness in ("unique", "non-unique")

    def exact(s):
        return sum(map(Fraction, c[np.arange(n), s.sigma]))

    if n <= BRUTE_LIMIT:
        assert exact(sol.sigma) == exact(solve_brute(dom, fld).sigma)
    else:
        match = solve_matching(dom, fld)
        assert exact(sol.sigma) >= exact(match.sigma)
        rounding = 64 * (n + 2) * np.finfo(float).eps * np.abs(c).max()
        assert sol.value <= match.value + rounding
    if sol.uniqueness == "non-unique":
        assert sol.alternative != sol.sigma
        assert exact(sol.alternative) == exact(sol.sigma)


@settings(max_examples=100, deadline=None)
@odd_cycles
def test_kept_graph_holds_the_full_blossoms_optimum(n, k, seed, bonus, scale):
    # pruned to the kept graph of the rounded start, odd cycle or not, the
    # blossom's graph still holds every pair and fixed point of the float
    # blossom's optimum on the full graph
    dom, fld = planted_odd_cycle(n, k, seed, bonus, scale)
    c = sd.pairing(dom, fld)
    perm, pot, _ = assignment_relaxation(dom, fld)
    start, _ = _round_cycles(c, perm)
    fixed_ok, ei, ej = _kept_graph(c, pot, start)
    kept = set(zip(ei.tolist(), ej.tolist()))
    for i, j in enumerate(solve_matching(dom, fld).sigma.sigma.tolist()):
        assert fixed_ok[i] if i == j else (min(i, j), max(i, j)) in kept


def assert_kept_graph_row_block_invariant(dom, fld):
    # fixed_ok, ei and ej do not depend on the row blocks of the two scans:
    # one row, a few with a short last one, and the default
    c = sd.pairing(dom, fld)
    perm, pot, _ = assignment_relaxation(dom, fld)
    start, _ = _round_cycles(c, perm)
    want = _kept_graph(c, pot, start)
    for budget in (1, 3 * dom.n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domain, "ROW_BLOCK", budget)
            got = _kept_graph(c, pot, start)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_kept_graph_row_blocks_on_the_odd_cycle_instance():
    assert_kept_graph_row_block_invariant(*odd_cycle_problem())


@settings(max_examples=100, deadline=None)
@problems
def test_kept_graph_row_blocks(n, d, seed, scale, kind):
    assert_kept_graph_row_block_invariant(*make_problem(n, d, seed, scale, kind))


@settings(max_examples=100, deadline=None)
@odd_cycles
def test_kept_graph_row_blocks_on_odd_cycles(n, k, seed, bonus, scale):
    assert_kept_graph_row_block_invariant(*planted_odd_cycle(n, k, seed, bonus, scale))
