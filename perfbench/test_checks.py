"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_checks.py -q

Every check must pass on a real decompose output and reject a
deliberately corrupted copy of it.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _cases():
    rng = np.random.default_rng(SEED)
    return [
        workloads.builtin("sincos", 64),  # the 0.1 residual bar holds from n = 64
        workloads.builtin("tent", 16),
        workloads.builtin("gradskew", 16),
        workloads.builtin("matrix", 16),
        workloads.random_instance(rng, 1, 10, "random-d1"),
        workloads.random_instance(rng, 2, 12, "random-d2"),
    ]


@pytest.fixture(scope="module", params=_cases(), ids=lambda i: i.label)
def case(request):
    inst = request.param
    ref = checks.reference(inst, SEED)
    out = checks.outcome_of(inst.decompose())
    return inst, ref, out


def test_true_output_passes(case):
    inst, ref, out = case
    assert checks.check(inst, ref, out) == []


def _fails(case, **changes):
    inst, ref, out = case
    return checks.check(inst, ref, dataclasses.replace(out, **changes))


def _paired(sigma):
    """Two 2-cycles of sigma, or None when it has fewer."""
    heads = np.flatnonzero(sigma > np.arange(len(sigma)))
    return (heads[0], heads[1]) if len(heads) >= 2 else None


def test_exchanged_partners_rejected(case):
    # (a b)(c d) -> (a d)(c b), or two fixed points joined into a pair:
    # still an involution, but not the one whose value the report states
    inst, ref, out = case
    sigma = out.sigma.copy()
    pairs = _paired(sigma)
    if pairs is None:
        fixed = np.flatnonzero(sigma == np.arange(len(sigma)))[:2]
        sigma[fixed] = fixed[::-1]
    else:
        a, c = pairs
        b, d = sigma[a], sigma[c]
        sigma[[a, d, c, b]] = [d, a, b, c]
    assert "D is not the value of sigma" in _fails(case, sigma=sigma)


def test_swapped_entries_rejected(case):
    # sigma(a) and sigma(c) trade values: sigma is no longer an involution
    inst, ref, out = case
    pairs = _paired(out.sigma)
    if pairs is None:
        pytest.skip("sigma has fewer than two 2-cycles")
    sigma = out.sigma.copy()
    sigma[list(pairs)] = sigma[list(pairs[::-1])]
    assert _fails(case, sigma=sigma) == ["sigma is not an involution"]


def test_scaled_d_rejected(case):
    inst, ref, out = case
    fails = _fails(case, d=out.d * (1 + 1e-9))
    assert "D is not the value of sigma" in fails
    assert any(f.startswith("D is not the involution optimum") for f in fails)


def test_p_below_assignment_rejected(case):
    inst, ref, out = case
    p = ref.assignment - 1e-9 * abs(ref.assignment)
    assert "P is below the assignment bound" in _fails(case, p=p)


def test_broken_antisymmetry_rejected(case):
    inst, ref, out = case
    k = out.kernel.copy()
    k[0, 1] = np.nextafter(k[0, 1], np.inf)
    assert _fails(case, kernel=k) == ["kernel is not exactly anti-symmetric"]


def test_negative_slack_rejected(case):
    inst, ref, out = case
    slack = out.slack.copy()
    slack[0] = -1e-300
    assert _fails(case, slack=slack) == ["a complementarity slack is negative"]


def test_broken_sign_flip_rejected(case):
    inst, ref, out = case

    def skewed(xs, ys):
        return out.hamiltonian(xs, ys) + 1e-15 * np.abs(np.atleast_2d(xs)).sum(axis=1)

    assert _fails(case, hamiltonian=skewed) == ["HR sign flip is not exact"]


def test_tracer_counts_and_leaves_outputs_unchanged():
    inst = workloads.builtin("gradskew", 16)
    plain = checks.outcome_of(inst.decompose())
    tracer = tracing.Tracer(active=True)
    installed = tracing.install(tracer)
    try:
        sid = tracer.open(tracing.ROOT)
        traced = checks.outcome_of(inst.decompose())
        tracer.close(sid)
    finally:
        installed.restore()
    assert installed.absent == {}
    assert checks.same_output(plain, traced)
    assert tracer.counts["dual_solver.build_weights_calls"] == 3
    assert tracer.counts["conjugacy.bidual_calls"] == 8 * inst.dom.dim
    selfs = tracer.self_times()
    root = tracer.spans[sid]
    assert sum(selfs.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert set(selfs) == {tracing.ROOT} | {
        name for _, _, name, kind in tracing.TARGETS if kind == "span"
    }
    # every original is back in place
    assert not hasattr(workloads.sd.dual_solver.solve, "__wrapped__")
    assert not hasattr(workloads.sd.factorize.grad1, "__wrapped__")


def test_removed_function_reported_absent(monkeypatch):
    monkeypatch.delattr(workloads.sd.dual_solver, "lp_relaxation")
    installed = tracing.install(tracing.Tracer())
    installed.restore()
    assert installed.absent == {
        "dual_solver.lp_relaxation_s": "selfdual.dual_solver.lp_relaxation"
    }
