"""Seeded instance sets of the three workloads.

Each workload is a list of instances that one pass decomposes in order,
plus a few small warm-up instances of the same kinds. The closed-form
builtins (sincos, tent, gradskew, matrix) do not depend on the seed; the
seed draws the random point clouds and fields of ``small-batch`` and the
off-grid probe points of the sign-flip check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import selfdual as sd
from selfdual import fields

WORKLOADS = ("interval-1d", "plane-2d", "small-batch")

# cells of the interval grid (even, so the tent closed form applies)
INTERVAL_N = 128
# cell budget of the planar gradskew grid, 14 x 14
PLANE_N = 196
# cell budget of the matrix builtin inside small-batch, 8 x 8
MATRIX_N = 64
# (dimension, cells) of the random instances of small-batch: many small
# ones so per-call costs dominate, one each at n = 64 and 48 for the
# blossom. Each size comes three times: the pass time and the residual
# median then vary across seeds by a few percent, not by 10-20 % as with
# one instance per size.
SMALL_SIZES = tuple(
    (d, n)
    for d, sizes in (
        (1, (8, 9, 10, 12, 16, 20, 24, 32, 40) * 3 + (64,)),
        (2, (8, 9, 10, 12, 16, 20, 24, 32) * 3 + (48,)),
    )
    for n in sizes
)


@dataclass(frozen=True)
class Instance:
    """One decompose input: the domain, the field and the optional rules."""

    label: str
    kind: str  # sincos | tent | gradskew | matrix | random
    dom: sd.DiscreteDomain
    fld: sd.SampledField
    rule: Callable | None = None
    jacobian: Callable | None = None

    @property
    def closed_form(self) -> bool:
        """A builtin field, as opposed to a random-normal one."""
        return self.kind != "random"

    def decompose(self) -> sd.factorize.DecompositionReport:
        return sd.decompose(self.dom, self.fld, rule=self.rule, jacobian=self.jacobian)


def builtin(name: str, n: int) -> Instance:
    bf = fields.builtin_field(name, n)
    dom = sd.build_grid(bf.domain_spec)
    fld = sd.sample_field(dom, bf.rule)
    return Instance(f"{name}-{dom.n}", name, dom, fld, bf.rule, bf.jacobian)


def random_instance(rng: np.random.Generator, d: int, n: int, label: str) -> Instance:
    """Standard normal points (redrawn until distinct) and field values."""
    pts = rng.normal(size=(n, d))
    while len(np.unique(pts, axis=0)) != n:
        pts = rng.normal(size=(n, d))
    vals = rng.normal(size=(n, d))
    dom = sd.DiscreteDomain(pts, 1.0 / n, d, 0.0)
    return Instance(label, "random", dom, sd.SampledField(vals))


def instances(workload: str, seed: int) -> list[Instance]:
    """The instance set one pass of the workload decomposes."""
    if workload == "interval-1d":
        return [builtin("sincos", INTERVAL_N), builtin("tent", INTERVAL_N)]
    if workload == "plane-2d":
        return [builtin("gradskew", PLANE_N)]
    if workload == "small-batch":
        rng = np.random.default_rng([seed, 1])
        out = [
            random_instance(rng, d, n, f"random-d{d}-n{n}-{k}")
            for k, (d, n) in enumerate(SMALL_SIZES)
        ]
        return out + [builtin("matrix", MATRIX_N)]
    raise ValueError(f"unknown workload {workload!r}; know {', '.join(WORKLOADS)}")


def warmup_instances(workload: str, seed: int) -> list[Instance]:
    """Small instances of the workload's kinds, decomposed once before timing
    so that lazy imports, the HiGHS library and thread pools are loaded."""
    if workload == "interval-1d":
        return [builtin("sincos", 16), builtin("tent", 16)]
    if workload == "plane-2d":
        return [builtin("gradskew", 16)]
    if workload == "small-batch":
        rng = np.random.default_rng([seed, 2])
        return [
            random_instance(rng, 1, 8, "warmup-d1"),
            random_instance(rng, 2, 8, "warmup-d2"),
            builtin("matrix", 16),
        ]
    raise ValueError(f"unknown workload {workload!r}; know {', '.join(WORKLOADS)}")
