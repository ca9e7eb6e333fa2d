"""Spans and counters around the public functions decompose reaches.

The program has no tracing of its own, so the traced run wraps, from the
outside, the module attributes that ``selfdual.decompose`` calls through:
each span target is replaced by a wrapper that records (name, start, end,
parent, call) while a Tracer is active, and each counter target by one
that counts calls. A function is looked up by its public name; a name a
later version of the program no longer has is reported as absent and
its metric reads 0.

A span's self time is its duration minus the durations of its direct
children, so the self times of one call add up to its root span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# (module, public name, metric, kind): a "span" reports its self time in
# s, a "count" the number of calls, "bidual" the calls and the cells
# (rows * n * m) of RegularHamiltonian.bidual_at_slopes
TARGETS = (
    ("dual_solver", "solve", "dual_solver.solve_s", "span"),
    ("dual_solver", "lp_relaxation", "dual_solver.lp_relaxation_s", "span"),
    ("primal_solver", "minimize_primal", "primal_solver.minimize_primal_s", "span"),
    ("primal_solver", "recover_involution", "primal_solver.recover_involution_s", "span"),
    ("primal_solver", "weak_duality", "primal_solver.weak_duality_s", "span"),
    ("conjugacy", "regularize", "conjugacy.regularize_s", "span"),
    ("conjugacy", "grad1", "conjugacy.grad1_s", "span"),
    ("conjugacy", "grad2", "conjugacy.grad2_s", "span"),
    ("domain", "DualPointSet.covering_radius", "domain.covering_radius_s", "span"),
    ("domain", "build_dual_points", "domain.build_dual_points_s", "span"),
    ("factorize", "check_monotone", "factorize.check_monotone_s", "span"),
    ("factorize", "check_uniqueness", "factorize.check_uniqueness_s", "span"),
    ("dual_solver", "build_weights", "dual_solver.build_weights_calls", "count"),
    ("conjugacy", "RegularHamiltonian.bidual_at_slopes", "conjugacy.bidual_calls", "bidual"),
)
ROOT = "factorize.decompose_self_s"  # the span the benchmark opens per call
BIDUAL_CELLS = "conjugacy.bidual_cells"  # sum of rows * n * m over bidual calls


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    call: int
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    active: bool = False
    call: int = 0
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.call))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every recorded span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def append_jsonl(self, path, **tags) -> None:
        """One JSON row per recorded span, with the given tags added."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **asdict(s), **tags}) + "\n")


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _bidual_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(self, ys, *args, **kwargs):
        if tracer.active:
            rows = len(np.atleast_2d(ys))
            tracer.count(name)
            tracer.count(BIDUAL_CELLS, rows * self.dom.n * self.pset.m)
        return fn(self, ys, *args, **kwargs)

    return wrapper


class Installed:
    """Wrappers in place; ``restore`` puts every original back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}  # metric -> the missing target

    def patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is None:  # the name was inherited, not defined on owner
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every span and counter target that the program still has.

    A module-level function is replaced in its own module and in every
    selfdual module that imported it by name (``from .conjugacy import
    grad1``), found by identity; a method is replaced on its class.
    """
    loaded = [
        m for k, m in sys.modules.items() if k == "selfdual" or k.startswith("selfdual.")
    ]
    make = {"span": _span_wrapper, "count": _count_wrapper, "bidual": _bidual_wrapper}
    inst = Installed()
    for mod_name, attr, metric, kind in TARGETS:
        owner = sys.modules.get(f"selfdual.{mod_name}")
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, fn_name, None)
        if not callable(fn):
            inst.absent[metric] = f"selfdual.{mod_name}.{attr}"
            if kind == "bidual":
                inst.absent[BIDUAL_CELLS] = inst.absent[metric]
            continue
        wrapped = make[kind](tracer, metric, fn)
        if cls_path:
            inst.patch(owner, fn_name, wrapped)
            continue
        for mod in loaded:
            if mod.__dict__.get(fn_name) is fn:
                inst.patch(mod, fn_name, wrapped)
    return inst
