"""Builtin field catalog: the closed-form test cases shipped with the CLI.

Each entry bundles a domain spec template, a pointwise field rule, and
where available the known analytic extras (Hamiltonian rule, canonical
involutions) used by verification and tests.

Planar builtins interpret the requested size as a total cell budget and
use the nearest square per-axis count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .domain import DiscreteDomain, Involution, swap_permutation

__all__ = ["BuiltinField", "builtin_field", "builtin_names"]


@dataclass(frozen=True)
class BuiltinField:
    name: str
    domain_spec: dict
    rule: Callable
    jacobian: Callable | None = None
    hamiltonian: Callable | None = None
    involutions: Callable | None = None  # dom -> list[(label, Involution)]


def _sincos(n: int, params: Mapping) -> BuiltinField:
    def rule(x):
        return math.sin(x) + x * math.cos(x)

    def jac(x):
        return np.array([[2.0 * math.cos(x) - x * math.sin(x)]])

    def ham(x, y):
        return x * np.sin(y) - y * np.sin(x)

    def invs(dom: DiscreteDomain):
        return [("reflection", Involution.reversal(dom.n))]

    return BuiltinField(
        "sincos",
        {"kind": "interval", "bounds": [0.0, math.pi], "cells": n},
        rule,
        jac,
        ham,
        invs,
    )


def _tent(n: int, params: Mapping) -> BuiltinField:
    def rule(x):
        return 2.0 * x if x <= 0.5 else 3.0 - 2.0 * x

    def jac(x):
        return np.array([[2.0 if x <= 0.5 else -2.0]])

    def invs(dom: DiscreteDomain):
        out = [("reflection", Involution.reversal(dom.n))]
        if dom.n % 2 == 0:
            out.append(("half-shift", Involution.half_shift(dom.n)))
            # the optimum, D = 2/3 - 1/(6 n^2): the rising half stays fixed
            # and the falling half reverses onto itself
            i, half = np.arange(dom.n), dom.n // 2
            out.append(("optimum", Involution(np.where(i < half, i, 3 * half - 1 - i))))
        return out

    return BuiltinField(
        "tent",
        {"kind": "interval", "bounds": [0.0, 1.0], "cells": n},
        rule,
        jac,
        None,
        invs,
    )


def _monotone1d(n: int, params: Mapping) -> BuiltinField:
    return BuiltinField(
        "monotone1d",
        {"kind": "interval", "bounds": [0.0, 1.0], "cells": n},
        lambda x: x,
        lambda x: np.array([[1.0]]),
        lambda x, y: 0.5 * x * x - 0.5 * y * y,
        lambda dom: [("identity", Involution.identity(dom.n))],
    )


def _per_axis(n: int) -> int:
    side = max(1, int(round(math.sqrt(n))))
    return side


def _matrix(n: int, params: Mapping) -> BuiltinField:
    a = np.asarray(params.get("A", [[0.0, 1.0], [0.0, 0.0]]), dtype=float)
    if a.shape != (2, 2):
        raise ValueError("matrix builtin needs a 2x2 matrix A")
    a_s = 0.5 * (a + a.T)
    a_a = 0.5 * (a - a.T)
    side = _per_axis(n)

    def rule(x):
        return a @ np.asarray(x, dtype=float)

    def jac(x):
        return a

    # polar factors of the symmetric part give the analytic Hamiltonian
    evals, evecs = np.linalg.eigh(a_s)
    r = evecs @ np.diag(np.abs(evals)) @ evecs.T

    def ham(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            0.5 * x @ (r @ x) - 0.5 * y @ (r @ y) - (a_a @ x) @ y
        )

    def invs(dom: DiscreteDomain):
        out = []
        try:
            out.append(("swap", swap_permutation(dom)))
        except ValueError:
            pass
        return out

    return BuiltinField(
        "matrix",
        {"kind": "symmetric-square", "bounds": 1.0, "cells": side},
        rule,
        jac,
        ham,
        invs,
    )


def _gradskew(n: int, params: Mapping) -> BuiltinField:
    q = np.asarray(params.get("Q", [[2.0, 0.0], [0.0, 2.0]]), dtype=float)
    a = np.asarray(params.get("A", [[0.0, 1.0], [-1.0, 0.0]]), dtype=float)
    b = np.asarray(params.get("b", [0.0, 0.0]), dtype=float)
    if not np.allclose(a, -a.T):
        raise ValueError("gradskew needs a skew matrix A")
    side = _per_axis(n)

    def rule(x):
        x = np.asarray(x, dtype=float)
        return q @ x + b + a @ x

    def jac(x):
        return q + a

    def ham(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        phi = lambda z: 0.5 * z @ (q @ z) + b @ z
        return phi(x) - phi(y) - (a @ x) @ y

    return BuiltinField(
        "gradskew",
        {"kind": "symmetric-square", "bounds": 1.0, "cells": side},
        rule,
        jac,
        ham,
        lambda dom: [("identity", Involution.identity(dom.n))],
    )


def _rotationJ(n: int, params: Mapping) -> BuiltinField:
    side = _per_axis(n)

    def rule(x):
        x = np.asarray(x, dtype=float)
        return np.array([-x[1], x[0]])

    def ham(x, y):
        # H_J(x, y) = <Jx, y>, the counterexample kernel
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return -x[1] * y[0] + x[0] * y[1]

    return BuiltinField(
        "rotationJ",
        {"kind": "symmetric-square", "bounds": 1.0, "cells": side},
        rule,
        lambda x: np.array([[0.0, -1.0], [1.0, 0.0]]),
        ham,
    )


_BUILTINS = {
    "sincos": _sincos,
    "tent": _tent,
    "matrix": _matrix,
    "gradskew": _gradskew,
    "rotationJ": _rotationJ,
    "monotone1d": _monotone1d,
}

# the params each builtin reads; the others read none
_PARAMS = {"matrix": ("A",), "gradskew": ("Q", "A", "b")}


def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_field(name: str, n: int, params: Mapping | None = None) -> BuiltinField:
    """Resolve a builtin by name at the requested cell budget."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin field {name!r}; know {sorted(_BUILTINS)}")
    if n < 1:
        raise ValueError("cell count must be at least 1")
    unread = set(params or {}) - set(_PARAMS.get(name, ()))
    if unread:
        raise ValueError(f"builtin {name} does not read params {sorted(unread)}")
    return _BUILTINS[name](int(n), params or {})
