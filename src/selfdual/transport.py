"""Mass transport view of the involution problem.

Pushing the cell measure forward by x -> (x, u(x)) gives an atomic measure
on the product space; transposing the coordinates gives its partner. Any
permutation of cells parametrizes a map between the two, and for
involutions the symmetric transport cost collapses to the squared distance
objective of the dual solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    DiscreteDomain,
    Involution,
    SampledField,
    check_pairing,
    check_permutation,
    write_csv,
)

__all__ = [
    "PairMeasure",
    "build_pair_measures",
    "transpose",
    "transport_cost",
    "parametrize_map",
    "TransportPlan",
    "export_atoms_csv",
]


@dataclass(frozen=True)
class PairMeasure:
    """Atomic measure on R^{2d}: one atom per cell, all with equal mass."""

    atoms: np.ndarray  # (N, 2d)
    masses: np.ndarray  # (N,)

    def __post_init__(self):
        if np.any(self.masses <= 0):
            raise ValueError("atom masses must be positive")
        if self.atoms.shape[0] != self.masses.shape[0]:
            raise ValueError("atom and mass counts differ")

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def build_pair_measures(
    dom: DiscreteDomain, fld: SampledField
) -> tuple[PairMeasure, PairMeasure]:
    """(graph measure, transposed measure) of the sampled field."""
    check_pairing(dom, fld)
    atoms = np.hstack([dom.points, fld.values])
    masses = np.full(dom.n, dom.cell_measure)
    return PairMeasure(atoms, masses), transpose(PairMeasure(atoms, masses))


def transpose(pm: PairMeasure) -> PairMeasure:
    d = pm.atoms.shape[1] // 2
    return PairMeasure(np.hstack([pm.atoms[:, d:], pm.atoms[:, :d]]), pm.masses)


def transport_cost(dom: DiscreteDomain, fld: SampledField, s: np.ndarray | Involution) -> float:
    """Symmetric quadratic cost of the plan parametrized by a permutation.

    0.5 * sum_i (|u_{s(i)} - x_i|^2 + |u_i - x_{s(i)}|^2) * mu; equals the
    distance objective whenever s is an involution.
    """
    check_pairing(dom, fld)
    sigma = check_permutation(s, dom.n)
    u, x = fld.values, dom.points
    a = ((u[sigma] - x) ** 2).sum(axis=1)
    b = ((u - x[sigma]) ** 2).sum(axis=1)
    return float(0.5 * (a + b).sum() * dom.cell_measure)


@dataclass(frozen=True)
class TransportPlan:
    """Atom-to-atom map (x_i, u_i) -> (u_{s(i)}, x_{s(i)})."""

    source: np.ndarray  # (N, 2d)
    image: np.ndarray  # (N, 2d)
    masses: np.ndarray
    pushes_onto_transpose: bool


def parametrize_map(
    dom: DiscreteDomain, fld: SampledField, s: np.ndarray | Involution
) -> TransportPlan:
    """Spell out the plan induced by a permutation and book-keep the masses.

    The image multiset is compared against the transposed measure's atoms;
    for any bijection the masses push forward exactly.
    """
    check_pairing(dom, fld)
    sigma = check_permutation(s, dom.n)
    mu_hat, nu_hat = build_pair_measures(dom, fld)
    image = np.hstack([fld.values[sigma], dom.points[sigma]])
    onto = _same_multiset(image, nu_hat.atoms)
    return TransportPlan(mu_hat.atoms, image, mu_hat.masses, onto)


def _same_multiset(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    ka = a[np.lexsort(a.T[::-1])]
    kb = b[np.lexsort(b.T[::-1])]
    return bool(np.array_equal(ka, kb))


def export_atoms_csv(path: str | Path, pm: PairMeasure) -> None:
    """One row per atom: mass, p0..p{2d-1}; feed for external solvers."""
    header = ["mass"] + [f"p{k}" for k in range(pm.atoms.shape[1])]
    write_csv(path, header, np.column_stack([pm.masses, pm.atoms]))
