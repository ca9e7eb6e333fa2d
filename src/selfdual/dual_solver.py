"""Maximize the pairing objective over measure preserving involutions.

Over equal-measure cells an involution is a partition of the indices into
fixed points and 2-cycles, and sum_i C[i, s(i)] = sum_i S[i, s(i)] with
S = (C + C^T) / 2. The one path, solve, solves the max-weight assignment on S
(its value bounds every involution, and it is the LP dual of the kernel
primal) and rounds the optimal permutation cycle by cycle: fixed points,
2-cycles and even cycles round without loss, so the involution meets the
bound. Only an odd cycle, a half-integral vertex of the fractional
matching polytope, sends the instance to the exact blossom matcher on the
pair surpluses C[i, j] + C[j, i] - C[i, i] - C[j, j]. That matcher and
a brute-force enumerator are also kept alone, as the oracles the path is
tested against. C is domain.pairing, the one place the pairing is computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

from .domain import DiscreteDomain, Involution, SampledField, pairing

__all__ = [
    "DualSolution",
    "dual_objective",
    "distance_objective",
    "involution_count",
    "all_involutions",
    "solve_brute",
    "solve_matching",
    "assignment_relaxation",
    "solve",
]

BRUTE_LIMIT = 12


def _symmetric_pairing(dom: DiscreteDomain, fld: SampledField) -> np.ndarray:
    """S = (C + C^T) / 2, symmetric bit for bit, with S[i, i] == C[i, i]."""
    c = pairing(dom, fld)
    return 0.5 * (c + c.T)


def dual_objective(dom: DiscreteDomain, fld: SampledField, s: Involution) -> float:
    """Measure-weighted pairing sum of an involution."""
    if s.n != dom.n:
        raise ValueError("involution length does not match domain")
    c = pairing(dom, fld)
    return float(c[np.arange(dom.n), s.sigma].sum() * dom.cell_measure)


def distance_objective(dom: DiscreteDomain, fld: SampledField, s: Involution) -> float:
    """Squared distance of the field to the involution, measure weighted."""
    if s.n != dom.n:
        raise ValueError("involution length does not match domain")
    diff = fld.values - dom.points[s.sigma]
    return float((diff * diff).sum() * dom.cell_measure)


@dataclass(frozen=True)
class DualSolution:
    sigma: Involution
    value: float
    method: str  # "assignment" | "matching" | "brute"
    # what backs optimality: "assignment-bound-tight" or "blossom-fallback"
    # (odd cycle) from solve, "blossom" or "brute" from an oracle
    certificate: str
    bound: float | None = None  # assignment bound, set by solve


# ---------------------------------------------------------------------------
# brute force oracle


def involution_count(n: int) -> int:
    """Telephone numbers, I(n) = I(n-1) + (n-1) I(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1


@functools.lru_cache(maxsize=None)
def all_involutions(n: int) -> np.ndarray:
    """Every involution of {0..n-1}, rows in lexicographic order of sigma."""
    out: list[tuple[int, ...]] = []
    sig = list(range(n))

    def rec(free: tuple[int, ...]) -> None:
        if not free:
            out.append(tuple(sig))
            return
        i = free[0]
        rec(free[1:])  # i fixed, lexicographically first
        for jdx in range(1, len(free)):
            j = free[jdx]
            sig[i], sig[j] = j, i
            rec(free[1:jdx] + free[jdx + 1 :])
            sig[i], sig[j] = i, j

    rec(tuple(range(n)))
    arr = np.array(out, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def solve_brute(dom: DiscreteDomain, fld: SampledField) -> DualSolution:
    """Enumerate every involution; exact and lex-smallest among ties."""
    n = dom.n
    if n > BRUTE_LIMIT:
        raise ValueError(
            f"brute enumeration capped at n={BRUTE_LIMIT} "
            f"(I({n}) = {involution_count(n)} involutions)"
        )
    c = pairing(dom, fld)
    sigs = all_involutions(n)
    vals = c[np.arange(n)[None, :], sigs].sum(axis=1) * dom.cell_measure
    k = int(np.argmax(vals))  # first max = lexicographically smallest optimum
    return DualSolution(Involution(sigs[k]), float(vals[k]), "brute", "brute")


# ---------------------------------------------------------------------------
# matching reduction


def solve_matching(dom: DiscreteDomain, fld: SampledField) -> DualSolution:
    """Exact maximum via blossom matching on the reduced pair surpluses.

    Only strictly positive surpluses can improve on fixed points, so only
    those edges enter the graph; unmatched vertices stay fixed.
    """
    n = dom.n
    sigma = np.arange(n)
    if n > 1:
        c = pairing(dom, fld)
        diag = np.diag(c)
        iu, ju = np.triu_indices(n, k=1)
        # surplus of the 2-cycle {i, j} over leaving both fixed
        surplus = (c + c.T)[iu, ju] - diag[iu] - diag[ju]
        pos = surplus > 0.0
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i, j, w in zip(iu[pos], ju[pos], surplus[pos]):
            g.add_edge(int(i), int(j), weight=float(w))
        sigma = _blossom(g, sigma)
    s = Involution(sigma)
    return DualSolution(s, dual_objective(dom, fld, s), "matching", "blossom")


def _blossom(g: nx.Graph, base: np.ndarray) -> np.ndarray:
    """A copy of the involution base with the pairs of a maximum weight
    matching of g made 2-cycles. With Python int weights networkx matches in
    exact integer arithmetic and checks the optimum itself; any other number
    type makes it compute in floats. Empties g, which the matching's
    reference cycles would hold until the collector runs."""
    sigma = base.copy()
    for a, b in nx.max_weight_matching(g, maxcardinality=False):
        sigma[a], sigma[b] = b, a
    g.clear()
    return sigma


# ---------------------------------------------------------------------------
# assignment core


def assignment_relaxation(
    dom: DiscreteDomain, fld: SampledField
) -> tuple[np.ndarray, np.ndarray, float]:
    """Max-weight assignment on S = (C + C^T) / 2 with its dual potentials.

    For an involution sum_i C[i, s(i)] = sum_i S[i, s(i)], so the optimal
    permutation perm bounds every involution value from above; the bound
    mu * sum_i S[i, perm(i)] is also the optimum of the symmetric doubly
    stochastic relaxation. The assignment duals a_i + b_j >= S[i, j], tight
    on perm, come from Bellman-Ford on the reduced costs, and pot = a + b
    satisfies pot_i >= C[i, i], pot_i + pot_j >= C[i, j] + C[j, i] and
    sum(pot) * mu == bound up to rounding.
    """
    s = _symmetric_pairing(dom, fld)
    n = dom.n
    _, perm = linear_sum_assignment(s, maximize=True)
    # b_perm(i) <= b_j + S[i, perm(i)] - S[i, j]: shortest paths in the
    # graph whose edge j -> k has length[k, j], from a source at distance 0
    owner = np.empty(n, dtype=np.intp)
    owner[perm] = np.arange(n)
    rows = s[owner]
    length = np.diag(rows)[:, None] - rows  # zero diagonal keeps b_k itself
    b = np.zeros(n)
    for _ in range(n + 1):  # an optimal perm leaves no negative cycle
        nb = (b[None, :] + length).min(axis=1)
        if np.array_equal(nb, b):
            break
        b = nb
    tight = s[np.arange(n), perm]
    pot = tight - b[perm] + b
    return perm, pot, float(tight.sum() * dom.cell_measure)


def _round_cycles(s: np.ndarray, perm: np.ndarray) -> np.ndarray | None:
    """Involution of the same value as an optimal permutation, or None.

    Fixed points and 2-cycles are kept. An even cycle becomes the better of
    its two alternating halves (the first, from its smallest index, on a
    tie): the halves sum to twice the cycle's value, so the better one
    loses nothing. An odd cycle has no such rounding.
    """
    n = len(perm)
    sigma = perm.copy()
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        k = perm[start]
        while k != start:
            cyc.append(k)
            k = perm[k]
        seen[cyc] = True
        if len(cyc) <= 2:
            continue
        if len(cyc) % 2:
            return None
        cyc = np.array(cyc)
        nxt = np.roll(cyc, -1)
        links = s[cyc, nxt]  # link t joins cyc[t] and cyc[t + 1]
        off = 0 if links[0::2].sum() >= links[1::2].sum() else 1
        a, b = cyc[off::2], nxt[off::2]
        sigma[a], sigma[b] = b, a
    return sigma


# ---------------------------------------------------------------------------
# the dual path


def solve(
    dom: DiscreteDomain,
    fld: SampledField,
    relaxation: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> DualSolution:
    """Best involution, with the assignment bound attached.

    Rounds the optimal assignment cycle by cycle, which is exact and meets
    the bound unless the permutation has an odd cycle; then the blossom
    matcher solves the whole instance. A precomputed assignment_relaxation
    can be passed so that one assignment solve serves both the dual and the
    primal. solve_matching and solve_brute are the oracles it is tested
    against.
    """
    perm, _, bound = relaxation or assignment_relaxation(dom, fld)
    sigma = _round_cycles(_symmetric_pairing(dom, fld), perm)
    if sigma is not None:
        s = Involution(sigma)
        value = dual_objective(dom, fld, s)
        return DualSolution(s, value, "assignment", "assignment-bound-tight", bound)
    return replace(solve_matching(dom, fld), certificate="blossom-fallback", bound=bound)
