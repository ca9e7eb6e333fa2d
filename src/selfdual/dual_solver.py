"""Maximize the pairing objective over measure preserving involutions.

Over equal-measure cells an involution is a partition of the indices into
fixed points and 2-cycles, and sum_i C[i, s(i)] = sum_i S[i, s(i)] with
S = (C + C^T) / 2. The one path, solve, solves the max-weight assignment on S
(its value bounds every involution, and it is the LP dual of the kernel
primal) and rounds the optimal permutation cycle by cycle: without an odd
cycle, a half-integral vertex of the matching polytope, the involution
meets the bound. One exact integer blossom on the kept graph of the
assignment's reduced costs then finds an optimum, where an odd cycle
leaves the rounding short, and decides whether it is the only one. The
float blossom on the full graph and a brute-force enumerator are kept
alone, as the oracles the path is tested against. C is domain.pairing,
the one place the pairing is computed. The paper's self-dual transport
problem is this one: its cost is a constant less 2 D (dual_objective).
"""

from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

from .domain import DiscreteDomain, Involution, SampledField, pairing, row_blocks

__all__ = [
    "DualSolution",
    "dual_objective",
    "involution_count",
    "all_involutions",
    "solve_brute",
    "solve_matching",
    "assignment_relaxation",
    "reduced",
    "solve",
]

BRUTE_LIMIT = 12
# without an odd cycle _settle's blossom takes <= _BLOSSOM_EDGES kept edges
_BLOSSOM_EDGES = 1 << 12


def dual_objective(dom: DiscreteDomain, fld: SampledField, s: Involution) -> float:
    """Measure-weighted pairing sum of an involution, D(s).

    The paper's self-dual transport cost of s, the symmetric quadratic cost
    T(s) = 1/2 sum_i (|u_s(i) - x_i|^2 + |u_i - x_s(i)|^2) mu, and the
    squared distance sum_i |u_i - x_s(i)|^2 mu are both
    sum_i (|x_i|^2 + |u_i|^2) mu - 2 D(s): reindexing i -> s(i) turns
    sum_i <u_s(i), x_i> into sum_i <u_i, x_s(i)>, as s is its own inverse.
    Minimizing either cost is maximizing D.
    """
    if s.n != dom.n:
        raise ValueError("involution length does not match domain")
    c = pairing(dom, fld)
    return float(c[np.arange(dom.n), s.sigma].sum() * dom.cell_measure)


@dataclass(frozen=True)
class DualSolution:
    sigma: Involution
    value: float
    certificate: str  # what backs optimality (see solve), or the oracle
    bound: float | None = None  # the assignment bound, set by solve
    pot: np.ndarray | None = None  # its potentials, set by solve
    uniqueness: str | None = None  # set by solve, see _settle
    alternative: Involution | None = None


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
    return DualSolution(Involution(sigs[k]), float(vals[k]), "brute")


# ---------------------------------------------------------------------------
# matching reduction


def solve_matching(dom: DiscreteDomain, fld: SampledField) -> DualSolution:
    """Oracle: blossom matching on the pair surpluses of the full graph.

    Only strictly positive surpluses can improve on fixed points, so only
    those edges enter the graph; unmatched vertices stay fixed. The weights
    are floats, so the result is optimal only up to their rounding; solve
    is exact.
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
    return DualSolution(s, dual_objective(dom, fld, s), "blossom")


def _blossom(g: nx.Graph, base: np.ndarray) -> np.ndarray:
    """A copy of the involution base with the pairs of a maximum weight
    matching of g made 2-cycles. With Python int weights networkx matches in
    exact integer arithmetic and checks the optimum itself; any other number
    type makes it compute in floats. Empties g and collects the youngest
    generation, so that the matching's reference cycles, which hold its
    working state, are not held through the larger stages that follow."""
    sigma = base.copy()
    for a, b in nx.max_weight_matching(g, maxcardinality=False):
        sigma[a], sigma[b] = b, a
    g.clear()
    gc.collect(0)
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
    sum(pot) * mu == bound up to rounding. An optimal perm rules out a
    negative cycle only in exact arithmetic: a tied cycle of length 0 can
    round below 0, and the sweeps then end at their cap, n + 1, without a fixpoint.
    """
    s = pairing(dom, fld)
    s += s.T  # C + C^T: numpy reads the overlapping s.T from a copy
    s *= 0.5  # symmetric bit for bit, S[i, i] == C[i, i]
    n = dom.n
    _, perm = linear_sum_assignment(s, maximize=True)
    # b_perm(i) <= b_j + S[i, perm(i)] - S[i, j]: shortest paths in the
    # graph whose edge j -> k has length[k, j], from a source at distance 0
    s = s[np.argsort(perm)]  # row k is S[i] for perm(i) = k
    tight = s.diagonal()[perm]  # S[i, perm(i)], read before s turns into length
    length = np.subtract(s.diagonal()[:, None], s, out=s)  # zero diagonal keeps b_k
    b, scratch = np.zeros(n), np.empty((n, n))
    for _ in range(n + 1):
        nb = np.add(b[None, :], length, out=scratch).min(axis=1)
        if np.array_equal(nb, b):
            break
        b = nb
    pot = tight - b[perm] + b
    return perm, pot, float(tight.sum() * dom.cell_measure)


def _round_cycles(c: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, bool]:
    """An involution rounded from an optimal permutation, and whether the
    permutation is free of odd cycles, so that the rounding meets its value.
    S = (C + C^T) / 2 is formed from the pairing C only where it is read.

    Fixed points and 2-cycles are kept. An even cycle becomes the better of
    its two alternating halves (the first, from its smallest index, on a
    tie): the halves sum to twice the cycle's value, so the better one
    loses nothing. An odd cycle keeps the one vertex v fixed that maximises
    S[v, v] + sum 2 S[i, j] over the pairs {i, j} of the rest along the
    cycle (a pair is worth 2 S[i, j] to an involution), which may lose.
    """
    n = len(perm)
    sigma = perm.copy()
    seen = np.zeros(n, dtype=bool)
    tight = True
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        while perm[cyc[-1]] != start:
            cyc.append(perm[cyc[-1]])
        seen[cyc] = True
        if len(cyc) <= 2:
            continue
        odd = len(cyc) % 2
        tight &= not odd
        cyc = np.array(cyc)
        nxt = np.roll(cyc, -1)
        links = 0.5 * (c[cyc, nxt] + c[nxt, cyc])  # S at cyc[t], cyc[t + 1]
        # the pairs are every other link from a first one, t0
        t0 = np.arange(len(cyc) if odd else 2)
        take = (t0[:, None] + 2 * np.arange(len(cyc) // 2)) % len(cyc)
        worth = 2 * links[take].sum(axis=1)
        if odd:  # cyc[t0 - 1] stays fixed
            worth += c[cyc, cyc][t0 - 1]
        t = take[worth.argmax()]
        sigma[cyc] = cyc
        sigma[cyc[t]], sigma[nxt[t]] = nxt[t], cyc[t]
    return sigma, tight


def reduced(c: np.ndarray, pot: np.ndarray, rows: slice) -> np.ndarray:
    """Rows of the reduced costs r_ij = ((pot_i + pot_j) - c_ij) - c_ji, in
    that order, the diagonal (not r_ii) at +inf: the one place r is formed.
    At pot = diag(c), r_ij is the monotonicity pairing <x_i - x_j, u_i - u_j>
    (factorize.check_monotone); at the assignment's pot, _kept_graph's."""
    r = pot[rows, None] + pot
    r -= c[rows]
    r -= c[:, rows].T
    np.fill_diagonal(r[:, rows], np.inf)
    return r


def _kept_graph(c: np.ndarray, pot: np.ndarray, s: np.ndarray):
    """The fixed points fixed_ok (a mask) and pairs (ei, ej), ei < ej, that
    every involution at least as good as the involution s uses.

    With the assignment potentials pot, the reduced costs
    r_ij = pot_i + pot_j - c_ij - c_ji (i != j) and r_ii = pot_i - c_ii give
    every involution t the value sum_i c[i, t(i)] = sum(pot) - (sum of r
    over its pairs and fixed points), an identity of real numbers. Let
    gap = sum(pot) - value(s) and viol = max(0, -min r). If t is at least
    as good as s, its at most n terms of r sum to at most gap and each is
    >= -viol, so each is at most max(gap, 0) + n viol: t uses only the
    pairs and fixed points with r <= tol, the kept graph (reduced-cost
    fixing; Nemhauser and Wolsey, Integer and Combinatorial Optimization,
    1988).

    Rounding allowance. c is the data: a value is the exact sum of its
    entries. With u = eps / 2 and M = max|pot| + max|c|, the computed r_ij
    (reduced) rounds three partial results of size at most 2M, so it is
    within rho = 4 eps M of the exact r_ij (6 u M and products of u); r_ii
    rounds once. The exact viol is thus at most the computed one plus rho.
    gap is the math.fsum of pot and -c[i, s(i)], correctly rounded, so the
    exact max(gap, 0) is at most (1 + eps) times the computed one. A term of
    t then has a computed r of at most max(gap, 0) (1 + eps) + n (viol + rho)
    + rho, and tol = (max(gap, 0) + n viol + (n + 2) rho) (1 + 4 eps) bounds
    it, with a rho and the factor to spare for the rounding of tol itself.
    """
    n = len(s)
    eps = np.finfo(float).eps
    rfix = pot - np.diagonal(c)
    low = min([rfix.min()] + [reduced(c, pot, rows).min() for rows in row_blocks(n, n)])
    gap = math.fsum(np.concatenate([pot, -c[np.arange(n), s]]))
    rho = 4 * eps * (np.abs(pot).max() + np.abs(c).max())
    tol = (max(gap, 0.0) + n * max(0.0, -low) + (n + 2) * rho) * (1 + 4 * eps)
    ei, ej = [], []
    for rows in row_blocks(n, n):
        i, j = np.nonzero(reduced(c, pot, rows) <= tol)
        i += rows.start
        ei.append(i[j > i])
        ej.append(j[j > i])
    fixed_ok, ei, ej = rfix <= tol, np.concatenate(ei), np.concatenate(ej)
    # s is kept, as shown above, unless an r is NaN: its kept points cover all n
    if fixed_ok[s == np.arange(n)].sum() + 2 * (s[ei] == ej).sum() < n:
        raise ValueError("the reduced costs are not finite")
    return fixed_ok, ei, ej


def _settle(
    c: np.ndarray, pot: np.ndarray, s: np.ndarray, cap: int | None
) -> tuple[np.ndarray, str | None, Involution | None]:
    """(best, verdict, alternative): an exact optimum and whether it is the
    only one, from the kept graph (_kept_graph) of the involution s.

    Unless the kept graph is a forest (_cyclic_components) that admits s
    alone (_admits_another), one blossom (_blossom) decides. A rival
    component of the kept graph holds a kept edge outside s, or a pair of
    s whose two ends are both fixed_ok; on the others s is the only
    involution the kept graph admits. On the rival components' kept edges
    the blossom maximizes the Python int weights

        w_ij = (n + 1) (q(c_ij) + q(c_ji) - q(c_ii) - q(c_jj))
               + 2 [s(i) != j] - [s(i) != i] - [s(j) != j],

    q(x) = x scale, with scale the largest denominator (a power of two) of
    the entries read. Unmatched vertices stay fixed and the other components
    keep s, so a matching weighs (n + 1) value + (the number of vertices
    where it leaves s) plus a constant, value in units of 1 / scale: it
    returns an optimum, of the optima the one farthest from s. Fixing a
    vertex that is not fixed_ok only adds involutions worse than s.

    - (s, "unique", None): the forest test passes, or the blossom returns s.
    - (s, "non-unique", alt): alt, an Involution, ties s in Fraction values.
    - (alt, None, None): alt beats s; a second call from alt decides.
    - (s, None, None): the rival components hold more than cap kept edges.
    """
    n = len(s)
    idx = np.arange(n)
    fixed_ok, ei, ej = _kept_graph(c, pot, s)
    label, cyclic = _cyclic_components(n, ei, ej)  # per vertex
    if not cyclic.any() and not _admits_another(s, fixed_ok, ei, ej):
        return s, "unique", None

    # a kept edge outside s, or a pair of s that may be undone
    rivals = np.concatenate([ei[s[ei] != ej], idx[(s != idx) & fixed_ok & fixed_ok[s]]])
    rival = np.isin(label, label[rivals])
    u, v = ei[rival[ei]], ej[rival[ei]]
    k = len(u)
    if cap is not None and k > cap:
        return s, None, None
    read = np.concatenate([c[u, v], c[v, u], np.diagonal(c)[rival]]).tolist()
    scale = max(x.as_integer_ratio()[1] for x in read)
    q = [num * (scale // den) for num, den in map(float.as_integer_ratio, read)]
    qfix = dict(zip(np.flatnonzero(rival).tolist(), q[2 * k :]))
    moves = 2 * (s[u] != v) - (s[u] != u) - (s[v] != v)
    g = nx.Graph()
    edges = zip(u.tolist(), v.tolist(), q[:k], q[k : 2 * k], moves.tolist())
    for i, j, qij, qji, m in edges:
        w = (n + 1) * (qij + qji - qfix[i] - qfix[j]) + m
        if w > 0:  # a matching never gains by the others
            g.add_edge(i, j, weight=w)
    alt = _blossom(g, np.where(rival, idx, s))

    diff = np.flatnonzero(alt != s)
    if not len(diff):
        return s, "unique", None
    if sum(map(Fraction, c[diff, alt[diff]])) == sum(map(Fraction, c[diff, s[diff]])):
        return s, "non-unique", Involution(alt)
    return alt, None, None


def _cyclic_components(n: int, ei: np.ndarray, ej: np.ndarray):
    """A component label per vertex (union-find), and whether the vertex's
    component has a cycle, as many edges as vertices, for the edges (ei, ej)."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for i, j in zip(ei.tolist(), ej.tolist()):
        root[find(i)] = find(j)
    label = np.array([find(v) for v in range(n)], dtype=np.intp)
    cyclic = np.bincount(label[ei], minlength=n) >= np.bincount(label, minlength=n)
    return label, cyclic[label]


def _admits_another(
    s: np.ndarray, fixed_ok: np.ndarray, ei: np.ndarray, ej: np.ndarray
) -> bool:
    """Whether a forest of kept edges (ei, ej), sigma's pairs among them,
    admits an involution other than sigma.

    Another involution differs from sigma along paths alternating between
    sigma's pairs and other kept edges, which end at a fixed point of sigma
    reached by another edge (it gets paired) or at a vertex reached by its
    pair of sigma that may stay fixed. In a forest an alternating walk is a
    path, so the search runs breadth first, all starts at once, over the
    vertices about to take an edge outside sigma, each entered once.
    """
    paired = s != np.arange(len(s))
    if (paired & fixed_ok & fixed_ok[s]).any():
        return True  # a pair undone
    other = s[ei] != ej  # kept edges that are not pairs of sigma, both ways
    src = np.concatenate([ei[other], ej[other]])
    dst = np.concatenate([ej[other], ei[other]])
    front = ~paired | (paired & fixed_ok)[s]
    seen = front.copy()
    while front.any():
        reached = np.zeros(len(s), dtype=bool)
        reached[dst[front[src]]] = True
        if (reached & ~paired).any():
            return True  # ends at a fixed point of sigma, which gets paired
        front = reached[s]  # across sigma's pairs
        if (front & fixed_ok).any():
            return True  # ends at a vertex that stays fixed
        front &= ~seen
        seen |= front
    return False


# ---------------------------------------------------------------------------
# the dual path


def solve(dom: DiscreteDomain, fld: SampledField) -> DualSolution:
    """Best involution, with the assignment bound and a uniqueness verdict.

    Rounds the optimal assignment (_round_cycles). Without an odd cycle that
    meets the bound, and the kept-graph blossom (_settle) only decides
    uniqueness, up to _BLOSSOM_EDGES kept edges. With one, the rounding is
    a start: the blossom, uncapped, returns an exact optimum
    ("kept-graph-exact"), and where that beats the start a second run from
    it decides. The assignment potentials, pot, give the primal its kernel
    (primal_solver.optimal_kernel). solve_matching and solve_brute are the
    oracles it is tested against.
    """
    perm, pot, bound = assignment_relaxation(dom, fld)
    c = pairing(dom, fld)
    start, tight = _round_cycles(c, perm)
    cap = _BLOSSOM_EDGES if tight else None
    sigma, verdict, alt = _settle(c, pot, start, cap)
    if not np.array_equal(sigma, start):  # an optimum that beats the start
        sigma, verdict, alt = _settle(c, pot, sigma, cap)
    value = float(c[np.arange(dom.n), sigma].sum() * dom.cell_measure)
    cert = "assignment-bound-tight" if tight else "kept-graph-exact"
    return DualSolution(Involution(sigma), value, cert, bound, pot, verdict, alt)
