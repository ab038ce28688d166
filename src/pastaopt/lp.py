"""Assortment optimization: an exact top-K rule for cardinality constraints,
a linear program for other totally unimodular constraint sets, and the
enumeration oracle.

Under a single cardinality bound K, the optimal MNL revenue lam* is the
fixed point of lam = sum of the K largest w_j (r_j - lam)^+ divided by the
no-purchase weight, and the optimal assortment is those K items
(Rusmevichientong, Shen & Shmoys 2010). Dinkelbach's iteration reaches it
exactly in a few steps of O(N log N + N K) each.

For any other constraint polytope {gamma in {0,1}^N : A gamma <= b} with
totally unimodular A, maximizing expected revenue is a linear-fractional
program. The classic change of variables

    w_0 = 1 / (1 + sum_j v_j gamma_j),   w_j = v_j gamma_j w_0

with preference scores v_j = exp(x_j . theta) turns it into the LP solved
here; integral vertices make the inverse map gamma_j = w_j / (v_j w_0)
exactly binary, so the optimal assortment is read off the LP solution.
The LP always has the same shape (M + N inequality rows with right-hand
side 0 and the one equality row sum w = 1), and the simplex here builds its
tableau from that shape rather than from a general standard form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import Assortment, Catalog, _stable_weights, as_assortment

__all__ = [
    "ConstraintSet",
    "LpInstance",
    "LpSolution",
    "SimplexError",
    "IntegralityError",
    "cardinality_constraints",
    "build_assortment_lp",
    "solve_lp",
    "recover_assortment",
    "best_assortment",
    "brute_force_best",
]

_FEAS_TOL = 1e-9
_INDICATOR_TOL = 1e-6  # largest distance of a recovered indicator from {0, 1}
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50_000


class SimplexError(RuntimeError):
    """Simplex failed numerically (pivot cap, unbounded ray or residual check)."""


class IntegralityError(RuntimeError):
    """Recovered indicator was not 0/1 within tolerance; signals a bug."""


@dataclass(frozen=True)
class ConstraintSet:
    """Linear inequalities A gamma <= b over binary indicators gamma.

    Coefficients and bounds must be finite integers, so that a totally
    unimodular matrix has integral vertices. The matrix is taken on trust to
    be totally unimodular; the constructors provided here (cardinality)
    always produce one.
    """

    coeffs: np.ndarray
    bounds: np.ndarray
    # K when the set is the single all-ones row sum_j gamma_j <= K with K >= 1
    _cardinality_bound: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        if coeffs.ndim != 2 or bounds.shape != (coeffs.shape[0],):
            raise ValueError("coeffs must be (M, N) with one bound per row")
        for name, values in (("coefficients", coeffs), ("bounds", bounds)):
            if not (np.isfinite(values).all() and np.array_equal(values, np.round(values))):
                raise ValueError(f"constraint {name} must be finite integers, got {values}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "bounds", bounds)
        single = coeffs.shape[0] == 1 and np.all(coeffs == 1.0) and bounds[0] >= 1
        object.__setattr__(self, "_cardinality_bound", int(bounds[0]) if single else None)

    @property
    def n_rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_items(self) -> int:
        return self.coeffs.shape[1]

    def admits(self, members: Iterable[int]) -> bool:
        s = as_assortment(members)
        if s and s[-1] > self.n_items:
            raise ValueError(f"assortment {s} names items outside 1..{self.n_items}")
        gamma = np.zeros(self.n_items)
        gamma[np.asarray(s, dtype=int) - 1] = 1.0
        return bool(np.all(self.coeffs @ gamma <= self.bounds + 1e-12))


def cardinality_constraints(n_items: int, k: int) -> ConstraintSet:
    """At most k of the n items: a single all-ones row with bound k."""
    if not 1 <= k <= n_items:
        raise ValueError(f"cardinality bound {k} out of range for {n_items} items")
    return ConstraintSet(coeffs=np.ones((1, n_items)), bounds=np.array([float(k)]))


@dataclass(frozen=True)
class LpInstance:
    """The revenue LP in variables (w_0, w_1..w_N).

    maximize   sum_j r_j w_j
    subject to sum_j w_j + w_0 = 1
               sum_j (a_ij / v_j) w_j - b_i w_0 <= 0      (constraint rows)
               w_j - v_j w_0 <= 0                         (box rows)
               w >= 0

    a_ub stacks the constraint rows over the box rows; every inequality has
    right-hand side 0. The constraint rows divide by v_j, so at large
    ||theta|| their coefficients span many orders of magnitude and the
    simplex can fail numerically (SimplexError or IntegralityError).
    """

    v: np.ndarray
    objective: np.ndarray
    a_ub: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class LpSolution:
    """w holds (w_0, w_1..w_N); objective is the attained revenue bound."""

    w: np.ndarray
    objective: float


def build_assortment_lp(catalog: Catalog, theta: np.ndarray, cons: ConstraintSet) -> LpInstance:
    """Assemble the LP for the given preference vector and constraint set."""
    if cons.n_items != catalog.n_items:
        raise ValueError("constraint set and catalog disagree on the number of items")
    with np.errstate(over="ignore"):
        v = np.exp(catalog.utilities(theta))
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise ValueError("preference scores exp(x.theta) must be finite and positive")
    n = catalog.n_items
    objective = np.concatenate(([0.0], catalog.revenues))
    cons_rows = np.hstack([-cons.bounds[:, None], cons.coeffs / v[None, :]])
    box_rows = np.hstack([-v[:, None], np.eye(n)])
    return LpInstance(v=v, objective=objective, a_ub=np.vstack([cons_rows, box_rows]))


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]


def _bland_iterate(tableau: np.ndarray, basis: list[int], costs: np.ndarray, allowed: int) -> None:
    """Run Bland's-rule simplex pivots on the tableau until optimal.

    costs covers every tableau column; only columns < allowed may enter the
    basis (phase 2 bars the artificial this way). Both phases minimize over
    a bounded polytope, so an unbounded ray, like the pivot cap, can only
    be a numerical failure: either raises SimplexError.
    """
    m = tableau.shape[0]
    for _ in range(_MAX_PIVOTS):
        y = costs[basis] @ tableau[:, :-1]
        reduced = costs[:allowed] - y[:allowed]
        entering = -1
        for j in range(allowed):
            if reduced[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return
        col = tableau[:, entering]
        leaving, best_ratio = -1, np.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = tableau[i, -1] / col[i]
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and leaving >= 0
                    and basis[i] < basis[leaving]
                ):
                    leaving, best_ratio = i, ratio
        if leaving < 0:
            raise SimplexError("unbounded ray on a bounded polytope; ill-conditioned instance")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise SimplexError("pivot cap exceeded; instance appears ill-conditioned")


def solve_lp(lp: LpInstance) -> LpSolution:
    """Solve the assortment LP and verify primal feasibility of the result.

    Dense two-phase primal simplex with Bland's rule throughout, which the
    zero right-hand sides (heavily degenerate) require for guaranteed
    termination. Each inequality row starts with its slack basic at 0; the
    row sum w = 1 holds the only artificial, which phase 1 drives out. A
    negative bound b_i (an "at least" row) makes w = (1, 0..0) infeasible,
    so phase 1 may take several pivots. Raises ValueError when the
    constraint set admits no assortment, not even the empty one.
    """
    m_ub, n = lp.a_ub.shape
    art = n + m_ub  # column of the artificial; slacks sit in n..art-1
    tableau = np.zeros((m_ub + 1, art + 2))
    tableau[:m_ub, :n] = lp.a_ub
    tableau[:m_ub, n:art] = np.eye(m_ub)
    tableau[m_ub, :n] = tableau[m_ub, art] = tableau[m_ub, -1] = 1.0
    basis = list(range(n, art + 1))

    phase1 = np.zeros(art + 1)
    phase1[art] = 1.0
    _bland_iterate(tableau, basis, phase1, art + 1)
    if art in basis:
        i = basis.index(art)
        if tableau[i, -1] > 1e-8:
            raise ValueError("constraint set admits no assortment")
        # drive the zero-valued artificial out; its row cannot vanish, since
        # the slack columns keep [A_ub I; 1 0] at full row rank
        cols = np.flatnonzero(np.abs(tableau[i, :art]) > _PIVOT_TOL)
        if not cols.size:
            raise SimplexError("equality row vanished; instance appears ill-conditioned")
        _pivot(tableau, i, int(cols[0]))
        basis[i] = int(cols[0])

    phase2 = np.zeros(art + 1)
    phase2[:n] = -lp.objective
    _bland_iterate(tableau, basis, phase2, art)
    x = np.zeros(art + 1)
    x[basis] = tableau[:, -1]
    w = x[:n]
    residual = max(
        float(np.max(lp.a_ub @ w, initial=0.0)),
        abs(float(w.sum()) - 1.0),
        float(-min(0.0, w.min())),
    )
    if residual > _FEAS_TOL:
        raise SimplexError(f"primal residual {residual:.3e} exceeds {_FEAS_TOL}")
    return LpSolution(w=w, objective=float(lp.objective @ w))


def recover_assortment(sol: LpSolution, v: np.ndarray) -> Assortment:
    """Map the LP solution back to a binary assortment via gamma_j = w_j / (v_j w_0).

    Total unimodularity makes every vertex integral, so a gamma_j farther than
    _INDICATOR_TOL from {0, 1} is a solver bug rather than a value to round.
    """
    w0 = float(sol.w[0])
    if w0 <= 1e-12:
        raise IntegralityError(f"degenerate LP solution with w_0 = {w0}")
    gamma = sol.w[1:] / (np.asarray(v, dtype=float) * w0)
    off = np.minimum(np.abs(gamma), np.abs(gamma - 1.0))
    if float(off.max(initial=0.0)) > _INDICATOR_TOL:
        raise IntegralityError(f"non-integral indicator recovered: {gamma}")
    return tuple(int(j + 1) for j in np.flatnonzero(gamma > 0.5))


def _top_k_assortment(
    catalog: Catalog, theta: np.ndarray, k: int, start: Assortment
) -> Assortment:
    """Exact optimum under "at most k items" by Dinkelbach iteration.

    With lam the revenue of the current set S, the k items of largest
    positive gain w_j (r_j - lam) form the best challenger T, and T beats S
    exactly when its gains outweigh those of S, whose gains sum to w0 lam.
    Starting from start (at most k items), move to T until no challenger
    wins: then no assortment of at most k items beats lam, whatever the
    start. Gains are formed without a rounded lam, and only the items that T
    and S do not share are compared, so weights spanning many orders of
    magnitude keep their order. Ties go to the lower index.
    """
    w, w0 = _stable_weights(catalog.utilities(theta))
    r = catalog.revenues
    best = np.zeros(len(w), dtype=bool)
    best[np.asarray(start, dtype=int) - 1] = True
    seen = set()  # guards termination against float ties between two sets
    while True:
        # r_j - lam = (r_j w0 + sum_{i in S} w_i (r_j - r_i)) / (w0 + sum_{i in S} w_i)
        w_best = w[best]
        excess = (r * w0 + (r[:, None] - r[best]) @ w_best) / (w0 + w_best.sum())
        gain = w * excess
        order = np.argsort(-gain, kind="stable")[:k]
        top = np.zeros_like(best)
        top[order[gain[order] > 0]] = True
        key = top.tobytes()
        if gain[top & ~best].sum() <= gain[best & ~top].sum() or key in seen:
            break
        seen.add(key)
        best = top
    return tuple(j + 1 for j in np.flatnonzero(best).tolist())


def best_assortment(
    catalog: Catalog, theta: np.ndarray, cons: ConstraintSet, start: Iterable[int] = ()
) -> Assortment:
    """Revenue-maximizing assortment at theta.

    Cardinality constraints take the exact top-K rule, which stays exact up
    to ||theta|| = 100 at least; its iteration begins from start, so a
    start near the optimum (such as the pick at a nearby theta) saves
    rounds. Every other constraint set is built into the LP, solved, and
    recovered; that route checks start and then ignores it. It breaks down
    numerically at large ||theta|| (from about 10 on), raising SimplexError
    or IntegralityError, because the LP's constraint rows divide by v_j.
    A nonempty start that cons does not admit, or that names an item beyond
    the catalog, raises ValueError.
    """
    if cons.n_items != catalog.n_items:
        raise ValueError("constraint set and catalog disagree on the number of items")
    start = catalog.check_assortment(start)
    k = cons._cardinality_bound
    # the one all-ones row admits exactly the sets of at most k items
    admitted = len(start) <= k if k is not None else not start or cons.admits(start)
    if not admitted:
        raise ValueError(f"start {start} is not admitted by the constraint set")
    if k is not None:
        return _top_k_assortment(catalog, theta, k, start)
    lp = build_assortment_lp(catalog, theta, cons)
    return recover_assortment(solve_lp(lp), lp.v)


def brute_force_best(catalog: Catalog, theta: np.ndarray, cons: ConstraintSet) -> Assortment:
    """Exhaustive argmax of expected revenue over every feasible assortment.

    Testing oracle only; guarded to n_items <= 20. Ties break to the
    lexicographically smallest member tuple.
    """
    n = catalog.n_items
    if n > 20:
        raise ValueError("brute force enumeration is limited to 20 items")
    if cons.n_items != n:
        raise ValueError("constraint set and catalog disagree on the number of items")
    w, w0 = _stable_weights(catalog.utilities(theta))
    rw = catalog.revenues * w
    best_s: Assortment | None = None
    best_v = -np.inf
    for size in range(1, n + 1):
        combos = np.array(list(itertools.combinations(range(n), size)), dtype=int)
        feasible = np.all(
            cons.coeffs[:, combos].sum(axis=2) <= cons.bounds[:, None] + 1e-12, axis=0
        )
        if not feasible.any():
            continue
        combos = combos[feasible]
        values = rw[combos].sum(axis=1) / (w0 + w[combos].sum(axis=1))
        k = int(np.argmax(values))  # first max = lex smallest within a size
        v_k = float(values[k])
        s_k = tuple(int(j + 1) for j in combos[k])
        if v_k > best_v or (v_k == best_v and best_s is not None and s_k < best_s):
            best_s, best_v = s_k, v_k
    if best_s is None:
        raise ValueError("constraint set admits no nonempty assortment")
    return best_s
