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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Assortment, Catalog, as_assortment

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
_PIVOT_TOL = 1e-10


class SimplexError(RuntimeError):
    """Simplex failed numerically (iteration cap or residual check)."""


class IntegralityError(RuntimeError):
    """Recovered indicator was not 0/1 within tolerance; signals a bug."""


@dataclass(frozen=True)
class ConstraintSet:
    """Linear inequalities A gamma <= b over binary indicators gamma.

    The matrix is taken on trust to be totally unimodular; the constructors
    provided here (cardinality) always produce one.
    """

    coeffs: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        if coeffs.ndim != 2 or bounds.shape != (coeffs.shape[0],):
            raise ValueError("coeffs must be (M, N) with one bound per row")
        if not np.array_equal(coeffs, np.round(coeffs)):
            raise ValueError("constraint coefficients must be integers")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_items(self) -> int:
        return self.coeffs.shape[1]

    def admits(self, members: Iterable[int]) -> bool:
        s = as_assortment(members)
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

    The upper box rows arrive multiplied through by v_j so no coefficient
    needs a division by a potentially tiny preference score.
    """

    v: np.ndarray
    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class LpSolution:
    """w holds (w_0, w_1..w_N); objective is the attained revenue bound."""

    w: np.ndarray
    objective: float
    status: str


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
    a_eq = np.ones((1, n + 1))
    b_eq = np.array([1.0])
    cons_rows = np.hstack([-cons.bounds[:, None], cons.coeffs / v[None, :]])
    box_rows = np.hstack([-v[:, None], np.eye(n)])
    return LpInstance(
        v=v,
        objective=objective,
        a_ub=np.vstack([cons_rows, box_rows]),
        b_ub=np.zeros(cons.n_rows + n),
        a_eq=a_eq,
        b_eq=b_eq,
    )


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]


def _bland_iterate(
    tableau: np.ndarray, basis: list[int], costs: np.ndarray, allowed: int, max_pivots: int
) -> str:
    """Run Bland's-rule simplex pivots on the tableau until optimal.

    costs covers every tableau column; only columns < allowed may enter the
    basis (phase 2 bars the artificials this way). Returns "optimal" or
    "unbounded"; raises SimplexError at the pivot cap.
    """
    m = tableau.shape[0]
    for _ in range(max_pivots):
        y = costs[basis] @ tableau[:, :-1]
        reduced = costs[:allowed] - y[:allowed]
        entering = -1
        for j in range(allowed):
            if reduced[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
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
            return "unbounded"
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise SimplexError("pivot cap exceeded; instance appears ill-conditioned")


def solve_standard_form(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_pivots: int = 50_000,
) -> tuple[np.ndarray, str, float]:
    """Minimize c.x over {A_ub x <= b_ub, A_eq x = b_eq, x >= 0}.

    Dense two-phase primal simplex with Bland's rule throughout, which the
    zero right-hand sides of the assortment LP (heavily degenerate) require
    for guaranteed termination. Returns (x, status, objective).
    """
    n = len(c)
    rows = []
    slack_sign = []  # +1 slack, -1 surplus, 0 none (equality)
    for a, b in zip(a_ub, b_ub):
        if b >= 0:
            rows.append((a, b, 1))
        else:
            rows.append((-a, -b, -1))
    for a, b in zip(a_eq, b_eq):
        rows.append((a, b, 0) if b >= 0 else (-a, -b, 0))
    m = len(rows)
    n_slack = sum(1 for _, _, kind in rows if kind != 0)
    # artificials: equality rows and surplus (>=) rows lack a ready basis column
    art_rows = [i for i, (_, _, kind) in enumerate(rows) if kind != 1]
    n_art = len(art_rows)
    total = n + n_slack + n_art
    tableau = np.zeros((m, total + 1))
    basis = [-1] * m
    si = 0
    ai = 0
    for i, (a, b, kind) in enumerate(rows):
        tableau[i, :n] = a
        tableau[i, -1] = b
        if kind != 0:
            tableau[i, n + si] = float(kind)
            if kind == 1:
                basis[i] = n + si
            si += 1
        if kind != 1:
            tableau[i, n + n_slack + ai] = 1.0
            basis[i] = n + n_slack + ai
            ai += 1

    if n_art:
        phase1 = np.zeros(total)
        phase1[n + n_slack :] = 1.0
        status = _bland_iterate(tableau, basis, phase1, total, max_pivots)
        if status != "optimal":
            raise SimplexError("phase 1 did not terminate at an optimum")
        if float(phase1[basis] @ tableau[:, -1]) > 1e-8:
            return np.zeros(n), "infeasible", np.nan
        # drive zero-valued artificials out of the basis; drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + n_slack:
                pivot_col = next(
                    (j for j in range(n + n_slack) if abs(tableau[i, j]) > _PIVOT_TOL), -1
                )
                if pivot_col < 0:
                    keep[i] = False
                else:
                    _pivot(tableau, i, pivot_col)
                    basis[i] = pivot_col
        if not keep.all():
            tableau = tableau[keep]
            basis = [b for b, k in zip(basis, keep) if k]

    phase2 = np.zeros(total)
    phase2[:n] = c
    status = _bland_iterate(tableau, basis, phase2, n + n_slack, max_pivots)
    if status == "unbounded":
        return np.zeros(n), "unbounded", -np.inf
    x = np.zeros(total)
    x[basis] = tableau[:, -1]
    return x[:n], "optimal", float(c @ x[:n])


def solve_lp(lp: LpInstance, max_pivots: int = 50_000) -> LpSolution:
    """Solve the assortment LP and verify primal feasibility of the result."""
    w, status, neg_obj = solve_standard_form(
        -lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq, max_pivots=max_pivots
    )
    if status != "optimal":
        return LpSolution(w=w, objective=np.nan, status=status)
    residual = max(
        float(np.max(lp.a_ub @ w - lp.b_ub, initial=0.0)),
        float(np.max(np.abs(lp.a_eq @ w - lp.b_eq))),
        float(-min(0.0, w.min())),
    )
    if residual > _FEAS_TOL:
        raise SimplexError(f"primal residual {residual:.3e} exceeds {_FEAS_TOL}")
    return LpSolution(w=w, objective=-neg_obj, status="optimal")


def recover_assortment(sol: LpSolution, v: np.ndarray, atol: float = 1e-6) -> Assortment:
    """Map the LP solution back to a binary assortment via gamma_j = w_j / (v_j w_0).

    Total unimodularity makes every vertex integral, so any gamma_j farther
    than atol from {0, 1} is treated as a solver bug rather than rounded.
    """
    if sol.status != "optimal":
        raise ValueError(f"cannot recover an assortment from status {sol.status!r}")
    w0 = float(sol.w[0])
    if w0 <= 1e-12:
        raise IntegralityError(f"degenerate LP solution with w_0 = {w0}")
    gamma = sol.w[1:] / (np.asarray(v, dtype=float) * w0)
    off = np.minimum(np.abs(gamma), np.abs(gamma - 1.0))
    if float(off.max(initial=0.0)) > atol:
        raise IntegralityError(f"non-integral indicator recovered: {gamma}")
    return tuple(int(j + 1) for j in np.flatnonzero(gamma > 0.5))


def _shifted_weights(catalog: Catalog, theta: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(u_j - m) for every item and the no-purchase weight exp(-m),
    m = max(0, max u): revenue ratios are invariant to the shared shift and
    every weight stays in (0, 1] even for extreme theta."""
    u = catalog.utilities(theta)
    shift = max(0.0, float(u.max()))
    return np.exp(u - shift), float(np.exp(-shift))


def _cardinality_bound(cons: ConstraintSet) -> int | None:
    """K when cons is the single all-ones row sum_j gamma_j <= K with K >= 1."""
    if cons.n_rows == 1 and np.all(cons.coeffs == 1.0) and cons.bounds[0] >= 1:
        return int(np.floor(cons.bounds[0]))
    return None


def _top_k_assortment(catalog: Catalog, theta: np.ndarray, k: int) -> Assortment:
    """Exact optimum under "at most k items" by Dinkelbach iteration.

    With lam the revenue of the current set S, the k items of largest
    positive gain w_j (r_j - lam) form the best challenger T, and T beats S
    exactly when its gains outweigh those of S, whose gains sum to w0 lam.
    Starting from the empty set, move to T until no challenger wins: then no
    assortment of at most k items beats lam. Gains are formed without a
    rounded lam, and only the items that T and S do not share are compared,
    so weights spanning many orders of magnitude keep their order. Ties go
    to the lower index.
    """
    w, w0 = _shifted_weights(catalog, theta)
    r = catalog.revenues
    best = np.zeros(len(w), dtype=bool)
    seen = set()  # guards termination against float ties between two sets
    while True:
        # r_j - lam = (r_j w0 + sum_{i in S} w_i (r_j - r_i)) / (w0 + sum_{i in S} w_i)
        excess = (r * w0 + (r[:, None] - r[best]) @ w[best]) / (w0 + w[best].sum())
        gain = w * excess
        order = np.argsort(-gain, kind="stable")[:k]
        top = np.zeros_like(best)
        top[order[gain[order] > 0]] = True
        key = top.tobytes()
        if gain[top & ~best].sum() <= gain[best & ~top].sum() or key in seen:
            break
        seen.add(key)
        best = top
    return tuple(int(j) + 1 for j in np.flatnonzero(best))


def best_assortment(catalog: Catalog, theta: np.ndarray, cons: ConstraintSet) -> Assortment:
    """Revenue-maximizing assortment at theta.

    Cardinality constraints take the exact top-K rule; every other
    constraint set is built into the LP, solved, and recovered.
    """
    if cons.n_items != catalog.n_items:
        raise ValueError("constraint set and catalog disagree on the number of items")
    k = _cardinality_bound(cons)
    if k is not None:
        return _top_k_assortment(catalog, theta, k)
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
    w, w0 = _shifted_weights(catalog, theta)
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
