"""Sparse recovery of count vectors from level embeddings.

Two solvers: greedy correlation pursuit with a nonnegative least-squares
refit each step, and iterative soft thresholding on the l1 relaxation with
an annealed threshold, which stops once its support holds and the
nonnegative refit of that support fits the measurements. Counts are
nonnegative integers, so an estimate within 0.5 of the truth in every
coordinate rounds to an exact recovery.

The refit is an in-module Lawson-Hanson active-set solve (Lawson & Hanson,
*Solving Least Squares Problems*, 1974, ch. 23; the algorithm scipy's
``nnls`` implements) on the normal equations of the support columns, so
recovery needs numpy only. Greedy pursuit grows those normal equations by
one row per step instead of rebuilding them.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counts import level_dimension
from .schema import AttributeSchema
from .sensing import MATERIALIZE_CAP, LevelOperator, build_sensing


@dataclass
class RecoveryResult:
    c_hat: np.ndarray
    residual_norm: float
    support: tuple
    converged: bool
    method: str
    iterations: int


_EPS = np.finfo(np.float64).eps
RESIDUAL_TOL = 1e-9  # converged: ||f - A c|| <= RESIDUAL_TOL * max(||f||, 1)


def _result(f, residual, c_hat, method: str, iterations: int) -> RecoveryResult:
    """Either solver's result; ``converged`` means the residual f - A c_hat
    is within ``RESIDUAL_TOL`` of max(||f||, 1)."""
    res_norm = float(np.linalg.norm(residual))
    return RecoveryResult(
        c_hat=c_hat,
        residual_norm=res_norm,
        support=tuple(int(s) for s in np.flatnonzero(c_hat > 0)),
        converged=bool(res_norm <= RESIDUAL_TOL * max(np.linalg.norm(f), 1.0)),
        method=method,
        iterations=iterations,
    )


def _nnls_gram(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x >= 0 minimizing ||A x - f|| from the normal equations G = A^T A,
    b = A^T f, by the Lawson-Hanson active-set method.

    An unconstrained solve whose coefficients all clear the tolerance is
    already optimal (the KKT conditions hold with no active bound), which is
    the common case when the support holds the true counts. Otherwise, or
    when G is singular, the passive-set loop runs from x = 0. It lets a
    column in while its gradient entry clears the round-off of b - G x, so
    a b that is small next to G (a near-cancelling A^T f) still moves x.
    """
    n = b.shape[0]
    if n == 0:
        return np.zeros(0)
    gmax = float(abs(G).max())
    try:
        x = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        pass
    else:
        if x.min() > 10 * n * _EPS * gmax:
            return x
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = b.copy()  # the negative gradient A^T (f - A x)
    bmax = float(abs(b).max())
    for _ in range(3 * n):
        free = ~passive & (w > 10 * n * _EPS * (gmax * x.max() + bmax))
        if not free.any():
            break
        j = int(np.argmax(np.where(free, w, -np.inf)))
        passive[j] = True
        s = _passive_lstsq(G, b, passive)
        if s[j] <= 0:  # round-off let in a column that gives no descent
            passive[j] = False
            w[j] = 0.0
            continue
        while np.any(s[passive] <= 0):
            # step from x towards s until the first passive coefficient hits 0
            P = np.flatnonzero(passive)
            blocked = P[s[P] <= 0]
            ratios = x[blocked] / (x[blocked] - s[blocked])
            x += ratios.min() * (s - x)
            x[blocked[np.argmin(ratios)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            s = _passive_lstsq(G, b, passive)
        x = s
        w = b - G @ x
    return x


def _passive_lstsq(G, b, passive):
    """Least squares on the passive coefficients, zero elsewhere: lstsq, not
    solve, since a column that depends on the others may have entered."""
    s = np.zeros(b.shape[0])
    P = np.flatnonzero(passive)
    if P.size:
        s[P] = np.linalg.lstsq(G[np.ix_(P, P)], b[P], rcond=None)[0]
    return s


def omp_recover(f: np.ndarray, op: LevelOperator, sparsity: int) -> RecoveryResult:
    """Greedy pursuit: pick the best-correlated column, NNLS-refit, repeat
    until the residual converges (``RESIDUAL_TOL``) or the budget of
    min(sparsity, columns) picks is spent."""
    rows, ncols = op.shape
    f = np.asarray(f, dtype=np.float64)
    residual = f.copy()
    support: list[int] = []
    norms = op.column_norms()
    safe = np.where(norms > 0, norms, 1.0)
    coef = np.zeros(0)
    fnorm = max(np.linalg.norm(f), 1.0)
    budget = max(min(int(sparsity), ncols), 0)
    # the support's columns, their Gram matrix and A^T f, one more each step
    A_s = np.empty((rows, budget), order="F")
    G = np.empty((budget, budget))
    Atf = np.empty(budget)
    it = 0
    for it in range(1, budget + 1):
        if np.linalg.norm(residual) <= RESIDUAL_TOL * fnorm:
            break
        corr = np.abs(op.correlations(residual)) / safe
        corr[support] = -np.inf
        # Rademacher columns make exact ties common; take the lowest index
        # among them, not whichever one summation round-off favours
        pick = int(np.argmax(corr >= corr.max() * (1 - 1e-9)))
        if not np.isfinite(corr[pick]):
            break
        k = len(support)
        support.append(pick)
        A_s[:, k] = op.column(pick)
        col = A_s[:, k]
        G[k, :k] = G[:k, k] = col @ A_s[:, :k]
        G[k, k] = col @ col
        Atf[k] = col @ f
        coef = _nnls_gram(G[: k + 1, : k + 1], Atf[: k + 1])
        residual = f - A_s[:, : k + 1] @ coef
    c_hat = np.zeros(ncols)
    for s, x in zip(support, coef):
        c_hat[s] = x
    return _result(f, residual, c_hat, "omp", it)


ISTA_PHASES = 12  # of the annealed threshold schedule, sharing max_iter
ISTA_ANNEAL = 0.5
ISTA_SUPPORT_THRESHOLD = 0.25


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def ista_recover(f: np.ndarray, op: LevelOperator, max_iter: int = 2000) -> RecoveryResult:
    """Soft thresholding on the l1 program, its threshold halved in each of
    ``ISTA_PHASES`` phases of ``max_iter // ISTA_PHASES`` iterations.

    At the end of a phase the support is the set of coordinates above
    ``ISTA_SUPPORT_THRESHOLD``. Once it equals the previous phase's support
    (an empty one included), it is refit by nonnegative least squares, and
    the run stops if that refit fits f to ``RESIDUAL_TOL``. Otherwise the
    last phase's support is refit. ``iterations`` counts the iterations
    run. The operator must be materializable; huge levels should use the
    greedy solver instead.
    """
    if max_iter < ISTA_PHASES:
        raise ValueError(f"ista max_iter {max_iter} is below one iteration per phase "
                         f"({ISTA_PHASES})")
    A = op.materialize().astype(np.float64)
    f = np.asarray(f, dtype=np.float64)
    if A.shape[1] == 0:
        return _result(f, f, np.zeros(0), "ista", 0)
    L = np.linalg.norm(A, 2) ** 2
    if L == 0:
        L = 1.0
    step = 1.0 / L
    x = np.zeros(A.shape[1])
    mu = 0.9 * float(np.max(np.abs(A.T @ f))) if f.any() else 0.0
    fnorm = max(np.linalg.norm(f), 1.0)
    it = 0
    per_phase = max_iter // ISTA_PHASES
    previous = None
    for phase in range(1, ISTA_PHASES + 1):
        for _ in range(per_phase):
            it += 1
            grad = A.T @ (A @ x - f)
            x = _soft(x - step * grad, step * mu)
        mu *= ISTA_ANNEAL
        support = np.flatnonzero(np.abs(x) > ISTA_SUPPORT_THRESHOLD)
        if phase == ISTA_PHASES or (previous is not None
                                    and np.array_equal(support, previous)):
            c_hat = np.zeros(A.shape[1])
            if support.size:
                A_S = A[:, support]
                c_hat[support] = _nnls_gram(A_S.T @ A_S, A_S.T @ f)
            residual = f - A @ c_hat
            if np.linalg.norm(residual) <= RESIDUAL_TOL * fnorm:
                break
        previous = support
    return _result(f, residual, c_hat, "ista", it)


def sparse_recover(f, op: LevelOperator, method: str = "omp", *,
                   sparsity: int | None = None, max_iter: int = 2000) -> RecoveryResult:
    """Recover c from f = A c: greedy pursuit with a budget of ``sparsity``
    picks, or soft thresholding in ``max_iter`` iterations; each method
    ignores the other's parameter."""
    if method == "omp":
        if sparsity is None:
            raise ValueError("omp needs a sparsity budget")
        return omp_recover(f, op, sparsity)
    if method == "ista":
        return ista_recover(f, op, max_iter)
    raise ValueError(f"unknown recovery method {method!r}")


# -- Monte-Carlo experiment ----------------------------------------------------


_CHOICES = {"method": ("omp", "ista")}
# the least value of each integer key, and of every item of a list key
_LEAST = {"r_values": 1, "k_values": 2, "n_values": 1, "s_values": 0, "trials": 1,
          "seed": 0, "entry_low": 1, "max_iter": ISTA_PHASES}


@dataclass(frozen=True)
class RecoveryConfig:
    r_values: tuple = (100, 200, 400, 800)
    k_values: tuple = (40,)
    n_values: tuple = (2,)
    s_values: tuple = (5,)
    trials: int = 100
    method: str = "omp"
    seed: int = 0
    entry_low: int = 1
    entry_high: int = 4
    max_iter: int = 2000  # thresholding-solver iteration cap

    @classmethod
    def from_dict(cls, doc: dict) -> "RecoveryConfig":
        """Build from a JSON object; a ValueError names the first unknown key,
        wrongly typed value, unknown ``method``, empty list or value out of
        range (``_LEAST``, and ``entry_low <= entry_high``)."""
        if not isinstance(doc, dict):
            raise ValueError("recovery config must be a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown recovery config keys: {sorted(unknown)}")
        for key, value in doc.items():
            default = cls.__dataclass_fields__[key].default
            if isinstance(default, tuple):
                want = "a list of integers"
                ok = isinstance(value, list) and all(type(v) is int for v in value)
            elif isinstance(default, int):
                want, ok = "an integer", type(value) is int
            else:
                want, ok = f"one of {_CHOICES[key]}", value in _CHOICES[key]
            if not ok:
                raise ValueError(f"recovery config {key!r} must be {want}")
        cfg = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
        for key, least in _LEAST.items():
            values = getattr(cfg, key)
            values = values if isinstance(values, tuple) else (values,)
            if not values:
                raise ValueError(f"recovery config {key!r} must not be empty")
            if min(values) < least:
                raise ValueError(f"recovery config {key!r} must be at least {least}")
        if cfg.entry_high < cfg.entry_low:
            raise ValueError("recovery config 'entry_high' must be at least 'entry_low'")
        return cfg


@dataclass
class RecoveryCell:
    r: int
    k: int
    n: int
    s: int
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


@lru_cache(maxsize=64)
def _single_attribute_schema(k: int) -> AttributeSchema:
    return AttributeSchema.from_pairs(
        [("value", tuple(f"v{i}" for i in range(k)))], name=f"synthetic-k{k}"
    )


def run_trial(r: int, k: int, n: int, s: int, cfg: RecoveryConfig, rng) -> bool:
    """One draw of cell (r, k, n, s) under ``cfg``: sample sensing + sparse
    integer counts, measure, recover."""
    schema = _single_attribute_schema(k)
    dim = level_dimension(schema, n)
    if s > dim:
        return False
    sensing = build_sensing(schema, r, seed=int(rng.integers(2**32)), scale=r**-0.5)
    op = sensing.operator(n)
    c = np.zeros(dim)
    if s:
        support = rng.choice(dim, size=s, replace=False)
        c[support] = rng.integers(cfg.entry_low, cfg.entry_high + 1, size=s)
    f = op.matvec(c)
    result = sparse_recover(f, op, method=cfg.method, sparsity=s, max_iter=cfg.max_iter)
    true_support = set(np.nonzero(c)[0])
    found_support = set(np.nonzero(np.abs(result.c_hat) > 0.25)[0])
    return found_support == true_support and float(np.max(np.abs(result.c_hat - c))) < 0.5


def recovery_experiment(cfg: RecoveryConfig):
    """Success-rate grid over (r, k, n, s), one process.

    Every trial draws from ``default_rng([seed, r, k, n, s, t])``, so a
    cell's count does not depend on the rest of the grid. An ISTA cell over
    ``MATERIALIZE_CAP`` raises a ``ValueError`` before any trial runs.
    """
    if cfg.method == "ista":
        for r, k, n in itertools.product(cfg.r_values, cfg.k_values, cfg.n_values):
            entries = r * level_dimension(_single_attribute_schema(k), n)
            if entries > MATERIALIZE_CAP:
                raise ValueError(f"ista cell r={r} k={k} n={n} needs a level operator of "
                                 f"{entries} entries, over cap {MATERIALIZE_CAP}")
    cells: list[RecoveryCell] = []
    for r, k, n, s in itertools.product(cfg.r_values, cfg.k_values, cfg.n_values,
                                        cfg.s_values):
        wins = sum(run_trial(r, k, n, s, cfg, np.random.default_rng([cfg.seed, r, k, n, s, t]))
                   for t in range(cfg.trials))
        cells.append(RecoveryCell(r=r, k=k, n=n, s=s, trials=cfg.trials, successes=wins))
    return cells


CSV_COLUMNS = ("r", "k", "n", "s", "trials", "successes")


def write_cells_csv(path, cells) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for c in cells:
            writer.writerow([c.r, c.k, c.n, c.s, c.trials, c.successes])


def summarize_cells(cells) -> str:
    lines = ["r      k    n  s   rate"]
    for c in cells:
        lines.append(f"{c.r:<6d} {c.k:<4d} {c.n:<2d} {c.s:<3d} {c.rate:.3f}")
    return "\n".join(lines)
