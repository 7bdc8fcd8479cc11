"""Regularized linear models (logistic / least squares) and ranking metrics.

Fitting is a deterministic damped Newton solve with Armijo backtracking
on the penalized objective; the accepted step never increases the
objective. Each Newton step adds the penalty to the loss Hessian and
solves with one LU factorization (least squares when it is singular).
The penalty is either the squared l2 norm (smooth, default) or the plain
l2 norm. A plain-l2 fit starts at (0, b0), the best intercept-only point;
when the loss gradient's weight part is within lam there, that point is
the exact optimum and the fit stops. Otherwise one backtracked step along
the minimum-norm subgradient leaves w = 0 below every intercept-only
objective, so no later iterate comes back to w = 0, where the penalty is
not differentiable. The intercept is never penalized. A fit has converged
when the norm of its minimum-norm subgradient is at most ``GRAD_TOL``, one
absolute tolerance for every fit; ``MAX_ITER`` caps the Newton steps.
Each logistic evaluation takes one exponential, exp(-|z|), for both the
loss and the sigmoid, and a path computes every logistic Hessian's
weighted rows in one workspace, allocated once per ``fit_path`` call.

``fit_path`` fits a whole lambda grid on one matrix and does what does not
depend on lambda once: the checks, the start point and the loss Hessian
there, which least squares keeps for every step. When rows are well
short of features (``_row_space``) it fits in the row space of X, from
one QR for the grid. ``fit`` is its one-lambda case.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

TASKS = ("logistic", "least-squares")
PENALTIES = ("squared-l2", "unsquared-l2")
GRAD_TOL = 1e-8
MAX_ITER = 2000


class DegenerateLabels(ValueError):
    pass


class ModelFormatError(ValueError):
    """A saved model document that is not a model."""


@dataclass
class FitReport:
    iterations: int = 0
    objective: float = float("nan")
    grad_norm: float = float("nan")
    converged: bool = False


# each fit_report field's JSON types and what its error asks for; NaN is a
# number, which to_dict writes for a model that no fit made
_REPORT_FIELDS = {"iterations": ((int,), "an integer >= 0"),
                  "objective": ((int, float), "a number"),
                  "grad_norm": ((int, float), "a number"),
                  "converged": ((bool,), "true or false")}


@dataclass
class LinearModel:
    weights: np.ndarray
    intercept: float
    task: str
    lam: float
    penalty: str
    report: FitReport = field(default_factory=FitReport)
    manifest_hash: str | None = None

    def decision(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "task": self.task,
            "lambda": self.lam,
            "penalty": self.penalty,
            "manifest_hash": self.manifest_hash,
            "fit_report": {
                "iterations": self.report.iterations,
                "objective": self.report.objective,
                "grad_norm": self.report.grad_norm,
                "converged": self.report.converged,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearModel":
        """The model a :meth:`to_dict` document holds; ModelFormatError names
        the first field that is missing or wrong."""
        if not isinstance(doc, dict):
            raise ModelFormatError("a model must be a JSON object")
        weights = doc.get("weights")
        if not (isinstance(weights, list) and all(type(v) in (int, float) for v in weights)):
            raise ModelFormatError("model 'weights' must be a list of numbers")
        # NaN, the infinities and integers past float64's range are not finite
        if not all(abs(v) <= sys.float_info.max for v in weights):
            raise ModelFormatError("model 'weights' must be finite")
        for key in ("intercept", "lambda"):
            if type(doc.get(key)) not in (int, float):
                raise ModelFormatError(f"model {key!r} must be a number")
        if not abs(doc["intercept"]) <= sys.float_info.max:
            raise ModelFormatError("model 'intercept' must be finite")
        if not 0 <= doc["lambda"] <= sys.float_info.max:
            raise ModelFormatError("model 'lambda' must be finite and >= 0")
        for key, choices in (("task", TASKS), ("penalty", PENALTIES)):
            if doc.get(key) not in choices:
                raise ModelFormatError(f"model {key!r} must be one of {choices}")
        report = doc.get("fit_report", {})
        if not isinstance(report, dict):
            raise ModelFormatError("model 'fit_report' must be a JSON object")
        for key, value in report.items():
            if key not in _REPORT_FIELDS:
                raise ModelFormatError(f"model 'fit_report' has an unknown field {key!r}")
            types, wanted = _REPORT_FIELDS[key]
            if type(value) not in types or key == "iterations" and value < 0:
                raise ModelFormatError(f"model 'fit_report' field {key!r} must be {wanted}")
        rep = FitReport(**report)
        return cls(
            weights=np.asarray(doc["weights"], dtype=np.float64),
            intercept=float(doc["intercept"]),
            task=doc["task"],
            lam=float(doc["lambda"]),
            penalty=doc["penalty"],
            report=rep,
            manifest_hash=doc.get("manifest_hash"),
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearModel":
        return cls.from_dict(json.loads(text))


def _sigmoid(z, e=None):
    """1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|) (passed in or
    computed); -|z| is taken as min(z, -z), which keeps a NaN's sign."""
    if e is None:
        e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _objective_and_grad(theta, X, y, task, lam, penalty):
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    n = X.shape[0]
    if task == "logistic":
        # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), x = (1 - 2y) z, and |x| = |z|
        e = np.exp(np.minimum(z, -z))
        x = (1.0 - 2.0 * y) * z
        loss = float(np.add.reduce(np.where(x > 0, x, 0.0) + np.log1p(e)) / n)
        resid = _sigmoid(z, e) - y
    else:
        resid = z - y
        loss = float(0.5 * (np.add.reduce(resid * resid) / n))
    grad = np.empty(theta.size)
    np.matmul(X.T, resid, out=grad[:-1])
    grad[:-1] /= n
    grad[-1] = np.add.reduce(resid) / n

    wnorm = math.sqrt(w @ w)
    if penalty == "squared-l2":
        loss += lam * wnorm ** 2
        grad[:-1] += 2.0 * lam * w
    else:
        loss += lam * wnorm
        if wnorm > 0:
            grad[:-1] += lam * w / wnorm
    return loss, grad


def _loss_hessian(theta, X1, task, work):
    """Hessian of the mean loss at theta, with X1 = [X, 1] and ``work`` a buffer
    of its shape. Least squares has the same one at every theta."""
    if task == "logistic":
        p = _sigmoid(X1 @ theta)
        Xs = np.multiply(X1, np.sqrt(p * (1.0 - p))[:, None], out=work)
        H = Xs.T @ Xs
    else:
        H = X1.T @ X1
    H /= X1.shape[0]
    return H


def _newton_direction(theta, grad, H, lam, penalty):
    """Newton direction -H^-1 g, from one LU solve, with H the loss Hessian at
    theta, which it adds the penalty to in place. Unsquared-l2 iterates never
    sit at w = 0 (see ``fit_path``)."""
    k = theta.size - 1
    if penalty == "squared-l2":
        H.ravel()[: k * (k + 2): k + 2] += 2.0 * lam  # the diagonal of H[:-1, :-1]
    else:  # lam / ||w|| * (I - u u^T), u = w / ||w||; uu holds u u^T - I
        w = theta[:-1]
        wnorm = math.sqrt(w @ w)
        uu = np.outer(w / wnorm, w / wnorm)
        uu.ravel()[:: k + 1] -= 1.0
        H[:-1, :-1] -= lam / wnorm * uu
    try:
        d = -np.linalg.solve(H, grad)
    except np.linalg.LinAlgError:  # singular Hessian: least-squares solution
        d = -np.linalg.lstsq(H, grad, rcond=None)[0]
    return d if float(grad @ d) < 0 else -grad


def _leave_zero(theta, grad, X1, task, lam):
    """Step off w = 0 for the plain l2 norm: the direction -s along the
    minimum-norm subgradient s = (g_w (1 - lam / ||g_w||), 0), the true slope
    -||s||^2 (``grad @ d`` leaves out the penalty's +lam ||d_w||) and the
    Cauchy step length of the quadratic model. A slope of 0 means w = 0 is
    optimal."""
    gw = grad[:-1]
    gnorm = math.sqrt(gw @ gw)
    if gnorm <= lam:
        return np.zeros_like(theta), 0.0, 0.0
    d = np.r_[-gw * (1.0 - lam / gnorm), 0.0]
    D = 1.0
    if task == "logistic":
        p = _sigmoid(X1 @ theta)
        D = p * (1.0 - p)
    slope = -float(d @ d)
    return d, slope, -slope / float(np.add.reduce(D * (X1 @ d) ** 2) / X1.shape[0])


def _grad_norm(theta, grad, lam, penalty) -> float:
    """Norm of the minimum-norm subgradient; for the plain l2 norm at w = 0
    the loss gradient's weight part shrinks by lam (to zero inside the ball)."""
    if penalty == "squared-l2" or theta[:-1].any():
        return math.sqrt(grad @ grad)
    return float(np.hypot(max(math.sqrt(grad[:-1] @ grad[:-1]) - lam, 0.0), grad[-1]))


def _row_space(n: int, d: int) -> bool:
    """Whether ``fit_path`` fits in the row space of an n x d matrix.

    A Newton step costs ~2 n d^2 + 2 d^3/3 flops in the primal and ~8 n^3/3
    in the row space, which meet at n = d; the row space also pays ~4 d n^2
    once for the QR and its Q. Measured on one BLAS thread, a single fit
    (~3 steps) breaks even near n = 0.75 d and a ``LAMBDA_GRID`` path (~16
    steps) near n = 0.95 d. The rule reads the shape only, so a path and
    its one-lambda fits agree bit for bit.
    """
    return n < 0.8 * d


def fit_path(
    X: np.ndarray,
    y: np.ndarray,
    lams,
    task: str = "logistic",
    penalty: str = "squared-l2",
) -> list[LinearModel]:
    """One model per lambda in ``lams``, each exactly as ``fit`` gives it alone,
    in at most ``MAX_ITER`` Newton steps per lambda.

    The lambda-independent work is done once: the input checks, the
    intercept column, the start point with its objective and gradient (the
    penalty and its gradient are 0 at w = 0 for every lambda) and the loss
    Hessian there, which least squares keeps for every step.

    With rows well short of features (``_row_space``): both penalties depend
    on w only through ||w|| and the loss only through X w, so the optimum
    lies in the row space of X. One reduced QR, X^T = Q R, turns the fit
    into one over Z = R^T with n columns, and w = Q a. As Q has orthonormal
    columns, the gradient norms, and so ``GRAD_TOL``, mean the same in both
    spaces.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    lams = tuple(lams)
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}")
    if penalty not in PENALTIES:
        raise ValueError(f"penalty must be one of {PENALTIES}")
    if not all(0.0 <= lam < np.inf for lam in lams):
        raise ValueError("lambda must be finite and >= 0")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite rows")
    if not np.isfinite(y).all():
        raise ValueError("labels contain non-finite values")
    if task == "logistic":
        classes = np.unique(y)
        if not np.isin(classes, (0.0, 1.0)).all():
            raise ValueError("logistic task needs labels in {0, 1}")
        if classes.size < 2:
            raise DegenerateLabels("labels contain a single class")

    Q = None
    if _row_space(*X.shape):
        Q, R = np.linalg.qr(X.T)
        X = R.T
    X1 = np.hstack([X, np.ones((X.shape[0], 1))])
    theta0 = np.zeros(X.shape[1] + 1)
    if penalty == "unsquared-l2":  # (0, b0) minimizes the objective over w = 0
        ybar = float(y.mean())
        theta0[-1] = np.log(ybar / (1.0 - ybar)) if task == "logistic" else ybar
    start = theta0, *_objective_and_grad(theta0, X, y, task, 0.0, penalty)
    # the weighted rows of every logistic Hessian, in X1's memory order
    work = np.empty_like(X1) if task == "logistic" else None
    # an unsquared-l2 logistic fit leaves its start along the subgradient,
    # with no Hessian
    H0 = (_loss_hessian(theta0, X1, task, work)
          if task == "least-squares" or penalty == "squared-l2" else None)
    models = []
    for lam in lams:
        theta, report = _newton(X, X1, y, task, lam, penalty, start, H0, work)
        models.append(LinearModel(
            weights=theta[:-1].copy() if Q is None else Q @ theta[:-1],
            intercept=float(theta[-1]),
            task=task,
            lam=lam,
            penalty=penalty,
            report=report,
        ))
    return models


def _newton(X, X1, y, task, lam, penalty, start, H0, work):
    """Newton steps with backtracking from ``start`` = (theta, objective,
    gradient), with H0 the loss Hessian there; returns theta and its report."""
    theta, obj, grad = start
    report = FitReport()
    for it in range(1, MAX_ITER + 1):
        if _grad_norm(theta, grad, lam, penalty) <= GRAD_TOL:
            break
        if penalty == "squared-l2" or theta[:-1].any():
            # least squares has one Hessian, logistic shares the start's: copy it
            H = (H0.copy() if task == "least-squares" or theta is start[0]
                 else _loss_hessian(theta, X1, task, work))
            d = _newton_direction(theta, grad, H, lam, penalty)
            slope, step = float(grad @ d), 1.0
        else:
            d, slope, step = _leave_zero(theta, grad, X1, task, lam)
            if slope == 0.0:  # w = 0 is optimal
                break
        report.iterations = it
        for _ in range(80):
            cand = theta + step * d
            cand_obj, cand_grad = _objective_and_grad(cand, X, y, task, lam, penalty)
            if cand_obj <= obj + 1e-4 * step * slope:
                break
            step *= 0.5
        else:  # step underflow: no descent direction left at this precision
            break
        theta, obj, grad = cand, cand_obj, cand_grad
    report.objective = obj
    report.grad_norm = _grad_norm(theta, grad, lam, penalty)
    report.converged = report.grad_norm <= GRAD_TOL
    return theta, report


def fit(
    X: np.ndarray,
    y: np.ndarray,
    task: str = "logistic",
    lam: float = 1e-3,
    penalty: str = "squared-l2",
) -> LinearModel:
    """Minimize mean loss + penalty by Newton steps with backtracking from
    zero: the one-lambda case of ``fit_path``."""
    return fit_path(X, y, (lam,), task, penalty)[0]


# -- metrics --------------------------------------------------------------------

METRICS = ("rmse", "mae", "roc-auc", "pr-auc")


def rmse(y_true, y_pred) -> float:
    d = np.asarray(y_pred, dtype=np.float64) - np.asarray(y_true, dtype=np.float64)
    return float(np.sqrt(np.mean(d * d)))


def mae(y_true, y_pred) -> float:
    d = np.asarray(y_pred, dtype=np.float64) - np.asarray(y_true, dtype=np.float64)
    return float(np.mean(np.abs(d)))


def _binary_labels(y_true, metric: str) -> np.ndarray:
    """y_true as a bool array; a ranking metric refuses labels other than
    0 and 1, which its positive class would misread."""
    y = np.asarray(y_true)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError(f"{metric} needs labels in {{0, 1}}")
    return y.astype(bool)


def roc_auc(y_true, scores) -> float | None:
    """Rank-statistic AUC with midranks for ties; None on single-class input.

    The midranks are computed in numpy: the tied scores of one distinct
    value share the mean of the ranks they span. Any NaN score makes the
    result NaN, so a NaN feature row never turns into a plausible score.
    """
    y = _binary_labels(y_true, "roc-auc")
    s = np.asarray(scores, dtype=np.float64)
    npos = int(y.sum())
    nneg = y.size - npos
    if npos == 0 or nneg == 0:
        return None
    if np.isnan(s).any():
        return float("nan")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float((ranks[y].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def pr_auc(y_true, scores) -> float | None:
    """Step integration of the precision-recall curve over score thresholds;
    None on single-class input, NaN when any score is NaN (as ``roc_auc``)."""
    y = _binary_labels(y_true, "pr-auc")
    s = np.asarray(scores, dtype=np.float64)
    npos = int(y.sum())
    if npos == 0 or npos == y.size:
        return None
    if np.isnan(s).any():
        return float("nan")
    order = np.argsort(-s, kind="mergesort")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(~y_sorted)
    # evaluate only at the last index of each tied-score group
    last = np.r_[s_sorted[1:] != s_sorted[:-1], True]
    tp, fp = tp[last], fp[last]
    precision = tp / (tp + fp)
    recall = tp / npos
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(np.sum((recall - prev_recall) * precision))


def compute_metric(name: str, y_true, scores) -> float | None:
    name = name.lower()
    if name == "rmse":
        return rmse(y_true, scores)
    if name == "mae":
        return mae(y_true, scores)
    if name == "roc-auc":
        return roc_auc(y_true, scores)
    if name == "pr-auc":
        return pr_auc(y_true, scores)
    raise ValueError(f"unknown metric {name!r}; choose from {METRICS}")
