import numpy as np
import pytest

from ngram_graph import linear
from ngram_graph.crossval import LAMBDA_GRID, kfold_features
from ngram_graph.linear import (
    TASKS,
    DegenerateLabels,
    FitReport,
    LinearModel,
    ModelFormatError,
    _objective_and_grad,
    _sigmoid,
    compute_metric,
    fit,
    fit_path,
    mae,
    pr_auc,
    rmse,
    roc_auc,
)


class TestFit:
    def test_huge_lambda_shrinks_weights_to_intercept(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 5))
        y = (rng.random(60) > 0.3).astype(float)
        model = fit(X, y, task="logistic", lam=1e6)
        assert np.linalg.norm(model.weights) <= 1e-4
        # every prediction collapses to the intercept
        p = model.decision(X)
        assert np.allclose(p, p[0])

    def test_separable_two_points(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        model = fit(X, y, task="logistic", lam=1e-6)
        pred = (model.decision(X) > 0).astype(float)
        assert np.array_equal(pred, y)

    def test_least_squares_recovers_line(self):
        X = np.linspace(-1, 1, 50).reshape(-1, 1)
        y = 3.0 * X[:, 0] + 0.5
        model = fit(X, y, task="least-squares", lam=0.0)
        assert abs(model.weights[0] - 3.0) <= 1e-5
        assert abs(model.intercept - 0.5) <= 1e-5

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 4))
        y = (rng.random(20) > 0.5).astype(float)
        theta = rng.standard_normal(5) * 0.3
        _, grad = _objective_and_grad(theta, X, y, "logistic", 0.01)
        eps = 1e-6
        num = np.empty_like(theta)
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            lu, _ = _objective_and_grad(up, X, y, "logistic", 0.01)
            ld, _ = _objective_and_grad(dn, X, y, "logistic", 0.01)
            num[i] = (lu - ld) / (2 * eps)
        assert np.linalg.norm(grad - num) / np.linalg.norm(num) <= 1e-5

    @pytest.mark.parametrize("task", TASKS)
    def test_objective_nonincreasing(self, task, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        y = (rng.random(40) > 0.5).astype(float)

        def capped(k):  # a fit capped at k Newton steps stops where the full fit was after k
            monkeypatch.setattr(linear, "MAX_ITER", k)
            return fit(X, y, task=task, lam=1e-3).report

        steps = capped(200).iterations
        trace = [capped(k).objective for k in range(steps + 1)]
        assert len(trace) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_newton_converges_over_lambda_grid(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((120, 10))
        y = (X @ rng.standard_normal(10) + rng.standard_normal(120) > 0).astype(float)
        for lam in LAMBDA_GRID:
            report = fit(X, y, task="logistic", lam=lam).report
            assert report.converged, lam
            assert report.grad_norm <= 1e-8, lam
            assert report.iterations <= 50, lam

    def test_squared_l2_least_squares_equals_closed_form_ridge(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 7))
        y = X @ rng.standard_normal(7) + 0.3 * rng.standard_normal(50) + 1.5
        lam = 0.05
        X1 = np.hstack([X, np.ones((50, 1))])
        penalty = 2.0 * lam * np.diag(np.r_[np.ones(7), 0.0])  # intercept unpenalized
        theta = np.linalg.solve(X1.T @ X1 / 50 + penalty, X1.T @ y / 50)
        model = fit(X, y, task="least-squares", lam=lam)
        assert model.report.converged
        assert np.abs(np.r_[model.weights, model.intercept] - theta).max() <= 1e-10

    def test_singular_hessian_takes_lstsq(self, monkeypatch):
        # a duplicated column with no penalty makes the Hessian singular
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 3))
        X = np.hstack([X, X[:, :1]])
        y = X @ np.array([1.0, -2.0, 0.5, 1.0]) + 0.25
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        model = fit(X, y, task="least-squares", lam=0.0)
        assert calls
        assert np.isfinite(model.weights).all() and np.isfinite(model.intercept)
        assert model.report.converged
        assert np.allclose(model.decision(X), y, atol=1e-8)

    def test_single_class_faults(self):
        X = np.ones((5, 2))
        with pytest.raises(DegenerateLabels):
            fit(X, np.ones(5), task="logistic")

    def test_non_binary_labels_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            fit(X, np.array([0.0, 1.0, 2.0, 1.0]), task="logistic")

    def test_nan_features_rejected(self):
        X = np.ones((4, 2))
        X[1, 0] = np.nan
        with pytest.raises(ValueError):
            fit(X, np.array([0, 1, 0, 1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 4))
        y = (rng.random(30) > 0.4).astype(float)
        a = fit(X, y, lam=1e-3)
        b = fit(X, y, lam=1e-3)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("field, value, message", [
        ("weights", [0.5, float("nan")], "'weights' must be finite"),
        ("weights", [float("-inf"), 0.5], "'weights' must be finite"),
        ("weights", [10 ** 400, 0.5], "'weights' must be finite"),
        ("intercept", float("inf"), "'intercept' must be finite"),
        ("intercept", float("nan"), "'intercept' must be finite"),
        ("lambda", -5, "'lambda' must be finite and >= 0"),
        ("lambda", float("nan"), "'lambda' must be finite and >= 0"),
        ("lambda", float("inf"), "'lambda' must be finite and >= 0"),
    ])
    def test_non_finite_model_refused(self, field, value, message):
        doc = LinearModel(np.array([0.5, -1.0]), 0.25, "logistic", 1e-3).to_dict()
        LinearModel.from_dict(doc)
        with pytest.raises(ModelFormatError, match=message):
            LinearModel.from_dict({**doc, field: value})

    @pytest.mark.parametrize("report, message", [
        ({"iterations": "many"}, "field 'iterations' must be an integer >= 0"),
        ({"iterations": -1}, "field 'iterations' must be an integer >= 0"),
        ({"iterations": 3.0}, "field 'iterations' must be an integer >= 0"),
        ({"iterations": True}, "field 'iterations' must be an integer >= 0"),
        ({"objective": "0.5"}, "field 'objective' must be a number"),
        ({"objective": None}, "field 'objective' must be a number"),
        ({"grad_norm": False}, "field 'grad_norm' must be a number"),
        ({"grad_norm": [1e-9]}, "field 'grad_norm' must be a number"),
        ({"converged": "yes"}, "field 'converged' must be true or false"),
        ({"converged": 1}, "field 'converged' must be true or false"),
        ({"bogus": 1}, "unknown field 'bogus'"),
        ({"iterations": "many", "converged": "yes", "bogus": 1},
         "field 'iterations' must be"),
    ])
    def test_malformed_fit_report_refused(self, report, message):
        doc = LinearModel(np.array([0.5, -1.0]), 0.25, "logistic", 1e-3).to_dict()
        with pytest.raises(ModelFormatError, match=message):
            LinearModel.from_dict({**doc, "fit_report": {**doc["fit_report"], **report}})

    @pytest.mark.parametrize("report, expected", [
        ({}, FitReport()),
        ({"iterations": 0, "objective": 1, "grad_norm": 0, "converged": True},
         FitReport(0, 1, 0, True)),
        ({"iterations": 7, "converged": False}, FitReport(iterations=7)),
    ])
    def test_fit_report_fields(self, report, expected):
        doc = LinearModel(np.array([0.5]), 0.0, "least-squares", 0.0).to_dict()
        rep = LinearModel.from_dict({**doc, "fit_report": report}).report
        assert repr(rep) == repr(expected)  # NaN defaults compare by their spelling

    def test_nan_fit_report_reads_back(self):
        # a model no fit made writes NaN objective and gradient norm
        model = LinearModel(np.array([0.5, -1.0]), 0.25, "logistic", 1e-3)
        text = model.to_json()
        assert "NaN" in text
        back = LinearModel.from_json(text)
        assert repr(back.report) == repr(model.report)
        assert back.to_json() == text

    def test_model_json_round_trip(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        y = (rng.random(30) > 0.4).astype(float)
        model = fit(X, y, lam=1e-2)
        back = LinearModel.from_json(model.to_json())
        assert np.array_equal(back.weights, model.weights)
        assert back.intercept == model.intercept
        assert np.array_equal(back.decision(X), model.decision(X))


# Reference evaluation: a masked two-branch sigmoid and a separate
# log(1 + e^z), each with its own exponential. The solver's one-exponential
# evaluation must equal it bit for bit.
def _sigmoid_two_branch(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log1pexp(z):
    return np.where(z > 0, z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _objective_and_grad_two_branch(theta, X, y, task, lam):
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    n = X.shape[0]
    if task == "logistic":
        sign = 2.0 * y - 1.0
        loss = float(np.mean(_log1pexp(-sign * z)))
        resid = _sigmoid_two_branch(z) - y
    else:
        diff = z - y
        loss = float(0.5 * np.mean(diff * diff))
        resid = diff
    gw = X.T @ resid / n
    gb = float(resid.mean())
    wnorm = float(np.linalg.norm(w))
    loss += lam * wnorm ** 2
    gw = gw + 2.0 * lam * w
    return loss, np.concatenate([gw, [gb]])


_EDGE_Z = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e-300, -1e-300, 40.0, -40.0]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestOneExponential:
    """The one-exponential sigmoid, loss and gradient against the two-branch
    reference, bit for bit."""

    def test_sigmoid_equals_two_branch(self):
        rng = np.random.default_rng(11)
        for z in (np.array(_EDGE_Z), -np.array(_EDGE_Z),
                  rng.standard_normal(5000) * 10.0 ** rng.uniform(-3, 3, 5000)):
            assert np.array_equal(_bits(_sigmoid(z)), _bits(_sigmoid_two_branch(z)))

    @pytest.mark.parametrize("label", [0.0, 1.0])
    @pytest.mark.parametrize("z", _EDGE_Z + [-np.nan])
    def test_edge_values_equal_two_branch(self, z, label):
        # theta = (1, -0.0) gives X @ w + b = z exactly, -0.0 included
        args = (np.array([1.0, -0.0]), np.array([[z]]), np.array([label]), "logistic",
                0.1)
        with np.errstate(invalid="ignore"):  # inf * 0 in X.T @ resid
            loss, grad = _objective_and_grad(*args)
            ref_loss, ref_grad = _objective_and_grad_two_branch(*args)
        assert np.array_equal(_bits(grad), _bits(ref_grad))
        # a NaN loss may differ in its sign bit only: the reference's -|x|
        # sets it, and a NaN's sign carries no value
        assert _bits(loss) == _bits(ref_loss) or (np.isnan(loss) and np.isnan(ref_loss))

    @pytest.mark.parametrize("task", TASKS)
    def test_random_problems_equal_two_branch(self, task):
        rng = np.random.default_rng(12)
        for n, d, scale in [(1, 1, 1.0), (50, 7, 1.0), (40, 90, 30.0), (300, 20, 1e-3)]:
            X, y = _problem(int(rng.integers(100)), n, d, task)
            X *= scale
            for theta in (np.zeros(d + 1), rng.standard_normal(d + 1) * 3.0):
                args = (theta, X, y, task, 1e-2)
                loss, grad = _objective_and_grad(*args)
                ref_loss, ref_grad = _objective_and_grad_two_branch(*args)
                assert _bits(loss) == _bits(ref_loss)
                assert np.array_equal(_bits(grad), _bits(ref_grad))


def _problem(seed, n, d, task):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if task == "logistic":
        y = (X[:, 0] + rng.standard_normal(n) > 0).astype(float)
    else:
        y = X[:, :3].sum(axis=1) + rng.standard_normal(n)
    return X, y


def _same_model(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept
    assert a.lam == b.lam
    assert a.report == b.report


class TestFitPath:
    @pytest.mark.parametrize("n, d", [(60, 8), (20, 50)])  # primal, row space
    @pytest.mark.parametrize("task", TASKS)
    def test_grid_equals_one_lambda_fits(self, task, n, d):
        # one lambda must not see another's Hessian, gradient or start point
        X, y = _problem(21, n, d, task)
        path = fit_path(X, y, LAMBDA_GRID, task=task)
        assert len(path) == len(LAMBDA_GRID)
        for lam, model in zip(LAMBDA_GRID, path):
            _same_model(model, fit(X, y, task=task, lam=lam))
        for lam, model in zip(LAMBDA_GRID[::-1], fit_path(X, y, LAMBDA_GRID[::-1], task=task)):
            _same_model(model, fit(X, y, task=task, lam=lam))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("task", TASKS)
    def test_non_finite_labels_refused(self, task, bad):
        # as non-finite features are: a NaN label would fit NaN weights
        X, y = _problem(3, 12, 4, task)
        y[5] = bad
        with pytest.raises(ValueError, match="^labels contain non-finite values$"):
            fit_path(X, y, LAMBDA_GRID, task=task)

    def test_singular_hessian_path_takes_lstsq(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 3))
        X = np.hstack([X, X[:, :1]])
        y = X @ np.array([1.0, -2.0, 0.5, 1.0]) + 0.25
        lams = (0.0, 1e-2, 0.0)
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        path = fit_path(X, y, lams, task="least-squares")
        assert calls
        for lam, model in zip(lams, path):
            _same_model(model, fit(X, y, task="least-squares", lam=lam))
        assert path[0].report.converged

    def test_single_class_faults(self):
        with pytest.raises(DegenerateLabels):
            fit_path(np.ones((5, 2)), np.ones(5), LAMBDA_GRID)

    @pytest.mark.parametrize("task", TASKS)
    def test_paths_share_no_state(self, task):
        # A, then B, then A again give the models fresh fits give, and no fit
        # writes to the caller's arrays
        def problem(seed, n, d):
            X, y = _problem(seed, n, d, task)
            X.setflags(write=False)
            y.setflags(write=False)
            return X, y

        def path(X, y):
            return [m.to_json() for m in fit_path(X, y, LAMBDA_GRID, task=task)]

        a, b = problem(31, 60, 8), problem(32, 20, 50)
        fresh = path(*a), path(*b)
        assert (path(*a), path(*b), path(*a)) == (fresh[0], fresh[1], fresh[0])

    @pytest.mark.parametrize("lam", [-1.0, float("inf"), float("nan")])
    def test_bad_lambda_rejected(self, lam):
        X, y = _problem(0, 10, 2, "logistic")
        with pytest.raises(ValueError):
            fit_path(X, y, (1e-3, lam))

    @pytest.mark.parametrize("n, d, qrs", [(30, 80, 1), (80, 30, 0)])
    def test_one_factorization_per_path(self, monkeypatch, n, d, qrs):
        # least squares keeps the loss Hessian of its start for every step
        # and every lambda; the row space takes one QR for the whole grid
        counts = {"qr": 0, "hessian": 0}
        qr, hessian = np.linalg.qr, linear._loss_hessian

        def count(name, func):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "qr", count("qr", qr))
        monkeypatch.setattr(linear, "_loss_hessian", count("hessian", hessian))
        X, y = _problem(3, n, d, "least-squares")
        path = fit_path(X, y, LAMBDA_GRID, task="least-squares")
        assert all(m.report.converged for m in path)
        assert counts == {"qr": qrs, "hessian": 1}

    @pytest.mark.parametrize("task", TASKS)
    def test_row_space_matches_primal(self, monkeypatch, task):
        X, y = _problem(5, 30, 90, task)
        reduced = fit_path(X, y, LAMBDA_GRID, task=task)
        monkeypatch.setattr(linear, "_row_space", lambda n, d: False)
        primal = fit_path(X, y, LAMBDA_GRID, task=task)
        for a, b in zip(reduced, primal):
            assert a.report.iterations == b.report.iterations
            assert a.report.converged and b.report.converged
            scale = np.abs(b.weights).max(initial=0.0)
            assert np.abs(a.weights - b.weights).max() <= 1e-9 * scale
            assert abs(a.intercept - b.intercept) <= 1e-9 * max(abs(b.intercept), 1.0)
            assert abs(a.report.objective - b.report.objective) <= 1e-13 * b.report.objective

    @pytest.mark.parametrize("seed, n, d", [(0, 40, 120), (1, 60, 150), (2, 30, 45),
                                            (3, 90, 140), (4, 20, 100)])
    def test_row_space_fold_values_equal_primal(self, monkeypatch, seed, n, d):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = (X[:, :4].sum(axis=1) + rng.standard_normal(n) > 0).astype(float)
        kw = dict(folds=5, seed=seed, lam=None, stratified=True)
        reduced = kfold_features(X, y, **kw)
        monkeypatch.setattr(linear, "_row_space", lambda n, d: False)
        primal = kfold_features(X, y, **kw)
        assert reduced.fold_values == primal.fold_values
        assert reduced.unconverged == primal.unconverged == 0


class TestMetrics:
    def test_perfect_ranking(self):
        assert roc_auc([1, 0], [0.9, 0.1]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([1, 0], [0.1, 0.9]) == 0.0

    def test_ties_give_half_credit(self):
        assert roc_auc([1, 0], [0.5, 0.5]) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(6)
        n = 10_000
        y = (rng.random(n) > 0.5).astype(float)
        s = rng.random(n)
        assert abs(roc_auc(y, s) - 0.5) <= 0.02

    def test_single_class_auc_absent(self):
        assert roc_auc([1, 1], [0.2, 0.3]) is None
        assert pr_auc([0, 0], [0.2, 0.3]) is None

    @pytest.mark.parametrize("metric, name", [(roc_auc, "roc-auc"), (pr_auc, "pr-auc")])
    @pytest.mark.parametrize("y", [[0.0, 2.0, 1.0], [-1.0, 1.0, 1.0], [0.0, 0.5, 1.0]])
    def test_ranking_metrics_refuse_labels_not_0_1(self, metric, name, y):
        # these once counted every nonzero label as positive
        with pytest.raises(ValueError, match=rf"^{name} needs labels in \{{0, 1\}}$"):
            metric(y, [0.1, 0.2, 0.3])
        assert metric([True, False, True], [0.3, 0.1, 0.2]) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        y = (rng.random(200) > 0.4).astype(float)
        s = rng.standard_normal(200)
        a = roc_auc(y, s)
        b = roc_auc(y, np.exp(2.0 * s) + 5.0)
        assert abs(a - b) <= 1e-12

    def test_roc_auc_equals_rankdata_reference(self):
        from scipy.stats import rankdata

        def reference(y, s):
            y = np.asarray(y).astype(bool)
            npos, nneg = int(y.sum()), int((~y).sum())
            ranks = rankdata(s)
            return float((ranks[y].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))

        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(2, 200))
            y = rng.random(n) > 0.5
            y[:2] = [True, False]
            if trial % 2:
                s = rng.integers(0, 5, size=n).astype(float)  # many ties
            else:
                s = rng.standard_normal(n)
            assert roc_auc(y, s) == reference(y, s)

    def test_roc_auc_nan_scores_give_nan(self):
        # pr_auc too: a NaN score has no place in a ranking
        for metric in (roc_auc, pr_auc):
            assert np.isnan(metric([1, 0, 1, 0], [0.1, np.nan, 0.3, 0.2]))
            assert np.isnan(metric([0, 1, 1, 0, 1], [0.1, np.nan, 0.8, 0.3, 0.5]))
            assert np.isnan(metric([1, 0], [np.nan, np.nan]))

    def test_pr_auc_perfect(self):
        assert pr_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_pr_auc_matches_average_precision_by_hand(self):
        # scores order labels as 1,0,1,0: AP = 1/2 (1 + 2/3) = 0.8333...
        val = pr_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
        assert abs(val - (0.5 * (1.0 + 2.0 / 3.0))) <= 1e-12

    def test_rmse_mae(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
        assert mae([0.0, 0.0], [3.0, -4.0]) == pytest.approx(3.5)

    def test_compute_metric_dispatch(self):
        assert compute_metric("RMSE", [0.0], [1.0]) == 1.0
        with pytest.raises(ValueError):
            compute_metric("accuracy", [0], [1])

    def test_evaluate_uses_decision_scores(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        model = fit(X, y, lam=1e-6)
        assert compute_metric("roc-auc", y, model.decision(X)) == 1.0
