import dataclasses
import importlib.resources
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ngram_graph import build_sensing, count_statistics, recovery, sparse_recover
from ngram_graph.recovery import (
    RecoveryConfig,
    _nnls_gram,
    _soft,
    ista_recover,
    omp_recover,
    recovery_experiment,
    run_trial,
    summarize_cells,
    write_cells_csv,
)

from . import synth


def _operator(k, r, n, seed=0, scale=1.0):
    """The level-n operator of a one-attribute, k-valued sensing matrix."""
    return build_sensing(synth.single_attribute_schema(k), r, seed=seed, scale=scale).operator(n)


class TestSolvers:
    def test_orthonormal_columns_trivial_recovery(self):
        op = _operator(4, 8, 1, seed=443, scale=8 ** -0.5)  # a seed with orthogonal signs
        A = op.materialize()
        assert np.allclose(A.T @ A, np.eye(4))
        c = np.array([0.0, 3.0, 0.0, 0.0])
        res = omp_recover(op.matvec(c), op, sparsity=1)
        assert np.allclose(res.c_hat, c)
        assert res.converged

    def test_path_example_at_r16(self, path_xyz):
        sch, g = path_xyz
        stats = count_statistics(g, sch, 2)
        B = build_sensing(sch, 16, seed=7, scale=1.0)
        op = B.operator(2)
        f = op.matvec(stats.level(2)).astype(np.float64)
        res = sparse_recover(f, op, method="omp", sparsity=2)
        assert np.allclose(res.c_hat, [2.0, 0.0, 2.0])
        assert res.support == (0, 2)

    def test_underdetermined_small_r_fails_gracefully(self, path_xyz):
        # at r=2 the level operator cannot pin down three coordinates
        sch, g = path_xyz
        stats = count_statistics(g, sch, 2)
        B = build_sensing(sch, 2, seed=3, scale=1.0)
        op = B.operator(2)
        f = op.matvec(stats.level(2)).astype(np.float64)
        res = sparse_recover(f, op, method="omp", sparsity=2)
        # any outcome is acceptable except a spurious exactness claim
        if not np.allclose(res.c_hat, [2.0, 0.0, 2.0]):
            assert res.residual_norm >= 0.0

    def test_ista_matches_omp_on_easy_instance(self):
        sch = synth.single_attribute_schema(12)
        B = build_sensing(sch, 64, seed=5, scale=64 ** -0.5)
        op = B.operator(2)
        rng = np.random.default_rng(2)
        c = np.zeros(op.shape[1])
        c[rng.choice(op.shape[1], 3, replace=False)] = [2.0, 1.0, 4.0]
        f = op.matvec(c)
        a = omp_recover(f, op, sparsity=3)
        b = ista_recover(f, op)
        assert np.allclose(a.c_hat, c, atol=1e-6)
        assert np.allclose(b.c_hat, c, atol=1e-6)
        # the support settles and refits exactly before the schedule ends
        assert b.converged and b.iterations < 2000 // 12 * 12

    def test_ista_stops_on_zero_after_two_phases(self):
        res = ista_recover(np.zeros(4), _operator(3, 4, 1), max_iter=120)
        assert res.converged and not res.c_hat.any() and res.iterations == 20

    def test_ista_max_iter_below_one_per_phase_rejected(self):
        op = _operator(3, 3, 1)
        with pytest.raises(ValueError, match="max_iter 5 "):
            ista_recover(np.ones(3), op, max_iter=5)
        with pytest.raises(ValueError, match="'max_iter' must be at least 12"):
            RecoveryConfig.from_dict({"method": "ista", "max_iter": 11})
        assert ista_recover(np.ones(3), op, max_iter=12).iterations <= 12

    def test_omp_without_budget_rejected(self):
        with pytest.raises(ValueError):
            sparse_recover(np.zeros(3), _operator(3, 3, 1), method="omp")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sparse_recover(np.zeros(3), _operator(3, 3, 1), method="amp")

    @pytest.mark.parametrize("method", ["omp", "ista"])
    def test_zero_column_operator(self, method):
        # no column to pick: converged only when there is nothing to explain
        op = _operator(2, 4, 3)  # no 3-subset of 2 values
        assert op.shape == (4, 0)
        for f, converged in ((np.zeros(4), True), (np.ones(4), False)):
            res = sparse_recover(f, op, method=method, sparsity=3, max_iter=120)
            assert res.c_hat.shape == (0,) and res.support == ()
            assert res.residual_norm == np.linalg.norm(f)
            assert res.converged is converged
            assert res.iterations == 0

    def test_nonconvergence_flagged_approximate(self):
        # budget smaller than the true sparsity leaves residual behind
        op = _operator(40, 20, 1, scale=20 ** -0.5)
        c = np.zeros(40)
        c[[1, 7, 9, 20, 33]] = [1, 2, 3, 1, 2]
        res = omp_recover(op.matvec(c), op, sparsity=2)
        assert not res.converged

    def test_exact_instance_assertable_per_run(self):
        # when the greedy run drives the residual to zero within the budget,
        # the unique sparsest preimage has been found
        sch = synth.single_attribute_schema(20)
        B = build_sensing(sch, 120, seed=9, scale=120 ** -0.5)
        op = B.operator(2)
        rng = np.random.default_rng(4)
        c = np.zeros(op.shape[1])
        c[rng.choice(op.shape[1], 4, replace=False)] = rng.integers(1, 5, 4)
        res = omp_recover(op.matvec(c), op, sparsity=4)
        assert res.converged
        assert np.allclose(res.c_hat, c, atol=1e-8)


@st.composite
def nnls_problems(draw):
    """(A, f) with m <= 30 and n <= 8: small-integer entries at a drawn
    scale, optionally rank-deficient, with a duplicate or a zero column, or
    with A >= 0 and f <= 0 so that A^T f <= 0 and x = 0 is the answer."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["full", "low-rank", "duplicate", "zero-column",
                                 "negative"]))
    ints = st.integers(-4, 4)
    if kind == "low-rank":
        k = draw(st.integers(0, max(n - 1, 0)))
        A = (draw(hnp.arrays(np.int64, (m, k), elements=ints))
             @ draw(hnp.arrays(np.int64, (k, n), elements=ints)))
    else:
        A = draw(hnp.arrays(np.int64, (m, n), elements=ints))
    f = draw(hnp.arrays(np.int64, m, elements=ints)).astype(np.float64)
    A = A * 10.0 ** draw(st.integers(-3, 3))
    if kind == "duplicate" and n >= 2:
        A[:, n - 1] = A[:, 0]
    elif kind == "zero-column" and n >= 1:
        A[:, draw(st.integers(0, n - 1))] = 0.0
    elif kind == "negative":
        A, f = np.abs(A), -np.abs(f) - 1.0
    return A, f * 10.0 ** draw(st.integers(-3, 3)), kind


class TestNnlsGram:
    @settings(max_examples=300, deadline=None)
    @given(problem=nnls_problems())
    # A^T f is 0 in exact arithmetic, and its computed entries are round-off
    @example(problem=(np.tile([1.2, -1.2, 0.4], (20, 1)),
                      1000.0 * np.array([2, -4, -4, 4, 1, 1, 0, -1, -2, 3,
                                         -1, 0, 4, 3, -2, -3, 4, -3, 0, -2]),
                      "low-rank"))
    def test_kkt_conditions_hold(self, problem):
        A, f, kind = problem
        G, b = A.T @ A, A.T @ f
        x = _nnls_gram(G, b)
        assert x.shape == (A.shape[1],) and np.all(x >= 0)
        w = b - G @ x  # the negative gradient of ||A x - f||^2 / 2
        scale = np.abs(G).max(initial=0.0) * np.abs(x).max(initial=0.0)
        # b = A^T f carries up to m eps max(|A|^T |f|) of round-off itself
        b_error = A.shape[0] * np.finfo(float).eps * (np.abs(A).T @ np.abs(f)).max(initial=0.0)
        tol = 1e-10 * (scale + np.abs(b).max(initial=0.0)) + b_error
        assert np.all(w[x == 0] <= tol)
        assert np.all(np.abs(w[x > 0]) <= tol)
        if kind == "negative":
            assert not x.any()

    @settings(max_examples=300, deadline=None)
    @given(problem=nnls_problems())
    def test_objective_matches_scipy(self, problem):
        from scipy.optimize import nnls

        A, f, _ = problem
        if A.shape[1] == 0:
            return  # scipy's nnls aborts the process on a matrix with no columns
        x = _nnls_gram(A.T @ A, A.T @ f)
        ours = np.linalg.norm(A @ x - f) ** 2
        theirs = np.linalg.norm(A @ nnls(A, f)[0] - f) ** 2
        assert abs(ours - theirs) <= 1e-10 * max(f @ f, np.finfo(float).tiny)

    def test_no_columns(self):
        assert _nnls_gram(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


def _omp_scipy_reference(f, op, sparsity, tol=1e-9):
    """Greedy pursuit as it was with scipy's NNLS: every step refits all
    support columns, rebuilt from the operator."""
    from scipy.optimize import nnls

    residual, support, coef = f.copy(), [], np.zeros(0)
    norms = op.column_norms()
    safe = np.where(norms > 0, norms, 1.0)
    fnorm = max(np.linalg.norm(f), 1.0)
    for _ in range(sparsity):
        if np.linalg.norm(residual) <= tol * fnorm:
            break
        corr = np.abs(op.correlations(residual)) / safe
        corr[support] = -np.inf
        pick = int(np.argmax(corr >= corr.max() * (1 - 1e-9)))
        if not np.isfinite(corr[pick]):
            break
        support.append(pick)
        A_s = op.columns(support).astype(np.float64)
        coef = nnls(A_s, f)[0]
        residual = f - A_s @ coef
    c_hat = np.zeros(op.shape[1])
    c_hat[support] = coef
    return c_hat


def _ista_full_schedule_reference(f, A, max_iter=2000):
    """Soft thresholding as it was before the early stop: every phase runs
    unless the iterate itself fits f, then the last support is refit."""
    step = 1.0 / (np.linalg.norm(A, 2) ** 2 or 1.0)
    x = np.zeros(A.shape[1])
    mu = 0.9 * float(np.max(np.abs(A.T @ f))) if f.any() else 0.0
    fnorm = max(np.linalg.norm(f), 1.0)
    for _ in range(recovery.ISTA_PHASES):
        for _ in range(max_iter // recovery.ISTA_PHASES):
            x = _soft(x - step * (A.T @ (A @ x - f)), step * mu)
        mu *= recovery.ISTA_ANNEAL
        if np.linalg.norm(f - A @ x) <= recovery.RESIDUAL_TOL * fnorm:
            break
    support = np.flatnonzero(np.abs(x) > recovery.ISTA_SUPPORT_THRESHOLD)
    c_hat, A_S = np.zeros(A.shape[1]), A[:, support]
    if support.size:
        c_hat[support] = _nnls_gram(A_S.T @ A_S, A_S.T @ f)
    return c_hat


def test_ista_early_stop_matches_the_full_schedule(monkeypatch):
    """Every ISTA trial of count-lab's grid and of the low-r cells of a
    48-cell grid, where a wrong support can fit f exactly, finds the same
    support as the full annealing schedule, with counts within 1e-12."""
    solve = recovery.sparse_recover
    seen = []

    def both(f, op, method, sparsity, max_iter):
        res = solve(f, op, method=method, sparsity=sparsity, max_iter=max_iter)
        ref = _ista_full_schedule_reference(f, op.materialize().astype(np.float64), max_iter)
        seen.append(res.support == tuple(np.flatnonzero(ref > 0))
                    and np.max(np.abs(res.c_hat - ref), initial=0.0) <= 1e-12)
        return res

    monkeypatch.setattr(recovery, "sparse_recover", both)
    count_lab = RecoveryConfig(r_values=(60, 120), k_values=(16,), n_values=(2,),
                               s_values=(3,), trials=3, method="ista", seed=7)
    low_r = RecoveryConfig(r_values=(20,), k_values=(12, 16), n_values=(2, 3),
                           s_values=(1, 3, 6), trials=10, method="ista", seed=3)
    for cfg in (count_lab, low_r):
        recovery_experiment(cfg)
    assert len(seen) == 126 and all(seen)


def test_omp_matches_scipy_refit_on_the_grids(monkeypatch):
    """Every OMP trial of the bundled grid and of the low-r grids finds the
    same support as the scipy-refit pursuit, with counts within 1e-12; the
    bundled grid, read from the package data, recovers every trial."""
    solve = recovery.sparse_recover
    seen = []

    def both(f, op, method, sparsity, max_iter):
        res = solve(f, op, method=method, sparsity=sparsity, max_iter=max_iter)
        ref = _omp_scipy_reference(f, op, sparsity)
        seen.append(res.support == tuple(np.flatnonzero(ref > 0))
                    and np.max(np.abs(res.c_hat - ref)) <= 1e-12)
        return res

    monkeypatch.setattr(recovery, "sparse_recover", both)
    bundled = RecoveryConfig.from_dict(json.loads(
        importlib.resources.files("ngram_graph").joinpath("data", "recovery_desk.json")
        .read_text()))
    grids = [bundled, dataclasses.replace(bundled, r_values=(20, 30, 40)),
             RecoveryConfig(r_values=(30,), k_values=(12,), n_values=(3,), seed=0)]
    cells = [recovery_experiment(cfg) for cfg in grids]
    assert len(seen) == 800 and all(seen)
    assert [c.successes for c in cells[0]] == [100, 100, 100, 100]


class TestExperiment:
    def test_zero_sparsity_always_succeeds(self):
        cfg = RecoveryConfig(r_values=(8,), k_values=(10,), n_values=(2,),
                             s_values=(0,), trials=10, seed=0)
        (cell,) = recovery_experiment(cfg)
        assert cell.rate == 1.0

    def test_impossible_regime_fails(self):
        # far fewer measurements than nonzeros
        cfg = RecoveryConfig(r_values=(3,), k_values=(40,), n_values=(2,),
                             s_values=(5,), trials=20, seed=1)
        (cell,) = recovery_experiment(cfg)
        assert cell.rate <= 0.05

    def test_rate_monotone_in_r(self):
        cfg = RecoveryConfig(r_values=(16, 64, 256), k_values=(20,), n_values=(2,),
                             s_values=(4,), trials=30, seed=2)
        cells = recovery_experiment(cfg)
        rates = [c.rate for c in cells]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.05  # nondecreasing up to Monte-Carlo noise

    def test_low_r_success_counts_pinned(self):
        # near the phase transition, exact correlation ties are common; these
        # counts hold only if every tie goes to the lowest column index
        low_r = RecoveryConfig(r_values=(20, 30, 40), k_values=(40,), n_values=(2,),
                               s_values=(5,), trials=100, seed=0)
        assert [c.successes for c in recovery_experiment(low_r)] == [6, 59, 92]
        triples = RecoveryConfig(r_values=(30,), k_values=(12,), n_values=(3,),
                                 s_values=(5,), trials=100, seed=0)
        assert [c.successes for c in recovery_experiment(triples)] == [88]
        # at r = 20 the +-1 product columns repeat, so a support that has not
        # settled yet can fit f exactly: ISTA stops only on a support that
        # holds across two phases
        ista = RecoveryConfig(r_values=(20,), k_values=(16,), n_values=(3,),
                              s_values=(3,), trials=10, method="ista", seed=3)
        assert [c.successes for c in recovery_experiment(ista)] == [4]

    def test_trial_determinism(self):
        rng1 = np.random.default_rng([0, 64, 20, 2, 4, 0])
        rng2 = np.random.default_rng([0, 64, 20, 2, 4, 0])
        cfg = RecoveryConfig()
        assert run_trial(64, 20, 2, 4, cfg, rng1) == run_trial(64, 20, 2, 4, cfg, rng2)

    def test_cell_counts_do_not_depend_on_the_rest_of_the_grid(self):
        # every trial seeds from its own cell coordinates, so a cell run
        # alone counts what it counts inside a larger grid
        cfg = RecoveryConfig(r_values=(8, 64), k_values=(12,), n_values=(2,),
                             s_values=(2, 3), trials=8, seed=5)
        cells = recovery_experiment(cfg)
        # the r = 8 cells sit in the transition, where a shifted draw would show
        assert [(c.r, c.s, c.successes) for c in cells] == [
            (8, 2, 5), (8, 3, 2), (64, 2, 8), (64, 3, 8)]
        for cell in cells:
            one = dataclasses.replace(cfg, r_values=(cell.r,), s_values=(cell.s,))
            assert recovery_experiment(one) == [cell]

    def test_csv_columns(self, tmp_path):
        cfg = RecoveryConfig(r_values=(8,), k_values=(10,), n_values=(2,),
                             s_values=(0, 1), trials=5, seed=0)
        cells = recovery_experiment(cfg)
        out = tmp_path / "cells.csv"
        write_cells_csv(out, cells)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,k,n,s,trials,successes"
        assert len(lines) == 3

    def test_config_round_trip(self):
        cfg = RecoveryConfig(r_values=(8, 16), trials=7)
        doc = {"r_values": [8, 16], "trials": 7}
        assert RecoveryConfig.from_dict(json.loads(json.dumps(doc))) == cfg

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError):
            RecoveryConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("doc,key", [
        ({"trials": "5"}, "trials"),
        ({"seed": True}, "seed"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"r_values": 100}, "r_values"),
        ({"k_values": [40, "2"]}, "k_values"),
        ({"method": "lasso"}, "method"),
    ])
    def test_wrong_typed_value_names_its_key(self, doc, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            RecoveryConfig.from_dict(doc)

    def test_config_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            RecoveryConfig.from_dict([1, 2])

    def test_summary_has_one_line_per_cell(self):
        cfg = RecoveryConfig(r_values=(8,), k_values=(10,), n_values=(1, 2),
                             s_values=(1,), trials=3, seed=0)
        cells = recovery_experiment(cfg)
        assert len(summarize_cells(cells).splitlines()) == 1 + len(cells)
