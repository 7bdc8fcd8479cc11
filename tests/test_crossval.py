import dataclasses

import numpy as np
import pytest

import ngram_graph as ng
from ngram_graph import PipelineConfig, export_features, kfold_cv, load_features
from ngram_graph import crossval, linear
from ngram_graph.crossval import (
    LAMBDA_GRID,
    LeakageError,
    _check_no_leakage,
    _select_lambda,
    fold_indices,
    kfold_features,
    manifest_hash,
)
from ngram_graph.vertex import VertexEmbeddingMatrix

from . import synth


class TestFolds:
    def test_partition_covers_everything(self):
        splits = fold_indices(23, 5, seed=0)
        all_test = np.concatenate([te for _, te in splits])
        assert sorted(all_test.tolist()) == list(range(23))
        for tr, te in splits:
            assert not set(tr) & set(te)

    def test_deterministic_by_seed(self):
        a = fold_indices(40, 5, seed=3)
        b = fold_indices(40, 5, seed=3)
        for (tra, tea), (trb, teb) in zip(a, b):
            assert np.array_equal(tea, teb) and np.array_equal(tra, trb)

    def test_stratified_balances_classes(self):
        y = np.array([1.0] * 10 + [0.0] * 40)
        splits = fold_indices(50, 5, seed=1, labels=y, stratified=True)
        for _, te in splits:
            assert y[te].sum() == 2  # 10 positives dealt evenly over 5 folds

    def test_five_on_five_is_leave_one_out(self):
        splits = fold_indices(5, 5, seed=0)
        for tr, te in splits:
            assert te.size == 1 and tr.size == 4

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fold_indices(3, 5, seed=0)

    def test_stratified_matches_round_robin_loop(self):
        def loop_form(n, folds, seed, labels):
            rng = np.random.default_rng(seed)
            assign = np.empty(n, dtype=np.int64)
            pos = 0
            for cls in np.unique(labels):
                members = np.nonzero(labels == cls)[0]
                members = members[rng.permutation(members.size)]
                for i, idx in enumerate(members):
                    assign[idx] = (pos + i) % folds
                pos += members.size
            return [(np.nonzero(assign != f)[0], np.nonzero(assign == f)[0])
                    for f in range(folds)]

        rng = np.random.default_rng(11)
        for trial in range(100):
            folds = int(rng.integers(2, 8))
            n = int(rng.integers(folds, 200))
            labels = rng.integers(0, int(rng.integers(1, 4)), size=n).astype(float)
            got = fold_indices(n, folds, trial, labels=labels, stratified=True)
            for (tr, te), (tr0, te0) in zip(got, loop_form(n, folds, trial, labels)):
                assert np.array_equal(tr, tr0) and np.array_equal(te, te0)


class TestKfoldFeatures:
    def test_constant_labels_regression_zero_rmse(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((25, 3))
        y = np.full(25, 2.5)
        report = kfold_features(X, y, task="least-squares", metric="rmse",
                                folds=5, seed=0, lam=1e-6)
        assert report.mean <= 1e-6

    def test_single_class_fold_reports_absent(self):
        X = np.random.default_rng(1).standard_normal((10, 2))
        y = np.zeros(10)
        y[0] = 1.0
        report = kfold_features(X, y, task="logistic", metric="roc-auc",
                                folds=5, seed=0, lam=1e-3)
        assert None in report.fold_values or report.mean is not None

    def test_unconverged_fits_are_counted(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3))
        y = (X[:, 0] > 0).astype(float)
        fixed = kfold_features(X, y, folds=5, seed=0, lam=1e-3)
        searched = kfold_features(X, y, folds=5, seed=0, lam=None)
        assert fixed.unconverged == searched.unconverged == 0
        monkeypatch.setattr(linear, "MAX_ITER", 0)
        stalled = kfold_features(X, y, folds=5, seed=0, lam=1e-3)
        assert stalled.unconverged == 5
        # one outer fit per fold plus 3 inner folds for every lambda
        assert (kfold_features(X, y, folds=5, seed=0, lam=None).unconverged
                == 5 * (1 + 3 * len(LAMBDA_GRID)))

    def test_lambda_grid_selection_runs(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 4))
        y = (X[:, 0] > 0).astype(float)
        report = kfold_features(X, y, folds=5, seed=0, lam=None)
        assert report.mean >= 0.9


class TestSelectLambda:
    @pytest.mark.parametrize("metric, scores, expected", [
        ("roc-auc", [None, 0.7, 0.9, 0.9, 0.8, 0.9], 1e-2),
        ("rmse", [0.3, 0.2, 0.2, None, 0.25, 0.2], 1e-3),
        ("roc-auc", [None] * 6, 1e-3),
    ])
    def test_first_best_lambda_wins_a_tie(self, monkeypatch, metric, scores, expected):
        by_lam = dict(zip(LAMBDA_GRID, scores))
        X, y = np.arange(8.0).reshape(8, 1), np.arange(8.0) % 2  # X holds row ids
        splits = fold_indices(8, 3, 0, labels=y, stratified=True)
        seen = []

        def scripted(X_tr, y_tr, X_te, y_te, task, metric, lams):
            assert lams == LAMBDA_GRID
            seen.append(X_te[:, 0].tolist())
            return [(by_lam[lam], 1) for lam in lams]

        monkeypatch.setattr(crossval, "_score_path", scripted)
        # the 3 stratified inner folds, and every inner fit's unconverged count
        assert (_select_lambda(X, y, "logistic", metric, seed=0)
                == (expected, 3 * len(LAMBDA_GRID)))
        assert seen == [te.tolist() for _, te in splits]

    def test_single_class_inner_folds_fall_back(self):
        # the one positive leaves its test fold's training rows single-class and
        # the other two test folds without a positive: no lambda scores a fold
        X = np.random.default_rng(3).standard_normal((9, 2))
        y = np.zeros(9)
        y[4] = 1.0
        assert _select_lambda(X, y, "logistic", "roc-auc", seed=0) == (1e-3, 0)


class TestKfoldPipeline:
    def test_random_embedding_pipeline(self, rng):
        sch = synth.single_attribute_schema(10)
        graphs, labels, _ = synth.count_label_corpus(rng, sch, n_graphs=80,
                                                     m_range=(4, 8))
        cfg = PipelineConfig(embedding="random-gaussian", r=24, T=2,
                             lam=1e-4, metric="roc-auc", seed=1)
        report = kfold_cv(graphs, labels, sch, cfg, folds=5, seed=0)
        assert len(report.fold_values) == 5
        assert report.mean is not None and report.mean > 0.5

    def test_random_embedding_embeds_corpus_once(self, rng):
        # rows embed independently, so one corpus matrix sliced per fold
        # scores exactly like a feature-matrix cross-validation of it
        sch = synth.single_attribute_schema(6)
        graphs, labels, _ = synth.count_label_corpus(rng, sch, n_graphs=60,
                                                     m_range=(4, 7))
        cfg = PipelineConfig(embedding="random-rademacher", r=8, T=3,
                             variant="path", seed=4)
        report = kfold_cv(graphs, labels, sch, cfg, folds=4, seed=2, stratified=True)
        emb = ng.random_embedding(sch, 8, dist="rademacher", seed=4)
        X, _ = ng.embed_corpus(graphs, emb, 3, variant="path", normalization="unit-l2")
        direct = kfold_features(X, labels, folds=4, seed=2, stratified=True)
        assert report.fold_values == direct.fold_values

    def test_trained_embedding_isolated_per_fold(self, rng):
        sch = synth.small_schema(ks=(5, 4))
        graphs = synth.random_corpus(rng, sch, 25, density=0.5, connected=True)
        labels = (rng.random(25) > 0.5).astype(float)
        cfg = PipelineConfig(embedding="trained", r=6, T=2, lam=1e-3, seed=2)
        report = kfold_cv(graphs, labels, sch, cfg, folds=5, seed=0)
        assert len(report.fold_values) == 5

    @pytest.mark.parametrize("embedding", ["random-rademacher", "trained"])
    def test_sweep_reports_equal_one_kfold_cv_per_T(self, rng, embedding):
        # a sweep makes each fold's embedding once for every T; a kfold_cv
        # call per T makes them afresh and scores the same bits
        sch = synth.small_schema(ks=(5, 4))
        graphs = synth.random_corpus(rng, sch, 25, density=0.5, connected=True)
        labels = (rng.random(25) > 0.5).astype(float)
        cfg = PipelineConfig(embedding=embedding, r=6, variant="path", lam=1e-3, seed=2)
        t_grid = (3, 1, 2)
        reports = crossval.kfold_sweep(graphs, labels, sch, cfg, t_grid, folds=3, seed=1,
                                       stratified=True)
        assert len(reports) == len(t_grid)
        for T, report in zip(t_grid, reports):
            single = kfold_cv(graphs, labels, sch, dataclasses.replace(cfg, T=T),
                              folds=3, seed=1, stratified=True)
            assert report.fold_values == single.fold_values
            assert report.unconverged == single.unconverged

    @pytest.mark.parametrize("call", ["kfold_sweep", "kfold_cv"])
    def test_graph_that_fails_to_embed_is_named(self, rng, call):
        sch = synth.small_schema(ks=(5, 4))
        graphs = synth.random_corpus(rng, sch, 12, density=0.5, connected=True)
        graphs[7] = dataclasses.replace(graphs[7], schema_fingerprint="foreign")
        labels = np.arange(12) % 2.0
        cfg = PipelineConfig(r=4, T=2, lam=1e-3)
        with pytest.raises(ValueError) as info:
            if call == "kfold_sweep":
                crossval.kfold_sweep(graphs, labels, sch, cfg, (2,), folds=3)
            else:
                kfold_cv(graphs, labels, sch, cfg, folds=3)
        assert str(info.value) == (
            "1 of 12 graphs failed to embed; the first, 'g7' (row 7): schema "
            f"fingerprint mismatch: graph foreign vs embedding {sch.fingerprint}")

    def test_leakage_guard_raises(self, rng, schema):
        emb = ng.random_embedding(schema, 4, seed=0)
        tainted = VertexEmbeddingMatrix(
            matrix=emb.matrix, schema=schema,
            provenance={"kind": "trained", "train_rows": [1, 2, 3]},
        )
        with pytest.raises(LeakageError):
            _check_no_leakage(tainted, [3, 9])

    def test_mismatched_label_count_rejected(self, rng, schema):
        graphs = synth.random_corpus(rng, schema, 6)
        with pytest.raises(ValueError):
            kfold_cv(graphs, [0.0, 1.0], schema, PipelineConfig(), folds=2)


class TestExport:
    def test_round_trip_bit_identical(self, rng, schema, tmp_path):
        graphs = synth.random_corpus(rng, schema, 12, density=0.4)
        emb = ng.random_embedding(schema, 5, seed=0)
        X, manifest = ng.embed_corpus(graphs, emb, 3)
        paths = export_features(X, manifest, tmp_path / "feats")
        back, manifest_back = load_features(paths["bin"])
        assert np.array_equal(back, X)
        assert manifest_back == manifest

    def test_manifest_survives_round_trip(self, rng, schema, tmp_path):
        graphs = synth.random_corpus(rng, schema, 5)
        emb = ng.random_embedding(schema, 4, seed=3)
        X, manifest = ng.embed_corpus(graphs, emb, 2)
        paths = export_features(X, manifest, tmp_path / "f")
        _, m2 = load_features(paths["bin"])
        assert m2["w_provenance"] == emb.provenance
        assert manifest_hash(m2) == manifest_hash(manifest)

    def test_exported_width_matches_manifest(self, rng, schema, tmp_path):
        graphs = synth.random_corpus(rng, schema, 6)
        emb = ng.random_embedding(schema, 7, seed=0)
        X, manifest = ng.embed_corpus(graphs, emb, 4)
        paths = export_features(X, manifest, tmp_path / "f")
        back, m2 = load_features(paths["bin"])
        assert back.shape[1] == m2["T"] * m2["r"] == 28

    def test_csv_header_layout(self, rng, schema, tmp_path):
        graphs = synth.random_corpus(rng, schema, 3)
        emb = ng.random_embedding(schema, 2, seed=0)
        X, manifest = ng.embed_corpus(graphs, emb, 2)
        paths = export_features(X, manifest, tmp_path / "f")
        header = paths["csv"].read_text().splitlines()[0].split(",")
        assert header[:3] == ["g_id", "f_1_0", "f_1_1"]
        assert header[-1] == "f_2_1"
