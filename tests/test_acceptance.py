"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts. Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np

import ngram_graph as ng
from ngram_graph import (
    VertexEmbeddingMatrix,
    build_sensing,
    embed_corpus,
    graph_embed,
    oracle_embed,
    random_embedding,
    verify_identity,
)
from ngram_graph.cbow import CbowConfig, CbowNetwork, extract_contexts, train_cbow
from ngram_graph.crossval import PipelineConfig, export_features, kfold_cv, kfold_features, load_features, manifest_hash
from ngram_graph.recovery import RecoveryConfig, recovery_experiment

from . import synth


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestAcceptance:
    def test_01_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        schema = synth.small_schema(ks=(5, 4))
        t0 = time.perf_counter()
        worst_int = 0
        worst_float = 0.0
        for trial in range(500):
            g = synth.random_graph(rng, schema, m=int(rng.integers(2, 9)),
                                   density=0.3)
            w_int = rng.choice((-1, 1), size=(6, schema.total_width)).astype(np.int64)
            emb_int = VertexEmbeddingMatrix(matrix=w_int, schema=schema,
                                            provenance={"kind": "int"})
            a = graph_embed(g, emb_int, 4).vector
            b = oracle_embed(g, emb_int, 4).vector
            worst_int = max(worst_int, int(np.max(np.abs(a - b))) if a.size else 0)

            emb_f = VertexEmbeddingMatrix(
                matrix=w_int.astype(np.float64) / np.sqrt(6.0),
                schema=schema, provenance={"kind": "float"},
            )
            af = graph_embed(g, emb_f, 4).vector
            bf = oracle_embed(g, emb_f, 4).vector
            scale = max(float(np.max(np.abs(bf))), 1e-30)
            worst_float = max(worst_float, float(np.max(np.abs(af - bf))) / scale)
        elapsed = time.perf_counter() - t0
        ok = worst_int == 0 and worst_float <= 1e-10 and elapsed < 30.0
        _report(1, ok,
                f"500 graphs: integer diff {worst_int}, float rel {worst_float:.2e}, "
                f"{elapsed:.1f}s (< 30s)")

    def test_02_hand_derived_path_graph(self):
        schema = synth.single_attribute_schema(3)
        g = ng.MolecularGraph(num_vertices=3, attr=[[0], [1], [2]],
                              edges=[[0, 1], [1, 2]],
                              schema_fingerprint=schema.fingerprint)
        W = VertexEmbeddingMatrix(matrix=np.array([[1.0, 2.0, 3.0]]),
                                  schema=schema, provenance={})
        walk_levels = [float(lv[0]) for lv in graph_embed(g, W, 3).levels]
        path_l3 = float(graph_embed(g, W, 3, variant="path").levels[2][0])
        ok = walk_levels == [6.0, 16.0, 48.0] and path_l3 == 12.0
        _report(2, ok, f"levels {walk_levels} (expect [6, 16, 48]), "
                       f"path level 3 = {path_l3} (expect 12)")

    def test_03_permutation_invariance(self):
        rng = np.random.default_rng(303)
        schema = synth.small_schema(ks=(6, 5))
        emb = random_embedding(schema, 20, dist="gaussian", seed=7)
        worst = 0.0
        for _ in range(100):
            g = synth.random_graph(rng, schema, m=int(rng.integers(3, 9)),
                                   density=0.4)
            base = graph_embed(g, emb, 5).vector
            denom = max(np.linalg.norm(base), 1e-30)
            for _ in range(10):
                pi = rng.permutation(g.num_vertices)
                other = graph_embed(synth.permute(g, pi), emb, 5).vector
                worst = max(worst, float(np.linalg.norm(other - base)) / denom)
        ok = worst <= 1e-9
        _report(3, ok, f"100 graphs x 10 permutations: max relative deviation "
                       f"{worst:.2e} (<= 1e-9)")

    def test_04_count_identity_exact(self):
        rng = np.random.default_rng(404)
        worst = 0
        for _ in range(200):
            S = int(rng.integers(1, 4))
            m = int(rng.integers(3, 8))
            ks = [int(rng.integers(m, m + 4)) for _ in range(S)]
            schema = ng.AttributeSchema.from_pairs(
                [(f"a{j}", [f"v{j}_{i}" for i in range(ks[j])]) for j in range(S)]
            )
            g = synth.random_graph(rng, schema, m=m, density=0.45,
                                   distinct_values=True)
            B = build_sensing(schema, r=4 * S, seed=int(rng.integers(1 << 31)), scale=1.0)
            worst = max(worst, max(verify_identity(g, B, 3)))
        ok = worst == 0
        _report(4, ok, f"200 attribute-distinct graphs, n in 1..3: "
                       f"max integer residual {worst} (expect 0)")

    def test_05_sparse_recovery_desk_scale(self):
        t0 = time.perf_counter()
        cfg = RecoveryConfig(r_values=(100, 200, 400, 800), k_values=(40,),
                             n_values=(2,), s_values=(5,), trials=100,
                             method="omp", seed=0)
        cells = recovery_experiment(cfg)
        elapsed = time.perf_counter() - t0
        rates = {c.r: c.rate for c in cells}
        monotone = all(
            rates[hi] >= rates[lo] - 0.05
            for lo, hi in zip((100, 200, 400), (200, 400, 800))
        )
        ok = rates[800] >= 0.95 and monotone and elapsed < 120.0
        _report(5, ok, f"k=40 n=2 s=5: rates by r {rates}, "
                       f"rate(800) >= 0.95, monotone up to 5% noise, "
                       f"{elapsed:.1f}s (< 2 min)")

    def test_06_embedding_competitive_with_counts(self):
        rng = np.random.default_rng(606)
        schema = synth.single_attribute_schema(12)
        graphs, labels, counts = synth.count_label_corpus(
            rng, schema, n_graphs=2000, walk_depth=2, noise=0.10
        )
        emb = random_embedding(schema, 100, dist="gaussian", seed=7)
        F, manifest = embed_corpus(graphs, emb, 2, normalization="unit-l2")
        assert not manifest["errors"]
        assert np.all(np.linalg.norm(F, axis=1) <= 1.0 + 1e-12)
        C = counts / np.maximum(np.linalg.norm(counts, axis=1, keepdims=True), 1e-12)

        def standardize(X):
            mu, sd = X.mean(axis=0), X.std(axis=0)
            sd[sd == 0] = 1.0
            return (X - mu) / sd

        auc_c = kfold_features(standardize(C), labels, task="logistic",
                               metric="roc-auc", folds=5, seed=0, lam=1e-6).mean
        auc_f = kfold_features(standardize(F), labels, task="logistic",
                               metric="roc-auc", folds=5, seed=0, lam=1e-6).mean
        gap = abs(auc_c - auc_f)
        ok = auc_c >= 0.85 and auc_f >= 0.85 and gap <= 0.05
        _report(6, ok, f"logistic on counts {auc_c:.4f} vs on embeddings "
                       f"{auc_f:.4f}; both >= 0.85, gap {gap:.4f} <= 0.05")

    def test_07_vertex_embedding_trainability(self):
        rng = np.random.default_rng(707)
        schema = synth.small_schema(ks=(6, 5))
        graphs = synth.neighbor_predictable_corpus(rng, schema, n_graphs=150)
        samples = extract_contexts(graphs, schema)
        cfg = CbowConfig(r=16, aggregator="mean", hidden=(32,), epochs=30,
                         batch_size=128, learning_rate=3e-3, seed=0)
        _, report = train_cbow(samples, schema, cfg)
        acc = report.mean_accuracy

        # analytic gradients vs central finite differences on a 10-sample batch
        net = CbowNetwork(schema, CbowConfig(r=7, hidden=(9, 5), epochs=1, seed=0),
                          np.random.default_rng(0))
        ctx, sz, tg = samples.contexts[:10], samples.sizes[:10], samples.targets[:10]
        _, grads = net.loss_and_grads(ctx, sz, tg)
        analytic = np.concatenate([g.ravel() for g in grads])
        x0 = synth.get_flat(net)
        numeric = np.empty_like(x0)
        eps = 1e-6
        for i in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += eps
            xm[i] -= eps
            synth.set_flat(net, xp)
            lp, _ = net.loss_and_grads(ctx, sz, tg)
            synth.set_flat(net, xm)
            lm, _ = net.loss_and_grads(ctx, sz, tg)
            numeric[i] = (lp - lm) / (2 * eps)
        synth.set_flat(net, x0)
        rel = float(np.linalg.norm(analytic - numeric)
                    / max(np.linalg.norm(analytic), np.linalg.norm(numeric)))
        ok = acc >= 0.95 and rel <= 1e-4
        _report(7, ok, f"held-out mean attribute accuracy {acc:.4f} (>= 0.95), "
                       f"gradient check rel error {rel:.2e} (<= 1e-4)")

    def test_08_throughput_molecule_scale(self):
        rng = np.random.default_rng(808)
        schema = synth.small_schema(ks=(10, 7))
        graphs = synth.molecule_scale_corpus(rng, schema, n_graphs=1128,
                                             m_range=(20, 31))
        emb = random_embedding(schema, 100, dist="gaussian", seed=3)
        t0 = time.perf_counter()
        F, manifest = embed_corpus(graphs, emb, 6)
        elapsed = time.perf_counter() - t0
        ok = elapsed <= 10.0 and not manifest["errors"] and F.shape == (1128, 600)
        _report(8, ok, f"embedded 1128 graphs (m~25, r=100, T=6) in "
                       f"{elapsed:.2f}s (<= 10s)")

    def test_09_planted_walk_length_sweep(self):
        rng = np.random.default_rng(909)
        schema, graphs, labels = synth.planted_walk_corpus(rng, k=6, n_graphs=600,
                                                           planted_level=4)
        fold_values = {}
        for T in (1, 4):
            cfg = PipelineConfig(embedding="random-gaussian", r=32, T=T, variant="path",
                                 lam=1e-6, metric="roc-auc", seed=3)
            rep = kfold_cv(graphs, labels, schema, cfg, folds=5, seed=0)
            fold_values[T] = rep.fold_values
        pairs = list(zip(fold_values[1], fold_values[4]))
        ok = all(hi > lo for lo, hi in pairs)
        _report(9, ok, "per-fold ROC-AUC at T=1 vs T=4: "
                + ", ".join(f"{lo:.3f}<{hi:.3f}" for lo, hi in pairs))

    def test_10_export_surface_for_external_learners(self, tmp_path):
        # The published tree-ensemble numbers are out of reach in-repo (no
        # original datasets, no external learners); the guaranteed surface is
        # a lossless, manifest-carrying export.
        rng = np.random.default_rng(1010)
        schema = synth.small_schema(ks=(7, 6))
        graphs = synth.random_corpus(rng, schema, 64, density=0.35)
        emb = random_embedding(schema, 25, dist="gaussian", seed=4)
        X, manifest = embed_corpus(graphs, emb, 3, normalization="unit-l2")
        paths = export_features(X, manifest, tmp_path / "feats")
        back, manifest_back = load_features(paths["bin"])
        csv_header = paths["csv"].read_text().splitlines()[0].split(",")
        ok = (
            np.array_equal(back, X)
            and manifest_back == manifest
            and manifest_hash(manifest_back) == manifest_hash(manifest)
            and manifest_back["w_provenance"] == emb.provenance
            and csv_header[0] == "g_id"
            and len(csv_header) == 1 + manifest["T"] * manifest["r"]
            and paths["manifest"].exists()
        )
        _report(10, ok, "feature export: bit-identical round-trip, manifest "
                        "hash stable, provenance preserved")
