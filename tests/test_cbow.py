import dataclasses
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngram_graph as ng
from ngram_graph import CbowConfig, cbow, extract_contexts, train_cbow
from ngram_graph.cbow import CbowNetwork, TrainingDiverged

from . import synth


def _line_graph(schema, attrs, edges):
    return ng.MolecularGraph(
        num_vertices=len(attrs), attr=attrs, edges=edges,
        schema_fingerprint=schema.fingerprint,
    )


def _per_block_logit_grads(net, logits, targets):
    """The mean loss and the logits' gradient by a loop over the attribute
    blocks, each with its own max, exp, sum and gather."""
    B = logits.shape[0]
    dlogits = np.zeros_like(logits)
    loss = 0.0
    for j, off in enumerate(net.schema.offsets):
        k = net.schema.cardinalities[j]
        block = logits[:, off : off + k]
        block = block - block.max(axis=1, keepdims=True)
        expz = np.exp(block)
        p = expz / expz.sum(axis=1, keepdims=True)
        rows = np.arange(B)
        tj = targets[:, j]
        loss -= np.log(np.maximum(p[rows, tj], 1e-300)).sum()
        grad = p.copy()
        grad[rows, tj] -= 1.0
        dlogits[:, off : off + k] = grad / B
    return loss / B, dlogits


def reference_loss_and_grads(net, contexts, sizes, targets):
    """``CbowNetwork.loss_and_grads`` as it was before its softmax ran in one
    pass, with fresh temporaries: the per-block loop above, then the backward
    pass whose first layer meets W only through P = delta_1^T S_in."""
    acts = net.forward(contexts, sizes)
    loss, delta = _per_block_logit_grads(net, acts[-1], targets)
    grads = []
    for li in range(len(net.layers) - 1, 0, -1):
        A, _ = net.layers[li]
        a_prev = acts[li]
        grads.append((li, delta.T @ a_prev, delta.sum(axis=0)))
        delta = (delta @ A) * (a_prev > 0)
    P = delta.T @ acts[0]
    grads.append((0, P @ net.W.T, delta.sum(axis=0)))
    grad_list = [net.layers[0][0].T @ P]
    for li, gA, gb in sorted(grads):
        grad_list.extend((gA, gb))
    return loss, grad_list


def textbook_loss_and_grads(net, contexts, sizes, targets):
    """Loss and gradients by the textbook chain: the batch embedding
    S_in W^T (B, r) goes through the whole MLP, and W's gradient is the
    back-propagated delta at that embedding times S_in."""
    S_in = net._inputs(contexts, sizes)
    acts = [S_in @ net.W.T]
    for li, (A, b) in enumerate(net.layers):
        z = acts[-1] @ A.T + b
        acts.append(np.maximum(z, 0.0) if li < len(net.layers) - 1 else z)
    loss, delta = _per_block_logit_grads(net, acts[-1], targets)
    grads = []
    for li in range(len(net.layers) - 1, -1, -1):
        A, _ = net.layers[li]
        grads.append((li, delta.T @ acts[li], delta.sum(axis=0)))
        delta = delta @ A
        if li > 0:
            delta = delta * (acts[li] > 0)
    grad_list = [delta.T @ S_in]
    for li, gA, gb in sorted(grads):
        grad_list.extend((gA, gb))
    return loss, grad_list


class _ReferenceNetwork(CbowNetwork):
    """The network with its forward pass as it was before the bias and the
    rectifier ran in place."""

    def forward(self, contexts, sizes):
        acts = [self._inputs(contexts, sizes)]
        for li, (A, b) in enumerate(self.layers):
            M = A @ self.W if li == 0 else A
            z = acts[-1] @ M.T + b
            if li < len(self.layers) - 1:
                z = np.maximum(z, 0.0)
            acts.append(z)
        return acts


def reference_training(samples, schema, cfg):
    """``train_cbow``'s W and epoch losses from the reference network,
    ``reference_loss_and_grads`` and Adam's expressions written out with
    fresh temporaries, drawing from the seed in train_cbow's order."""
    rng = np.random.default_rng(cfg.seed)
    net = _ReferenceNetwork(schema, cfg, rng)
    n = len(samples)
    train = rng.permutation(n)[round(cbow.HOLDOUT_FRACTION * n):]
    params = net.parameters()
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step, losses = 0, []
    for _ in range(cfg.epochs):
        order, epoch_loss = rng.permutation(train.size), 0.0
        for start in range(0, train.size, cfg.batch_size):
            batch = train[order[start : start + cfg.batch_size]]
            loss, grads = reference_loss_and_grads(net, samples.contexts[batch],
                                                   samples.sizes[batch], samples.targets[batch])
            step += 1
            for p, g, ms, vs in zip(params, grads, m_state, v_state):
                ms *= beta1
                ms += (1 - beta1) * g
                vs *= beta2
                vs += (1 - beta2) * g * g
                mhat = ms / (1 - beta1 ** step)
                vhat = vs / (1 - beta2 ** step)
                p -= cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
            epoch_loss += loss * batch.size
        losses.append(epoch_loss / train.size)
    return net.W, losses


def _bits(loss, grads):
    return np.float64(loss).tobytes(), [g.tobytes() for g in grads]


# a 0-vertex graph and an edgeless one, mixed into the corpora below
_ZERO = ng.MolecularGraph(num_vertices=0, attr=np.zeros((0, 2), dtype=np.int64), edges=[])
_EDGELESS = ng.MolecularGraph(num_vertices=3, attr=[[0, 1], [2, 3], [4, 0]], edges=[])


class TestExtractContexts:
    @settings(max_examples=100, deadline=None)
    @given(graphs=st.lists(st.one_of(synth.messy_graphs(synth.small_schema(), max_m=9),
                                     st.sampled_from([_ZERO, _EDGELESS])), max_size=6))
    def test_contexts_equal_dense_reference(self, graphs):
        sch = synth.small_schema()
        ctx, tgt, size = [], [], []
        for g in graphs:  # the per-graph reference, concatenated in order
            a = synth.dense_adjacency(g)
            hot = np.array([synth.one_hot(g, sch, i) for i in range(g.num_vertices)])
            kept = np.flatnonzero(a.sum(axis=1))
            ctx.extend((a @ hot.reshape(-1, sch.total_width))[kept].astype(np.float64))
            tgt.extend(g.attr[kept])
            size.extend(a[kept].sum(axis=1))
        samples = extract_contexts(iter(graphs), sch)
        assert len(samples) == len(size)
        assert np.array_equal(samples.contexts, np.reshape(ctx, (-1, sch.total_width)))
        assert np.array_equal(samples.targets, np.reshape(tgt, (-1, sch.num_attributes)))
        assert np.array_equal(samples.sizes, np.asarray(size, dtype=np.float64))
        assert samples.contexts.dtype == samples.sizes.dtype == np.float64
        assert samples.targets.dtype == np.int64

    def test_empty_corpus_has_no_samples(self, schema):
        samples = extract_contexts([], schema)
        assert len(samples) == 0
        assert samples.contexts.shape == (0, schema.total_width)
        assert samples.targets.shape == (0, schema.num_attributes)
        with pytest.raises(ValueError, match="no context samples to train on"):
            train_cbow(samples, schema, CbowConfig(r=4, epochs=1))

    def test_single_edge_two_samples(self, schema):
        g = _line_graph(schema, [[0, 0], [1, 1]], [[0, 1]])
        samples = extract_contexts([g], schema)
        assert len(samples) == 2
        assert samples.sizes.tolist() == [1.0, 1.0]

    def test_path_middle_vertex_context(self, schema):
        g = _line_graph(schema, [[0, 0], [1, 1], [2, 2]], [[0, 1], [1, 2]])
        samples = extract_contexts([g], schema)
        middle = samples.contexts[1]
        assert samples.sizes[1] == 2
        # context counts = h_0 + h_2
        offs = schema.offsets
        assert middle[offs[0] + 0] == 1
        assert middle[offs[0] + 2] == 1
        assert middle.sum() == 2 * schema.num_attributes

    def test_star_center_has_four_neighbors(self, schema):
        g = _line_graph(
            schema,
            [[0, 0], [1, 1], [2, 2], [3, 3], [4, 0]],
            [[0, 1], [0, 2], [0, 3], [0, 4]],
        )
        samples = extract_contexts([g], schema)
        assert samples.sizes[0] == 4

    def test_isolated_vertices_skipped(self, schema):
        g = _line_graph(schema, [[0, 0], [1, 1], [2, 2]], [[0, 1]])
        samples = extract_contexts([g], schema)
        assert len(samples) == 2


class TestTraining:
    def test_predictable_attribute_reaches_high_accuracy(self, rng):
        sch = synth.small_schema(ks=(6, 5))
        graphs = synth.neighbor_predictable_corpus(rng, sch, n_graphs=120)
        samples = extract_contexts(graphs, sch)
        cfg = CbowConfig(r=16, aggregator="mean", hidden=(32,), epochs=30,
                         batch_size=128, learning_rate=3e-3, seed=0)
        _, report = train_cbow(samples, sch, cfg)
        assert report.holdout_accuracy["attr0"] >= 0.99

    def test_zero_epochs_equals_random_init(self, rng):
        sch = synth.small_schema()
        graphs = synth.random_corpus(rng, sch, 10, density=0.5, connected=True)
        samples = extract_contexts(graphs, sch)
        cfg = CbowConfig(r=8, epochs=0, seed=4)
        emb, report = train_cbow(samples, sch, cfg)
        assert report.epoch_losses == []
        net = CbowNetwork(sch, cfg, np.random.default_rng(4))
        assert np.array_equal(emb.matrix, net.W)

    def test_deterministic_given_seed(self, rng):
        sch = synth.small_schema()
        graphs = synth.random_corpus(rng, sch, 15, density=0.5, connected=True)
        samples = extract_contexts(graphs, sch)
        cfg = CbowConfig(r=6, epochs=3, hidden=(8,), seed=11)
        a, _ = train_cbow(samples, sch, cfg)
        b, _ = train_cbow(samples, sch, cfg)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("field, value, message", [
        ("r", 0, "r must be >= 1"),
        ("batch_size", 0, "batch size must be >= 1"),
        ("epochs", -1, "epochs must be >= 0"),
        ("hidden", (), "hidden layer list must be nonempty"),
        ("hidden", (8, 0), "hidden sizes must be positive"),
        ("hidden", (-4,), "hidden sizes must be positive"),
        ("learning_rate", 0.0, "learning rate must be > 0"),
        ("learning_rate", -1e-3, "learning rate must be > 0"),
        ("learning_rate", float("nan"), "learning rate must be > 0"),
        ("learning_rate", float("inf"), "learning rate must be > 0"),
        ("learning_rate", float("-inf"), "learning rate must be > 0"),
        ("aggregator", "max", "unknown aggregator 'max'"),
    ])
    def test_untrainable_config_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CbowConfig(**{field: value})

    def test_empty_samples_rejected(self, schema):
        with pytest.raises(ValueError):
            train_cbow([], schema, CbowConfig(r=4, epochs=1))

    def test_divergence_names_epoch(self, rng):
        sch = synth.small_schema()
        graphs = synth.random_corpus(rng, sch, 10, density=0.6, connected=True)
        samples = extract_contexts(graphs, sch)
        # a step size at overflow scale drives the forward pass to inf - inf
        cfg = CbowConfig(r=4, epochs=5, hidden=(8, 8), learning_rate=1e200, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train_cbow(samples, sch, cfg)
        assert err.value.epoch >= 0

    def test_unsupervised_no_labels_read(self, rng):
        # identical training output with and without labels on the graphs
        sch = synth.small_schema()
        graphs = synth.random_corpus(rng, sch, 10, density=0.5, connected=True)
        labeled = [dataclasses.replace(g, label=float(i)) for i, g in enumerate(graphs)]
        cfg = CbowConfig(r=5, epochs=2, seed=3)
        a, _ = train_cbow(extract_contexts(graphs, sch), sch, cfg)
        b, _ = train_cbow(extract_contexts(labeled, sch), sch, cfg)
        assert np.array_equal(a.matrix, b.matrix)

    def test_provenance_records_config(self, rng):
        sch = synth.small_schema()
        graphs = synth.random_corpus(rng, sch, 8, density=0.6, connected=True)
        cfg = CbowConfig(r=5, epochs=1, seed=3)
        emb, _ = train_cbow(extract_contexts(graphs, sch), sch, cfg, dataset_id="unit")
        assert emb.provenance["kind"] == "trained"
        assert emb.provenance["dataset_id"] == "unit"
        assert emb.provenance["config_hash"] == cfg.config_hash()

    def test_config_hash_pinned(self):
        # every trained .nggm carries this hash in its provenance
        assert CbowConfig().config_hash() == "47c6bfff0c760969"
        cfg = CbowConfig(r=7, aggregator="mean", hidden=(3, 4), learning_rate=0.5, seed=3)
        assert cfg.config_hash() == "028388624af59db3"


class TestNetworkMath:
    @pytest.mark.parametrize("ks", [ng.FULL_SCHEMA.cardinalities, (3, 1, 12)],
                             ids=["full", "one-value-attribute"])
    @pytest.mark.parametrize("B", [1, 2, 256, 300])
    @pytest.mark.parametrize("spread", [1.0, 700.0])
    def test_loss_and_grads_equal_per_block_reference(self, ks, B, spread):
        """Bit for bit, also where a target's probability underflows to the
        1e-300 clamp (logits up to +-700). AttributeSchema refuses a
        one-value attribute, so that layout is a stand-in with the fields
        the network reads."""
        sch = SimpleNamespace(cardinalities=ks, offsets=tuple(accumulate(ks, initial=0))[:-1],
                              total_width=sum(ks), num_attributes=len(ks))
        rng = np.random.default_rng([B, int(spread), len(ks)])
        net = CbowNetwork(sch, CbowConfig(r=6, hidden=(9,), seed=0), rng)
        net.layers[-1][1][:] = rng.uniform(-spread, spread, sch.total_width)
        contexts = rng.poisson(1.0, (B, sch.total_width)).astype(np.float64)
        sizes = contexts.sum(axis=1) + 1.0
        targets = np.stack([rng.integers(0, k, B) for k in ks], axis=1)
        got = net.loss_and_grads(contexts, sizes, targets)
        ref = reference_loss_and_grads(net, contexts, sizes, targets)
        assert _bits(*got) == _bits(*ref)
        if spread == 700.0 and B > 2:  # some target's probability is under the clamp
            logits = net.forward(contexts, sizes)[-1]
            starts = np.asarray(sch.offsets)
            gaps = (np.maximum.reduceat(logits, starts, axis=1)
                    - logits[np.arange(B)[:, None], starts + targets])
            assert gaps.max() > -np.log(1e-300)

    @pytest.mark.parametrize("ks", [ng.FULL_SCHEMA.cardinalities, (3, 1, 12)],
                             ids=["full", "one-value-attribute"])
    @pytest.mark.parametrize("B", [1, 2, 256, 300])
    @pytest.mark.parametrize("spread", [1.0, 700.0])
    @pytest.mark.parametrize("aggregator", ["sum", "mean"])
    @pytest.mark.parametrize("hidden", [(9,), (10, 7)])
    def test_loss_and_grads_equal_textbook_chain(self, ks, B, spread, aggregator, hidden):
        """The first layer's K-side form is exact algebra: loss and every
        gradient agree with the chain through (S_in W^T) A_1^T to 1e-12
        relative, each gradient by its norm."""
        sch = SimpleNamespace(cardinalities=ks, offsets=tuple(accumulate(ks, initial=0))[:-1],
                              total_width=sum(ks), num_attributes=len(ks))
        rng = np.random.default_rng([B, int(spread), len(ks), len(hidden)])
        cfg = CbowConfig(r=6, aggregator=aggregator, hidden=hidden, seed=0)
        net = CbowNetwork(sch, cfg, rng)
        net.layers[-1][1][:] = rng.uniform(-spread, spread, sch.total_width)
        contexts = rng.poisson(1.0, (B, sch.total_width)).astype(np.float64)
        sizes = contexts.sum(axis=1) + 1.0
        targets = np.stack([rng.integers(0, k, B) for k in ks], axis=1)
        loss, grads = net.loss_and_grads(contexts, sizes, targets)
        ref_loss, ref_grads = textbook_loss_and_grads(net, contexts, sizes, targets)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert [g.shape for g in grads] == [g.shape for g in ref_grads]
        for g, ref in zip(grads, ref_grads):
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_training_writes_the_reference_weights(self, rng, monkeypatch):
        sch = synth.small_schema(ks=(6, 5))
        samples = extract_contexts(synth.neighbor_predictable_corpus(rng, sch, n_graphs=60),
                                   sch)
        cfg = CbowConfig(r=8, hidden=(12,), epochs=30, batch_size=64, seed=5)
        emb, report = train_cbow(samples, sch, cfg)
        monkeypatch.setattr(CbowNetwork, "loss_and_grads", reference_loss_and_grads)
        ref_emb, ref_report = train_cbow(samples, sch, cfg)
        assert emb.matrix.tobytes() == ref_emb.matrix.tobytes()
        assert report.epoch_losses == ref_report.epoch_losses

    @pytest.mark.parametrize("aggregator", ["sum", "mean"])
    @pytest.mark.parametrize("hidden", [(12,), (10, 7)])
    def test_training_equals_the_reference_loop(self, aggregator, hidden):
        """Bit for bit: W and every epoch loss, over 3 epochs whose last
        batch is short."""
        sch = synth.small_schema(ks=(6, 5))
        rng = np.random.default_rng([len(hidden), len(aggregator)])
        samples = extract_contexts(synth.neighbor_predictable_corpus(rng, sch, n_graphs=40),
                                   sch)
        cfg = CbowConfig(r=8, aggregator=aggregator, hidden=hidden, epochs=3, batch_size=37,
                         learning_rate=3e-3, seed=2)
        assert (len(samples) - round(cbow.HOLDOUT_FRACTION * len(samples))) % 37
        emb, report = train_cbow(samples, sch, cfg)
        W, losses = reference_training(samples, sch, cfg)
        assert emb.matrix.tobytes() == W.tobytes()
        assert report.epoch_losses == losses

    def test_gradients_match_finite_differences(self, rng):
        sch = synth.small_schema(ks=(3, 2))
        graphs = synth.random_corpus(rng, sch, 5, density=0.6, connected=True)
        samples = extract_contexts(graphs, sch)
        ctx, sz, tg = samples.contexts[:10], samples.sizes[:10], samples.targets[:10]
        assert len(sz) == 10
        cfg = CbowConfig(r=7, aggregator="sum", hidden=(9, 5), epochs=1, seed=0)
        net = CbowNetwork(sch, cfg, np.random.default_rng(0))
        _, grads = net.loss_and_grads(ctx, sz, tg)
        analytic = np.concatenate([g.ravel() for g in grads])

        x0 = synth.get_flat(net)
        numeric = np.empty_like(x0)
        eps = 1e-6
        for i in range(x0.size):
            for sgn, slot in ((+1, 0), (-1, 1)):
                x = x0.copy()
                x[i] += sgn * eps
                synth.set_flat(net, x)
                val, _ = net.loss_and_grads(ctx, sz, tg)
                if slot == 0:
                    up = val
                else:
                    down = val
            numeric[i] = (up - down) / (2 * eps)
        synth.set_flat(net, x0)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-4

    def test_mean_aggregator_single_context_is_exact_lookup(self):
        sch = synth.single_attribute_schema(4)
        cfg = CbowConfig(r=3, aggregator="mean", hidden=(4,), epochs=1, seed=0)
        net = CbowNetwork(sch, cfg, np.random.default_rng(1))
        ctx = np.zeros((1, 4))
        ctx[0, 2] = 1.0  # single neighbor with value index 2
        assert net._inputs(ctx, np.array([1.0])).tolist() == [[0.0, 0.0, 1.0, 0.0]]
        A1, b1 = net.layers[0]
        b1[:] = 10.0  # keeps every first-layer unit on, so its output is z_1
        z1 = net.forward(ctx, np.array([1.0]))[1][0]
        assert np.allclose(z1, A1 @ net.W[:, 2] + b1, rtol=1e-14, atol=0)

    def test_sum_aggregator_scales_with_context(self):
        sch = synth.single_attribute_schema(4)
        cfg = CbowConfig(r=3, aggregator="sum", hidden=(4,), epochs=1, seed=0)
        net = CbowNetwork(sch, cfg, np.random.default_rng(1))
        ctx = np.zeros((1, 4))
        ctx[0, 2] = 3.0
        assert net._inputs(ctx, np.array([3.0])).tolist() == [[0.0, 0.0, 3.0, 0.0]]
        A1, b1 = net.layers[0]
        b1[:] = 10.0  # keeps every first-layer unit on, so its output is z_1
        z1 = net.forward(ctx, np.array([3.0]))[1][0]
        assert np.allclose(z1, A1 @ (3.0 * net.W[:, 2]) + b1, rtol=1e-14, atol=0)
