"""Neighbor-context training of the vertex embedding matrix.

Each non-isolated vertex yields one sample: predict its attributes from the
aggregate of its neighbors' embeddings. A corpus's samples are the arrays
of one :class:`Contexts`, from one count of the (vertex, neighbor one-hot
slot) pairs of its stacked adjacency. The predictor is W followed by a
small rectifier MLP whose K outputs are split into per-attribute blocks,
each scored with softmax cross-entropy. Training is mini-batch Adam on all
parameters (W included), in float64, fully deterministic given the seed.
W meets a batch only through A_1 W and delta_1^T S_in, both (h, K): the
first layer applies A_1 W to the batch's (B, K) inputs S_in, and the
gradients of A_1 and W are P W^T and A_1^T P for P = delta_1^T S_in, where
delta_1 is the loss gradient at the first layer's output. So no (B, r)
batch embedding is formed, and a batch costs about 2BhK + 3hrK
multiply-adds in the first layer instead of 3Bhr + 2BrK.
The last layer writes its logits block-major, (K, B), so each attribute
block is a run of contiguous rows; training and prediction read that one
layout. Each block's softmax sum adds its rows one by one, in order, so
its bits follow from the code, not from numpy's summation internals.
The parameters, their gradients and Adam's two moments are one flat
buffer each, so the Adam update is one pass of in-place operations over
all parameters, with its temporaries in two scratch buffers allocated once
per training, each moment and step in the order of the textbook
expressions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from .graph import stack_graphs
from .schema import AttributeSchema
from .vertex import VertexEmbeddingMatrix

HOLDOUT_FRACTION = 0.1


class TrainingDiverged(FloatingPointError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class Contexts:
    """The N samples of a corpus, one row per non-isolated vertex in
    graph-then-vertex order: its attribute value indices and the summed
    one-hot vector and size of its neighborhood."""

    targets: np.ndarray       # (N, S) int64 value indices
    contexts: np.ndarray      # (N, K) float64 summed one-hot counts
    sizes: np.ndarray         # (N,) float64 neighbor counts

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class CbowConfig:
    r: int = 100
    aggregator: str = "sum"   # "sum" or "mean"
    hidden: tuple[int, ...] = (100,)
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not self.hidden:
            raise ValueError("hidden layer list must be nonempty")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be positive")
        if not 0 < self.learning_rate < float("inf"):  # NaN fails too
            raise ValueError("learning rate must be > 0 and finite")
        if self.aggregator not in ("sum", "mean"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class TrainingReport:
    epoch_losses: list = field(default_factory=list)
    holdout_accuracy: dict = field(default_factory=dict)  # attribute name -> accuracy
    mean_accuracy: float | None = None


def extract_contexts(graphs, schema: AttributeSchema) -> Contexts:
    """One sample per non-isolated vertex; isolated vertices are skipped."""
    graphs = list(graphs)
    K = schema.total_width
    if not graphs:
        return Contexts(np.zeros((0, schema.num_attributes), dtype=np.int64),
                        np.zeros((0, K)), np.zeros(0))
    indptr, indices, attr, _ = stack_graphs(graphs)
    degs = np.diff(indptr)
    keep = np.flatnonzero(degs)
    # each adjacency entry adds one to its sample's row at each one-hot slot
    # of the neighbor; the counts are small integers, exact in float64
    rows = np.repeat(np.arange(keep.size), degs[keep])
    slots = np.asarray(schema.offsets, dtype=np.int64) + attr[indices]
    counts = np.bincount((rows[:, None] * K + slots).ravel(), minlength=keep.size * K)
    return Contexts(targets=attr[keep], contexts=counts.reshape(-1, K).astype(np.float64),
                    sizes=degs[keep].astype(np.float64))


class CbowNetwork:
    """W plus a rectifier MLP mapping r -> hidden... -> K logits.

    The parameters live in one flat float64 buffer, W first and then each
    layer's A and b, and their gradients in another of the same layout;
    ``W`` and each layer's ``[A, b]`` are views of the first, and
    :meth:`loss_and_grads` writes into views of the second."""

    def __init__(self, schema: AttributeSchema, cfg: CbowConfig, rng: np.random.Generator):
        self.schema = schema
        self.cfg = cfg
        K = schema.total_width
        sizes = [cfg.r, *cfg.hidden, K]
        shapes = [(cfg.r, K)]
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            shapes += [(fan_out, fan_in), (fan_out,)]
        self._flat = np.zeros(sum(math.prod(s) for s in shapes))
        self._flat_grad = np.empty_like(self._flat)
        params, self._grads = _views(self._flat, shapes), _views(self._flat_grad, shapes)
        self.W = params[0]
        self.layers = [params[i : i + 2] for i in range(1, len(params), 2)]
        # W gets the same spread as a random embedding so epoch-0 output is
        # directly usable; MLP layers get He-style fan-in scaling; biases start at 0.
        self.W[...] = rng.standard_normal(self.W.shape) * (cfg.r ** -0.5)
        for A, _ in self.layers:
            A[...] = rng.standard_normal(A.shape) * np.sqrt(2.0 / A.shape[1])
        # the logits' runs of equal-width blocks: (first row, blocks, width)
        self._runs, row = [], 0
        for k, blocks in groupby(schema.cardinalities):
            g = len(list(blocks))
            self._runs.append((row, g, k))
            row += g * k

    # -- forward / backward ----------------------------------------------------

    def _inputs(self, contexts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        if self.cfg.aggregator == "mean":
            return contexts / sizes[:, None]
        return contexts

    def forward(self, contexts: np.ndarray, sizes: np.ndarray):
        """The network's input S_in (B, K), each hidden layer's rectified
        output (B, h) and the logits, block-major: (K, B) = A_L a^T + b_L,
        so each attribute block is a run of contiguous rows."""
        acts = [self._inputs(contexts, sizes)]
        *hidden, (A_L, b_L) = self.layers
        for li, (A, b) in enumerate(hidden):
            z = acts[-1] @ (A @ self.W if li == 0 else A).T
            z += b
            np.maximum(z, 0.0, out=z)
            acts.append(z)
        z = A_L @ acts[-1].T
        z += b_L[:, None]
        acts.append(z)
        return acts

    def loss_and_grads(self, contexts, sizes, targets):
        """Mean per-sample loss (summed over attribute blocks) and gradients
        (W's, then each layer's A and b), as views of the network's
        gradient buffer, which the call overwrites.

        The softmax runs in place on the (K, B) logits, one (g, k, B) view
        per run of g equal-width blocks: each block's max over its k rows,
        one ``exp`` over all K rows, then each block's sum, its rows added
        one by one in order, and a division. The loss adds up the targets'
        log-probabilities attribute by attribute, each attribute's B terms
        by one ``sum``.
        """
        B = contexts.shape[0]
        acts = self.forward(contexts, sizes)
        p = acts[-1]  # the logits, which the backward pass does not read
        for row, g, k in self._runs:
            run = p[row : row + g * k].reshape(g, k, B)
            run -= run.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        for row, g, k in self._runs:
            run = p[row : row + g * k].reshape(g, k, B)
            total = run[:, 0].copy()
            for i in range(1, k):
                total += run[:, i]
            run /= total[:, None]
        # the targets' (S, B) positions in p, whose ravel is a view
        flat = (np.asarray(self.schema.offsets)[:, None] + targets.T) * B + np.arange(B)
        picked = p.ravel()[flat]
        loss = 0.0
        for terms in np.log(np.maximum(picked, 1e-300)):
            loss -= terms.sum()
        picked -= 1.0
        p.ravel()[flat] = picked
        p /= B  # the logits' gradient, block-major like the logits
        loss /= B

        grads = self._grads  # W's, then A_l's at 2l + 1 and b_l's at 2l + 2
        np.matmul(p, acts[-2], out=grads[-2])
        np.sum(p, axis=1, out=grads[-1])
        delta = p.T @ self.layers[-1][0]
        delta *= acts[-2] > 0
        for li in range(len(self.layers) - 2, 0, -1):
            np.matmul(delta.T, acts[li], out=grads[2 * li + 1])
            np.sum(delta, axis=0, out=grads[2 * li + 2])
            delta = delta @ self.layers[li][0]
            delta *= acts[li] > 0
        # the first layer's and W's gradients share P = delta_1^T S_in (h, K)
        P = delta.T @ acts[0]
        np.matmul(P, self.W.T, out=grads[1])
        np.sum(delta, axis=0, out=grads[2])
        np.matmul(self.layers[0][0].T, P, out=grads[0])
        return loss, grads

    def predict_blocks(self, contexts, sizes) -> np.ndarray:
        """Argmax value index per attribute block, shape (B, S)."""
        logits = self.forward(contexts, sizes)[-1]
        out = np.empty((contexts.shape[0], self.schema.num_attributes), dtype=np.int64)
        for j, off in enumerate(self.schema.offsets):
            k = self.schema.cardinalities[j]
            out[:, j] = logits[off : off + k].argmax(axis=0)
        return out


def _views(flat, shapes):
    """Consecutive views of a flat buffer, one per shape."""
    ends = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return [part.reshape(s) for part, s in zip(np.split(flat, ends), shapes)]


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_cbow(
    samples: Contexts,
    schema: AttributeSchema,
    cfg: CbowConfig | None = None,
    dataset_id: str = "unnamed",
):
    """Fit W on context samples; returns (VertexEmbeddingMatrix, TrainingReport)."""
    cfg = cfg or CbowConfig()
    n = len(samples)
    if not n:
        raise ValueError("no context samples to train on")
    rng = np.random.default_rng(cfg.seed)
    net = CbowNetwork(schema, cfg, rng)
    contexts, sizes, targets = samples.contexts, samples.sizes, samples.targets

    n_hold = round(HOLDOUT_FRACTION * n)  # below n for every n >= 1
    order = rng.permutation(n)
    hold, train = order[:n_hold], order[n_hold:]

    report = TrainingReport()

    # Adam's moments and two scratch buffers, each as flat as the parameters
    params, grads = net._flat, net._flat_grad
    m_state, v_state = np.zeros_like(params), np.zeros_like(params)
    s, t = np.empty_like(params), np.empty_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    # a step that overflows shows as a non-finite loss, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            for idx in _batches(train.size, cfg.batch_size, rng):
                batch = train[idx]
                loss, _ = net.loss_and_grads(contexts[batch], sizes[batch], targets[batch])
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch)
                step += 1
                c1, c2 = 1 - beta1 ** step, 1 - beta2 ** step
                # m = beta1 m + (1-beta1) g, v = beta2 v + ((1-beta2) g) g and
                # p -= (lr mhat) / (sqrt(vhat) + eps), each in that order
                m_state *= beta1
                m_state += np.multiply(grads, 1 - beta1, out=s)
                v_state *= beta2
                np.multiply(grads, 1 - beta2, out=s)
                s *= grads
                v_state += s
                np.divide(v_state, c2, out=s)
                np.sqrt(s, out=s)
                s += eps
                np.divide(m_state, c1, out=t)
                t *= cfg.learning_rate
                t /= s
                params -= t
                epoch_loss += loss * batch.size
            report.epoch_losses.append(epoch_loss / train.size)

    eval_idx = hold if hold.size else train  # n = 1 holds nothing out
    pred = net.predict_blocks(contexts[eval_idx], sizes[eval_idx])
    correct = pred == targets[eval_idx]
    for j, name in enumerate(schema.attribute_names):
        report.holdout_accuracy[name] = float(correct[:, j].mean())
    report.mean_accuracy = float(np.mean(list(report.holdout_accuracy.values())))

    prov = {
        "kind": "trained",
        "dataset_id": dataset_id,
        "config_hash": cfg.config_hash(),
        "epochs": cfg.epochs,
        "seed": cfg.seed,
    }
    emb = VertexEmbeddingMatrix(matrix=net.W.copy(), schema=schema, provenance=prov)
    return emb, report
