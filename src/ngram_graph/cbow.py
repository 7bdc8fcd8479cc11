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
The Adam update writes its temporaries into two scratch buffers per
parameter, allocated once per training, and computes each moment and step
in the order of the textbook expressions, so the weights keep their bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

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
    """W plus a rectifier MLP mapping r -> hidden... -> K logits."""

    def __init__(self, schema: AttributeSchema, cfg: CbowConfig, rng: np.random.Generator):
        self.schema = schema
        self.cfg = cfg
        K = schema.total_width
        sizes = [cfg.r, *cfg.hidden, K]
        # W gets the same spread as a random embedding so epoch-0 output is
        # directly usable; MLP layers get He-style fan-in scaling.
        self.W = rng.standard_normal((cfg.r, K)) * (cfg.r ** -0.5)
        self.layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            A = rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)
            b = np.zeros(fan_out)
            self.layers.append([A, b])

    # -- parameter plumbing (used by Adam and by finite-difference checks) ----

    def parameters(self) -> list[np.ndarray]:
        out = [self.W]
        for A, b in self.layers:
            out.extend((A, b))
        return out

    # -- forward / backward ----------------------------------------------------

    def _inputs(self, contexts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        if self.cfg.aggregator == "mean":
            return contexts / sizes[:, None]
        return contexts

    def forward(self, contexts: np.ndarray, sizes: np.ndarray):
        """The network's input S_in (B, K), each hidden layer's rectified
        output and the logits."""
        acts = [self._inputs(contexts, sizes)]
        for li, (A, b) in enumerate(self.layers):
            z = acts[-1] @ (A @ self.W if li == 0 else A).T
            z += b
            if li < len(self.layers) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def loss_and_grads(self, contexts, sizes, targets):
        """Mean per-sample loss (summed over attribute blocks) and gradients.

        The blocks' softmax runs in one pass over the K logits, in place,
        with each block's max and sum spread over its columns by one
        column-to-block index. Only the two reductions whose order reaches
        the bits stay per block: each block's row sums and each block's loss
        sum, added into the loss block by block.
        """
        B = contexts.shape[0]
        acts = self.forward(contexts, sizes)
        p = acts[-1]  # the logits, which the backward pass does not read

        offsets, widths = self.schema.offsets, self.schema.cardinalities
        starts = np.asarray(offsets)
        block = np.repeat(np.arange(starts.size), widths)  # each column's block
        p -= np.maximum.reduceat(p, starts, axis=1)[:, block]
        np.exp(p, out=p)
        sums = [p[:, off : off + k].sum(axis=1) for off, k in zip(offsets, widths)]
        p /= np.stack(sums, axis=1)[:, block]
        # the targets' (S, B) positions in p, a fresh C-ordered product whose
        # ravel is a view
        flat = (starts[:, None] + targets.T) + np.arange(0, B * p.shape[1], p.shape[1])
        picked = p.ravel()[flat]
        loss = 0.0
        for row in np.log(np.maximum(picked, 1e-300)):
            loss -= row.sum()
        picked -= 1.0
        p.ravel()[flat] = picked
        p /= B  # the logits' gradient
        loss /= B

        grads = []
        delta = p
        for li in range(len(self.layers) - 1, 0, -1):
            A, _ = self.layers[li]
            a_prev = acts[li]
            grads.append((delta.T @ a_prev, delta.sum(axis=0)))
            delta = delta @ A
            delta *= a_prev > 0
        # the first layer's and W's gradients share P = delta_1^T S_in (h, K)
        P = delta.T @ acts[0]
        grads.append((P @ self.W.T, delta.sum(axis=0)))
        grad_list = [self.layers[0][0].T @ P]
        for gA, gb in reversed(grads):
            grad_list.extend((gA, gb))
        return loss, grad_list

    def predict_blocks(self, contexts, sizes) -> np.ndarray:
        """Argmax value index per attribute block, shape (B, S)."""
        logits = self.forward(contexts, sizes)[-1]
        out = np.empty((contexts.shape[0], self.schema.num_attributes), dtype=np.int64)
        for j, off in enumerate(self.schema.offsets):
            k = self.schema.cardinalities[j]
            out[:, j] = logits[:, off : off + k].argmax(axis=1)
        return out


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

    # Adam state, and two scratch buffers per parameter for its update
    params = net.parameters()
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    # a step that overflows shows as a non-finite loss, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            for idx in _batches(train.size, cfg.batch_size, rng):
                batch = train[idx]
                loss, grads = net.loss_and_grads(contexts[batch], sizes[batch], targets[batch])
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch)
                step += 1
                c1, c2 = 1 - beta1 ** step, 1 - beta2 ** step
                for p, g, ms, vs, (s, t) in zip(params, grads, m_state, v_state, scratch):
                    # ms = beta1 ms + (1-beta1) g, vs = beta2 vs + ((1-beta2) g) g and
                    # p -= (lr mhat) / (sqrt(vhat) + eps), each in that order
                    ms *= beta1
                    ms += np.multiply(g, 1 - beta1, out=s)
                    vs *= beta2
                    np.multiply(g, 1 - beta2, out=s)
                    s *= g
                    vs += s
                    np.divide(vs, c2, out=s)
                    np.sqrt(s, out=s)
                    s += eps
                    np.divide(ms, c1, out=t)
                    t *= cfg.learning_rate
                    t /= s
                    p -= t
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
