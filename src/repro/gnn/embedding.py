"""Trainable embedding table (the optional CPU embedding stage).

LSD-GNN pipelines often learn an embedding per node ID alongside (or
instead of) raw attributes; the paper keeps this stage on CPU. The
table supports sparse gather/scatter-grad SGD, which is all the
mini-batch workflow needs. The pipelined trainer keeps one dense table
on the coordinator, where all of its compute runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gnn.layers import segment_sum


class EmbeddingTable:
    """Dense embedding matrix with sparse mini-batch updates."""

    def __init__(self, num_nodes: int, dim: int, seed: int = 0) -> None:
        if num_nodes <= 0 or dim <= 0:
            raise ConfigurationError("num_nodes and dim must be positive")
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        self.table = rng.uniform(-scale, scale, size=(num_nodes, dim)).astype(
            np.float32
        )
        self._pending_nodes = np.empty(0, dtype=np.int64)
        self._pending_grads = np.empty((0, dim), dtype=np.float32)

    @property
    def num_nodes(self) -> int:
        return int(self.table.shape[0])

    @property
    def dim(self) -> int:
        return int(self.table.shape[1])

    def _check_range(self, nodes: np.ndarray) -> None:
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ConfigurationError("embedding node IDs outside [0, num_nodes)")

    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Gather embeddings; works for any integer-shaped index tensor."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self._check_range(nodes)
        return self.table[nodes]

    def accumulate_grad(self, nodes: np.ndarray, grads: np.ndarray) -> None:
        """Accumulate gradients for the looked-up rows.

        Duplicate node IDs within a batch sum their gradients, matching
        dense autograd semantics. The merge is one segment-sum scatter
        over the pending rows plus the batch — no per-row Python loop
        (``np.add.at`` applies additions in occurrence order, so the
        float32 sums match the historical loop bit for bit). Node IDs are
        range-checked before any pending state changes.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        self._check_range(nodes)
        grads = np.asarray(grads, dtype=np.float32).reshape(-1, self.dim)
        if nodes.size != grads.shape[0]:
            raise ConfigurationError(
                f"{nodes.size} indices but {grads.shape[0]} gradient rows"
            )
        all_nodes = np.concatenate([self._pending_nodes, nodes])
        all_grads = np.concatenate([self._pending_grads, grads])
        unique, inverse = np.unique(all_nodes, return_inverse=True)
        self._pending_nodes = unique
        self._pending_grads = segment_sum(all_grads, inverse, unique.size)

    def step(self, lr: float) -> None:
        """Apply pending sparse SGD updates.

        Pending node IDs are unique (deduplicated at accumulation), so
        the scatter-subtract is a plain fancy-index update.
        """
        self.table[self._pending_nodes] -= lr * self._pending_grads
        self._pending_nodes = np.empty(0, dtype=np.int64)
        self._pending_grads = np.empty((0, self.dim), dtype=np.float32)

    @property
    def pending_rows(self) -> int:
        """Number of rows with accumulated (unapplied) gradients."""
        return int(self._pending_nodes.size)
