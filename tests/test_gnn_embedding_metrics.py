"""Tests for repro.gnn.embedding and repro.gnn.metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gnn.embedding import EmbeddingTable
from repro.gnn.metrics import accuracy, hits_at_k, micro_f1


class TestEmbeddingTable:
    def test_lookup_shape(self):
        table = EmbeddingTable(100, 8, seed=0)
        out = table.lookup(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 8)

    def test_lookup_out_of_range(self):
        table = EmbeddingTable(10, 4)
        with pytest.raises(ConfigurationError):
            table.lookup(np.array([10]))

    def test_sparse_update(self):
        table = EmbeddingTable(10, 4, seed=0)
        before = table.table.copy()
        table.accumulate_grad(np.array([3]), np.ones((1, 4)))
        table.step(0.5)
        assert np.allclose(table.table[3], before[3] - 0.5)
        untouched = [i for i in range(10) if i != 3]
        assert np.allclose(table.table[untouched], before[untouched])

    def test_duplicate_indices_sum(self):
        table = EmbeddingTable(10, 2, seed=0)
        before = table.table[5].copy()
        table.accumulate_grad(np.array([5, 5]), np.ones((2, 2)))
        table.step(1.0)
        assert np.allclose(table.table[5], before - 2.0)

    def test_pending_rows(self):
        table = EmbeddingTable(10, 2)
        table.accumulate_grad(np.array([1, 2]), np.zeros((2, 2)))
        assert table.pending_rows == 2
        table.step(0.1)
        assert table.pending_rows == 0

    def test_accumulate_grad_out_of_range(self):
        table = EmbeddingTable(10, 2, seed=0)
        before = table.table.copy()
        table.accumulate_grad(np.array([4]), np.ones((1, 2)))
        for bad in (-1, 10):
            with pytest.raises(ConfigurationError):
                table.accumulate_grad(np.array([1, bad]), np.ones((2, 2)))
        # rejected batches leave the earlier pending row as it was
        assert table.pending_rows == 1
        table.step(1.0)
        assert np.array_equal(table.table[:4], before[:4])
        assert np.array_equal(table.table[5:], before[5:])

    def test_grad_shape_mismatch(self):
        table = EmbeddingTable(10, 2)
        with pytest.raises(ConfigurationError):
            table.accumulate_grad(np.array([1]), np.zeros((2, 2)))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EmbeddingTable(0, 4)

    def test_training_moves_embedding_toward_target(self):
        table = EmbeddingTable(5, 3, seed=1)
        target = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        for _ in range(200):
            emb = table.lookup(np.array([2]))
            grad = emb - target
            table.accumulate_grad(np.array([2]), grad)
            table.step(0.1)
        assert np.allclose(table.table[2], target, atol=1e-2)


class TestMetrics:
    def test_micro_f1_perfect(self):
        labels = np.array([[1, 0], [0, 1]])
        assert micro_f1(labels, labels) == 1.0

    def test_micro_f1_zero(self):
        predictions = np.array([[1, 1]])
        labels = np.array([[0, 0]])
        assert micro_f1(predictions, labels) == 0.0

    def test_micro_f1_partial(self):
        predictions = np.array([[1, 0, 1, 0]])
        labels = np.array([[1, 1, 0, 0]])
        # tp=1, fp=1, fn=1 -> f1 = 2/(2+1+1)
        assert micro_f1(predictions, labels) == pytest.approx(0.5)

    def test_micro_f1_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            micro_f1(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_micro_f1_all_negative(self):
        assert micro_f1(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0

    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(
            2 / 3
        )

    def test_accuracy_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_hits_at_1(self):
        scores = np.array([[3.0, 1.0, 2.0], [0.0, 5.0, 1.0]])
        assert hits_at_k(scores, 1) == pytest.approx(0.5)

    def test_hits_at_2(self):
        scores = np.array([[3.0, 1.0, 2.0], [0.5, 5.0, 0.1]])
        assert hits_at_k(scores, 2) == pytest.approx(1.0)

    def test_hits_validation(self):
        with pytest.raises(ConfigurationError):
            hits_at_k(np.zeros((2,)), 1)
        with pytest.raises(ConfigurationError):
            hits_at_k(np.zeros((2, 3)), 5)
