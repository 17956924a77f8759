"""Unit tests for the individual compressor implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    APECompressor,
    RandomKCompressor,
    TernGradCompressor,
    TopKCompressor,
    UniformQuantizer,
    edge_rng,
)
from repro.compression.base import PayloadBatch
from repro.exceptions import ConfigurationError
from repro.network.frames import (
    dequantize_levels,
    encoded_update_bytes,
    quantization_levels,
)


def make_state(compressor, reference, source=0, destination=1, seed=7):
    state = compressor.make_edge_state(reference.size, source, destination, seed)
    state.reference = reference
    return state


class TestTopK:
    def test_sends_k_largest_drifts_in_index_order(self):
        compressor = TopKCompressor(k=2)
        reference = np.zeros(5)
        current = np.array([0.1, -3.0, 0.2, 2.0, 0.0])
        state = make_state(compressor, reference)
        payload = compressor.compress(current, state, {})
        np.testing.assert_array_equal(payload.indices, [1, 3])
        np.testing.assert_array_equal(payload.values, [-3.0, 2.0])

    def test_never_sends_zero_drift_even_below_k(self):
        compressor = TopKCompressor(k=4)
        reference = np.array([1.0, 2.0, 3.0])
        current = np.array([1.0, 5.0, 3.0])
        state = make_state(compressor, reference)
        payload = compressor.compress(current, state, {})
        np.testing.assert_array_equal(payload.indices, [1])

    def test_batch_matches_per_edge_bitwise(self):
        compressor = TopKCompressor(k=3)
        rng = np.random.default_rng(0)
        currents = rng.normal(size=(4, 9))
        references = rng.normal(size=(4, 9))
        states = [make_state(compressor, references[i], 0, i) for i in range(4)]
        batched = compressor.compress_batch(
            currents, references, states, [{}] * 4
        )
        for row in range(4):
            single = compressor.compress(currents[row], states[row], {})
            np.testing.assert_array_equal(batched[row].indices, single.indices)
            np.testing.assert_array_equal(batched[row].values, single.values)

    def test_rejects_bad_k(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ConfigurationError):
                TopKCompressor(k=bad)


class TestRandomK:
    def test_sends_exactly_k_sorted_coordinates(self):
        compressor = RandomKCompressor(k=3)
        reference = np.zeros(10)
        state = make_state(compressor, reference)
        payload = compressor.compress(np.arange(10.0), state, {})
        assert payload.n_sent == 3
        assert np.all(np.diff(payload.indices) > 0)

    def test_draws_depend_only_on_edge_key(self):
        compressor = RandomKCompressor(k=4)
        reference = np.zeros(20)
        a = make_state(compressor, reference, source=2, destination=5)
        b = make_state(compressor, reference, source=2, destination=5)
        current = np.ones(20)
        first = compressor.compress(current, a, {})
        second = compressor.compress(current, b, {})
        np.testing.assert_array_equal(first.indices, second.indices)
        other_edge = make_state(compressor, reference, source=5, destination=2)
        third = compressor.compress(current, other_edge, {})
        assert not np.array_equal(first.indices, third.indices)


class TestUniformQuantizer:
    def test_values_match_receiver_side_dequantization(self):
        compressor = UniformQuantizer(bits=4)
        rng = np.random.default_rng(3)
        reference = rng.normal(size=12)
        current = reference + rng.normal(size=12)
        state = make_state(compressor, reference)
        payload = compressor.compress(current, state, {})
        info = payload.meta["quantization"]
        assert info.bits == 4
        expected = reference[payload.indices] + dequantize_levels(
            info.levels, info.scale, info.bits
        )
        np.testing.assert_array_equal(payload.values, expected)
        cap = quantization_levels(4)
        assert np.all(np.abs(info.levels) <= cap)

    def test_zero_drift_sends_empty_payload(self):
        compressor = UniformQuantizer(bits=4)
        reference = np.ones(6)
        state = make_state(compressor, reference)
        payload = compressor.compress(reference.copy(), state, {})
        assert payload.n_sent == 0
        assert "quantization" not in payload.meta

    def test_batch_matches_per_edge_bitwise(self):
        compressor = UniformQuantizer(bits=6)
        rng = np.random.default_rng(5)
        currents = rng.normal(size=(5, 8))
        references = currents.copy()
        references[1:] += rng.normal(size=(4, 8))  # row 0 has zero drift
        states = [make_state(compressor, references[i], 0, i) for i in range(5)]
        batched = compressor.compress_batch(
            currents, references, states, [{}] * 5
        )
        for row in range(5):
            single = compressor.compress(currents[row], states[row], {})
            np.testing.assert_array_equal(batched[row].indices, single.indices)
            np.testing.assert_array_equal(batched[row].values, single.values)

    def test_wire_bytes_use_quantized_frame_when_cheaper(self):
        compressor = UniformQuantizer(bits=2)
        rng = np.random.default_rng(9)
        reference = np.zeros(400)
        current = rng.normal(size=400)
        state = make_state(compressor, reference)
        payload = compressor.compress(current, state, {})
        size = compressor.bytes_on_wire(payload, 400)
        assert size == encoded_update_bytes(400, 400 - payload.n_sent, 2)
        assert size < encoded_update_bytes(400, 400 - payload.n_sent)


class TestTernGrad:
    def test_levels_are_ternary_and_values_reconstruct(self):
        compressor = TernGradCompressor()
        rng = np.random.default_rng(2)
        reference = rng.normal(size=30)
        current = reference + rng.normal(size=30)
        state = make_state(compressor, reference)
        payload = compressor.compress(current, state, {})
        info = payload.meta["quantization"]
        assert info.bits == 2
        assert set(np.unique(info.levels)) <= {-1, 1}
        expected = reference[payload.indices] + info.scale * info.levels
        np.testing.assert_allclose(payload.values, expected)

    def test_ternarize_is_unbiased_in_expectation(self):
        gradient = np.array([0.5, -1.0, 0.25, 0.0])
        rng = np.random.default_rng(0)
        draws = np.mean(
            [TernGradCompressor.ternarize(gradient, rng) for _ in range(4000)],
            axis=0,
        )
        np.testing.assert_allclose(draws, gradient, atol=0.05)


class TestAPECompressor:
    def test_dense_sends_every_coordinate(self):
        compressor = APECompressor(dense=True)
        reference = np.zeros(4)
        current = np.array([1.0, 0.0, 2.0, 0.0])
        state = make_state(compressor, reference)
        payload = compressor.compress(current, state, compressor.begin_round(current, 0))
        np.testing.assert_array_equal(payload.indices, np.arange(4))
        np.testing.assert_array_equal(payload.values, current)

    def test_zero_threshold_sends_exactly_the_changes(self):
        compressor = APECompressor()  # changed_only preset
        reference = np.array([1.0, 2.0, 3.0])
        current = np.array([1.0, 2.5, 3.0])
        state = make_state(compressor, reference)
        ctx = compressor.begin_round(current, 0)
        payload = compressor.compress(current, state, ctx)
        np.testing.assert_array_equal(payload.indices, [1])
        assert compressor.end_round(ctx) is False


class TestEdgeRng:
    def test_streams_are_order_independent(self):
        a = edge_rng(7, 1, 2).random(5)
        b = edge_rng(7, 2, 1).random(5)
        a_again = edge_rng(7, 1, 2).random(5)
        np.testing.assert_array_equal(a, a_again)
        assert not np.array_equal(a, b)


def _assert_same_payload(columnar, single):
    np.testing.assert_array_equal(columnar.indices, single.indices)
    np.testing.assert_array_equal(columnar.values, single.values)
    assert columnar.indices.dtype == single.indices.dtype
    assert set(columnar.meta) == set(single.meta)
    if "quantization" in single.meta:
        ours, theirs = columnar.meta["quantization"], single.meta["quantization"]
        assert (ours.bits, ours.scale) == (theirs.bits, theirs.scale)
        np.testing.assert_array_equal(ours.levels, theirs.levels)


def _sparse_drift_rows(rng, n_rows=7, d=9):
    """References plus currents whose rows drift in 0, 1, 2, ... coordinates."""
    references = rng.normal(size=(n_rows, d))
    currents = references.copy()
    for row in range(1, n_rows):
        moved = rng.choice(d, size=min(row, d), replace=False)
        currents[row, moved] += rng.normal(size=moved.size)
    return currents, references


class TestColumnarBatch:
    """``compress_batch`` hands back columns; rows must equal ``compress``."""

    @pytest.mark.parametrize(
        "compressor",
        [TopKCompressor(k=4), TopKCompressor(k=20), UniformQuantizer(bits=3),
         UniformQuantizer(bits=8)],
        ids=lambda c: f"{type(c).__name__}-{getattr(c, 'k', getattr(c, 'bits', ''))}",
    )
    def test_rows_with_little_or_no_drift(self, compressor):
        currents, references = _sparse_drift_rows(np.random.default_rng(21))
        batch = compressor.compress_batch(currents, references)
        assert len(batch) == len(currents)
        assert batch.n_sent[0] == 0  # the all-zero-drift row sends nothing
        sizes = batch.wire_bytes(currents.shape[1])
        for row in range(len(currents)):
            state = make_state(compressor, references[row], 0, row)
            single = compressor.compress(currents[row], state, {})
            _assert_same_payload(batch[row], single)
            assert batch.n_sent[row] == single.n_sent
            assert sizes[row] == compressor.bytes_on_wire(single, currents.shape[1])
        assert [p.n_sent for p in batch] == batch.n_sent.tolist()
        with pytest.raises(IndexError):
            batch[len(currents)]

    def test_all_rows_zero_drift_and_empty_batch(self):
        same = np.random.default_rng(3).normal(size=(3, 5))
        for compressor in (TopKCompressor(k=2), UniformQuantizer(bits=4)):
            batch = compressor.compress_batch(same, same.copy())
            assert batch.n_sent.tolist() == [0, 0, 0]
            assert batch.wire_bytes(5).tolist() == [0, 0, 0]
            assert batch[1].n_sent == 0 and batch[1].meta == {}
            empty = compressor.compress_batch(same[:0], same[:0])
            assert len(empty) == 0 and empty.wire_bytes(5).shape == (0,)

    def test_deliver_writes_the_payload_coordinates(self):
        """``deliver`` writes exactly ``batch[r]``'s coordinates and values
        into the delivered rows' references and leaves every other entry,
        for an index-backed, a mask-backed and a dense batch, over every row
        in place and over a subset of them."""
        currents, references = _sparse_drift_rows(np.random.default_rng(4))
        n_rows = len(currents)
        outcome = np.arange(n_rows) % 3 != 1
        for batch in (
            TopKCompressor(k=3).compress_batch(currents, references),
            PayloadBatch.from_mask(currents, currents != references),
            PayloadBatch.from_mask(currents),
        ):
            for rows in (np.arange(n_rows), np.array([0, 2, 3, 5, 8, 9, 11])):
                live = np.random.default_rng(5).normal(
                    size=(rows[-1] + 1, currents.shape[1])
                )
                expected = live.copy()
                for row in np.flatnonzero(outcome).tolist():
                    payload = batch[row]
                    expected[rows[row], payload.indices] = payload.values
                batch.deliver(live, rows, outcome)
                assert np.array_equal(live, expected)

    def test_per_edge_compressors_are_adapted_into_the_same_batch(self):
        """The default ``compress_batch`` packs per-edge payloads as columns."""
        rng = np.random.default_rng(8)
        currents = rng.normal(size=(4, 10))
        references = rng.normal(size=(4, 10))
        references[2] = currents[2]
        for compressor in (RandomKCompressor(k=3), TernGradCompressor()):
            states = [make_state(compressor, np.zeros(10), 0, i) for i in range(4)]
            twins = [make_state(compressor, references[i], 0, i) for i in range(4)]
            batch = compressor.compress_batch(currents, references, states, [{}] * 4)
            assert len(batch) == 4
            sizes = batch.wire_bytes(10)
            for row in range(4):
                single = compressor.compress(currents[row], twins[row], {})
                _assert_same_payload(batch[row], single)
                count = single.n_sent
                np.testing.assert_array_equal(
                    batch.indices[row, :count], single.indices
                )
                np.testing.assert_array_equal(batch.values[row, :count], single.values)
                assert sizes[row] == compressor.bytes_on_wire(single, 10)
