"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.utils.rng import keyed_uniforms, make_rng


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(5)
        b = make_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passes_through_unchanged(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_a_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_threading_a_generator_advances_state(self):
        gen = make_rng(3)
        first = make_rng(gen).random()
        second = make_rng(gen).random()
        assert first != second


def _oracle(root, *key):
    return np.random.default_rng((root, *key)).random()


class TestKeyedUniforms:
    """The column kernel must reproduce numpy's keyed first draw bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.one_of(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=2**32, max_value=2**63 - 1),
        ),
        keys=st.lists(
            st.tuples(
                st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
                st.one_of(st.just(0), st.integers(0, 5000)),
                st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_equals_default_rng_first_double(self, root, keys):
        rounds, sources, destinations = (np.array(c) for c in zip(*keys))
        got = keyed_uniforms(root, rounds, sources, destinations)
        want = [_oracle(root, *(int(k) for k in key)) for key in keys]
        assert got.tolist() == want

    @pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_word_boundaries_of_the_root(self, root):
        ids = np.array([0, 1, 2**32 - 1])
        got = keyed_uniforms(root, 0, ids, ids[::-1])
        want = [_oracle(root, 0, int(s), int(d)) for s, d in zip(ids, ids[::-1])]
        assert got.tolist() == want

    def test_scalar_columns_broadcast_and_shape_is_kept(self):
        grid = np.arange(6).reshape(2, 3)
        got = keyed_uniforms(9, 4, grid, 1)
        assert got.shape == (2, 3)
        assert got[1, 2] == _oracle(9, 4, 5, 1)
        assert keyed_uniforms(9, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_other_key_lengths(self):
        # Fewer words than SeedSequence's pool, and more.
        for columns in ([3], [3, 0], [1, 2, 3, 4, 5, 6]):
            assert keyed_uniforms(77, *columns) == _oracle(77, *columns)

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_keys_outside_one_word_are_rejected(self, bad, position):
        """A wider key is two SeedSequence words: it must not draw *something*."""
        columns = [np.array([1, 2]), np.array([3, 4]), np.array([5, 6])]
        columns[position] = np.array([1, bad])
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*32\)"):
            keyed_uniforms(5, *columns)

    def test_non_integer_input_is_rejected(self):
        with pytest.raises(ConfigurationError):
            keyed_uniforms(5, np.array([0.5]))
        for root in (-1, 1.5, True):
            with pytest.raises(ConfigurationError):
                keyed_uniforms(root, np.array([1]))
