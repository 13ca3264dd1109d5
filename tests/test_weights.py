"""Weight vectors and block aggregation, mostly property-based."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubaflow.weights import (
    WeightVector,
    block_aggregate,
    concentrated_weights,
    random_band_weights,
)


def test_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        WeightVector(np.array([0.5, 0.4]))  # sum != 1
    with pytest.raises(ValueError):
        WeightVector(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        WeightVector(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        WeightVector(np.array([0.5, 0.5]), band_lo=0.5, band_hi=None)
    with pytest.raises(ValueError):
        # declared band violated: 2*0.9 > 1.5
        WeightVector(np.array([0.9, 0.1]), band_lo=0.1, band_hi=1.5)


def test_fitted_band_is_tight():
    w = WeightVector(np.array([0.1, 0.2, 0.3, 0.4]))
    a, b = w.fitted_band()
    assert a == pytest.approx(0.4)
    assert b == pytest.approx(1.6)
    # the fitted band always revalidates
    WeightVector(w.values, a, b)


def test_concentrated_formula_exact():
    for n in (2, 5, 16):
        w = concentrated_weights(n)
        assert w.values[0] == pytest.approx(float(Fraction(n, n + 1)), abs=2e-16)
        assert np.all(w.values[1:] == float(Fraction(1, (n + 1) * (n - 1))))
        assert math.fsum(w.values) == pytest.approx(1.0, abs=1e-15)
    # the N=16 dominant weight drives the residual floor used downstream
    w16 = concentrated_weights(16)
    assert 2.0 * w16.values[0] - 1.0 == pytest.approx(15.0 / 17.0, abs=1e-15)
    with pytest.raises(ValueError):
        concentrated_weights(1)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_random_band_weights_in_band(n, seed):
    w = random_band_weights(n, 0.5, 2.0, seed)
    assert w.n == n
    assert math.fsum(w.values) == pytest.approx(1.0, abs=1e-12)
    assert w.values.min() >= 0.5 / n - 1e-12
    assert w.values.max() <= 2.0 / n + 1e-12


def test_random_band_weights_deterministic():
    a = random_band_weights(64, 0.5, 2.0, 42)
    b = random_band_weights(64, 0.5, 2.0, 42)
    assert np.array_equal(a.values, b.values)
    c = random_band_weights(64, 0.5, 2.0, 43)
    assert not np.array_equal(a.values, c.values)


def test_random_band_degenerate_band():
    w = random_band_weights(10, 1.0, 1.0, 7)
    assert np.all(w.values == 0.1)


@st.composite
def weight_arrays(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=4.0),
            min_size=n,
            max_size=n,
        )
    )
    vals = np.asarray(raw)
    return vals / vals.sum()


@given(weight_arrays())
@settings(max_examples=60)
def test_block_aggregation_bounds(vals):
    """Blocks land in [1/n, (b+1)/n] and there are at least n/(b+1) of them."""
    n = vals.size
    b = n * float(vals.max())
    agg = block_aggregate(vals)
    assert agg.block_sums.min() >= 1.0 / n - 1e-12
    assert agg.block_sums.max() <= (b + 1.0) / n + 1e-12
    assert agg.m >= n / (b + 1.0) - 1e-9
    # partition of the index set
    assert np.array_equal(np.sort(agg.order), np.arange(n))
    assert set(agg.block_of) == set(range(agg.m))
    assert math.fsum(agg.block_sums) == pytest.approx(1.0, abs=1e-12)


@given(weight_arrays())
@settings(max_examples=30)
def test_block_of_recovers_sums(vals):
    """Summing the weights by ``block_of`` gives ``block_sums``."""
    agg = block_aggregate(vals)
    assert agg.block_of.size == vals.size
    assert np.allclose(np.bincount(agg.block_of, weights=vals, minlength=agg.m), agg.block_sums,
                       atol=1e-15)


def test_block_aggregate_allows_zero_entries():
    vals = np.array([0.0, 0.0, 0.5, 0.5])
    agg = block_aggregate(vals)
    assert math.fsum(agg.block_sums) == pytest.approx(1.0)
    assert agg.block_sums.min() >= 0.25 - 1e-12

