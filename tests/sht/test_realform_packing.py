"""Bit-identity of the vectorised real<->complex packing.

``real_from_complex`` and ``complex_from_real`` pack with index and sign
arrays cached per band-limit.  The per-coefficient loops they replaced
live on here as the reference, and every output bit must match them:
the fitted state, the served chunks and their content addresses all
depend on it.

One carve-out: where a NaN meets another NaN (e.g. ``re + 1j * im`` with
both parts NaN), IEEE 754 leaves the payload and sign of the result
unspecified, and numpy's scalar, strided and SIMD loops pick different
operands.  The reference loop itself returns different NaN bits for the
same row depending on the leading shape, so for ``complex_from_real``
NaN components are compared as NaN, and every other component bit for
bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sht import realform, transform
from repro.sht.realform import complex_from_real, real_from_complex
from repro.sht.transform import bandlimit_from_coeff_count, coeff_index

_SQRT2 = np.sqrt(2.0)


def reference_real_from_complex(coeffs: np.ndarray) -> np.ndarray:
    """The per-coefficient packing loop (the pre-vectorisation code)."""
    coeffs = np.asarray(coeffs)
    lmax = bandlimit_from_coeff_count(coeffs.shape[-1])
    out = np.empty(coeffs.shape[:-1] + (lmax * lmax,), dtype=np.float64)
    for ell in range(lmax):
        out[..., coeff_index(ell, 0)] = coeffs[..., coeff_index(ell, 0)].real
        for m in range(1, ell + 1):
            c = coeffs[..., coeff_index(ell, m)]
            out[..., coeff_index(ell, m)] = _SQRT2 * c.real
            out[..., coeff_index(ell, -m)] = _SQRT2 * c.imag
    return out


def reference_complex_from_real(real_coeffs: np.ndarray) -> np.ndarray:
    """The per-coefficient unpacking loop (the pre-vectorisation code)."""
    real_coeffs = np.asarray(real_coeffs, dtype=np.float64)
    lmax = bandlimit_from_coeff_count(real_coeffs.shape[-1])
    out = np.zeros(real_coeffs.shape[:-1] + (lmax * lmax,), dtype=np.complex128)
    for ell in range(lmax):
        out[..., coeff_index(ell, 0)] = real_coeffs[..., coeff_index(ell, 0)]
        for m in range(1, ell + 1):
            re = real_coeffs[..., coeff_index(ell, m)] / _SQRT2
            im = real_coeffs[..., coeff_index(ell, -m)] / _SQRT2
            value = re + 1j * im
            out[..., coeff_index(ell, m)] = value
            out[..., coeff_index(ell, -m)] = ((-1) ** m) * np.conj(value)
    return out


_NEG_NAN = -np.float64(np.nan)
#: Signed zeros, infinities, quiet NaNs of both signs, subnormals and
#: the float64 extremes.
SPECIALS = (
    0.0, -0.0, np.inf, -np.inf, np.nan, _NEG_NAN,
    5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
    np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0,
)

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def assert_bits_equal(expected: np.ndarray, got: np.ndarray) -> None:
    assert expected.dtype == got.dtype and expected.shape == got.shape
    assert np.array_equal(expected.view(np.uint64), got.view(np.uint64))


def assert_bits_equal_up_to_nan_payload(expected: np.ndarray, got: np.ndarray) -> None:
    assert expected.dtype == got.dtype and expected.shape == got.shape
    parts_expected = expected.view(np.float64)
    parts_got = got.view(np.float64)
    nan = np.isnan(parts_expected)
    assert np.array_equal(nan, np.isnan(parts_got))
    assert np.array_equal(
        parts_expected[~nan].view(np.uint64), parts_got[~nan].view(np.uint64)
    )


@st.composite
def packed_shapes(draw):
    """``lead + (L**2,)`` for ``L`` in 1..64 and up to three leading axes."""
    lmax = draw(st.integers(1, 64))
    lead = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    return lead + (lmax * lmax,)


def planted_values(draw, shape) -> np.ndarray:
    """Gaussian values with special values (and arbitrary floats) planted
    at drawn positions."""
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).standard_normal(shape)
    flat = values.reshape(-1)
    if flat.size:
        planted = draw(st.lists(
            st.tuples(
                st.integers(0, flat.size - 1),
                st.one_of(st.sampled_from(SPECIALS), st.floats(width=64)),
            ),
            max_size=48,
        ))
        for position, value in planted:
            flat[position] = value
    return values


@st.composite
def real_arrays(draw):
    return planted_values(draw, draw(packed_shapes()))


@st.composite
def complex_arrays(draw):
    shape = draw(packed_shapes())
    # Assemble through the component views: arithmetic (re + 1j*im)
    # would turn inf * 0 into NaN before the packing ever runs.
    out = np.empty(shape, dtype=np.complex128)
    out.real = planted_values(draw, shape)
    out.imag = planted_values(draw, shape)
    return out


class TestPackingBitIdentity:
    @_SETTINGS
    @given(real_arrays())
    def test_complex_from_real_matches_reference_loop(self, values):
        with np.errstate(all="ignore"):
            expected = reference_complex_from_real(values)
            got = complex_from_real(values)
        assert_bits_equal_up_to_nan_payload(expected, got)

    @_SETTINGS
    @given(complex_arrays())
    def test_real_from_complex_matches_reference_loop(self, coeffs):
        with np.errstate(all="ignore"):
            expected = reference_real_from_complex(coeffs)
            got = real_from_complex(coeffs)
        assert_bits_equal(expected, got)

    @pytest.mark.parametrize("lmax", [1, 2, 5, 16, 48])
    def test_special_values_at_every_order(self, lmax):
        # Every special value lands on m = 0, m > 0 and m < 0 slots, and
        # on both halves of every (l, +-m) pair across the rows.
        n = lmax * lmax
        rows = [np.roll(np.resize(SPECIALS, n), shift) for shift in range(len(SPECIALS))]
        values = np.stack(rows)
        coeffs = np.empty(values.shape, dtype=np.complex128)
        coeffs.real = values
        coeffs.imag = values[::-1]
        with np.errstate(all="ignore"):
            assert_bits_equal_up_to_nan_payload(
                reference_complex_from_real(values), complex_from_real(values)
            )
            assert_bits_equal(
                reference_real_from_complex(coeffs), real_from_complex(coeffs)
            )

    def test_finite_chunk_is_bit_identical_including_every_zero(self):
        # The synthesis hot path's shape: (realizations, steps, L**2).
        values = np.random.default_rng(3).standard_normal((2, 24, 48 * 48))
        values[:, :, ::7] = -0.0
        assert_bits_equal(reference_complex_from_real(values), complex_from_real(values))
        coeffs = complex_from_real(values)
        assert_bits_equal(reference_real_from_complex(coeffs), real_from_complex(coeffs))


class TestNoPerCoefficientLoop:
    def test_hot_packing_never_calls_coeff_index(self, monkeypatch):
        """Fails if a per-coefficient Python loop comes back: the hot
        functions must pack by fancy-indexing with the cached arrays."""
        values = np.random.default_rng(0).standard_normal((3, 16 * 16))
        coeffs = reference_complex_from_real(values)
        expected = complex_from_real(values)  # also warms the per-lmax cache
        packed = real_from_complex(coeffs)

        def boom(ell, m):
            raise AssertionError(f"coeff_index({ell}, {m}) on the packing hot path")

        monkeypatch.setattr(transform, "coeff_index", boom)
        monkeypatch.setattr(realform, "coeff_index", boom, raising=False)
        assert_bits_equal(expected, complex_from_real(values))
        assert_bits_equal(packed, real_from_complex(coeffs))
