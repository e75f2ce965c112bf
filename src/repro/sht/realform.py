"""Real-valued packing of spherical-harmonic coefficient vectors.

A real field has complex coefficients obeying the conjugate symmetry
``f_{l,-m} = (-1)^m conj(f_{l,m})``, i.e. exactly ``L^2`` real degrees of
freedom.  The emulator's temporal model (the VAR and the innovation
covariance ``U`` of Eq. 9) operates on the real vector ``f_t in R^{L^2}``;
this module provides the orthogonal change of basis between the complex
coefficient vector and that real vector:

* ``m = 0`` terms map to themselves (they are real);
* for ``m > 0`` the pair ``(f_{l,m}, f_{l,-m})`` maps to
  ``(sqrt(2) Re f_{l,m}, sqrt(2) Im f_{l,m})``.

The scaling keeps the transformation orthogonal, so Euclidean norms (and
therefore angular power spectra and Gaussian covariance structure) are
preserved between the two representations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.sht.transform import bandlimit_from_coeff_count, degrees_and_orders

__all__ = ["real_from_complex", "complex_from_real", "real_basis_labels"]

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _packing_indices(
    lmax: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the ``m = 0``, ``m > 0`` and ``m < 0`` coefficients.

    Returns ``(zero, pos, neg, sign)``: ``pos[i]`` and ``neg[i]`` hold
    ``(l, m)`` and ``(l, -m)`` of the same pair, and ``sign[i]`` is its
    ``(-1)**m``.  Built once per band-limit and read-only, so every packing
    call at that band-limit is pure fancy-indexing.
    """
    _, ms = degrees_and_orders(lmax)
    zero = np.flatnonzero(ms == 0)
    pos = np.flatnonzero(ms > 0)
    # coeff_index(l, -m) = coeff_index(l, m) - 2m.
    neg = pos - 2 * ms[pos]
    sign = np.where(ms[pos] % 2 == 0, 1, -1)
    for array in (zero, pos, neg, sign):
        array.setflags(write=False)
    return zero, pos, neg, sign


def real_from_complex(coeffs: np.ndarray) -> np.ndarray:
    """Pack complex coefficient vector(s) into the real representation.

    Parameters
    ----------
    coeffs:
        Complex array of shape ``(..., L**2)`` with conjugate symmetry (the
        negative-order entries are ignored; only ``m >= 0`` is read).

    Returns
    -------
    numpy.ndarray
        Real array of shape ``(..., L**2)``.
    """
    coeffs = np.asarray(coeffs)
    lmax = bandlimit_from_coeff_count(coeffs.shape[-1])
    zero, pos, neg, _ = _packing_indices(lmax)
    out = np.empty(coeffs.shape[:-1] + (lmax * lmax,), dtype=np.float64)
    out[..., zero] = coeffs[..., zero].real
    c = coeffs[..., pos]
    out[..., pos] = _SQRT2 * c.real
    out[..., neg] = _SQRT2 * c.imag
    return out


def complex_from_real(real_coeffs: np.ndarray) -> np.ndarray:
    """Unpack the real representation back into complex coefficients.

    The conjugate symmetry is restored explicitly, so synthesising the
    result always yields a real field.
    """
    real_coeffs = np.asarray(real_coeffs, dtype=np.float64)
    lmax = bandlimit_from_coeff_count(real_coeffs.shape[-1])
    zero, pos, neg, sign = _packing_indices(lmax)
    out = np.empty(real_coeffs.shape[:-1] + (lmax * lmax,), dtype=np.complex128)
    out[..., zero] = real_coeffs[..., zero]
    re = real_coeffs[..., pos] / _SQRT2
    im = real_coeffs[..., neg] / _SQRT2
    value = re + 1j * im
    out[..., pos] = value
    out[..., neg] = sign * np.conj(value)
    return out


def real_basis_labels(lmax: int) -> list[str]:
    """Human-readable labels of the real-basis components (for reports)."""
    ells, ms = degrees_and_orders(lmax)
    labels = []
    for ell, m in zip(ells, ms):
        if m == 0:
            labels.append(f"l={ell} m=0")
        elif m > 0:
            labels.append(f"l={ell} m={m} (re)")
        else:
            labels.append(f"l={ell} m={-m} (im)")
    return labels
