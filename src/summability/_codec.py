"""Scalar and array encoding shared by the JSON file schemas.

Complex entries travel as [re, im] pairs; exponents encode themselves
(``Exponent.to_json``).
"""

from __future__ import annotations

import numpy as np


def encode_values(arr: np.ndarray):
    """Nested lists mirroring the array shape, complex leaves as [re, im]."""
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()
    return a.tolist()


def decode_values(data, is_complex: bool) -> np.ndarray:
    a = np.asarray(data, dtype=np.float64)
    if is_complex:
        if a.ndim == 0 or a.shape[-1] != 2:
            raise ValueError("complex entries must be [re, im] pairs")
        return a[..., 0] + 1j * a[..., 1]
    return a

