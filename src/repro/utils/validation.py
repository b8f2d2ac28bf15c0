"""Input validation helpers used across the public API surface.

The library works on ``float32`` contiguous numpy arrays internally; these
helpers coerce user input once at the boundary so inner loops can assume a
canonical layout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SerializationError


def as_matrix(
    data: np.ndarray,
    *,
    dim: int | None = None,
    name: str = "data",
    finite: bool = False,
) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float32 2-D array.

    A single vector is promoted to a 1-row matrix.

    Parameters
    ----------
    data:
        Array-like of shape ``(n, d)`` or ``(d,)``.
    dim:
        When given, the required number of columns.
    name:
        Argument name used in error messages.
    finite:
        Refuse a NaN or infinite value (a query that would search to
        NaN distances).
    """
    array = np.asarray(data, dtype=np.float32)
    if array.ndim == 1:
        array = array[np.newaxis, :]
    if array.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {array.shape}")
    if array.shape[1] == 0:
        raise ValueError(f"{name} must have at least one dimension")
    if dim is not None and array.shape[1] != dim:
        raise ValueError(
            f"{name} has dimension {array.shape[1]}, expected {dim}"
        )
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} hold NaN or infinite values")
    if not array.flags.c_contiguous:
        array = np.ascontiguousarray(array)
    return array


def as_vector(vector: np.ndarray, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``vector`` to a contiguous float32 1-D array."""
    array = np.asarray(vector, dtype=np.float32)
    if array.ndim == 2 and array.shape[0] == 1:
        array = array[0]
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if dim is not None and array.shape[0] != dim:
        raise ValueError(f"{name} has dimension {array.shape[0]}, expected {dim}")
    if not array.flags.c_contiguous:
        array = np.ascontiguousarray(array)
    return array


def check_retired(payload: dict, accepted: dict) -> None:
    """Refuse a persisted ``payload`` whose retired key holds a value that
    ``accepted[key]`` does not list: an export that asked for what this
    build no longer does must not load as if it had not."""
    for key, values in accepted.items():
        value = payload.get(key, values[0])
        if not any(type(value) is type(v) and value == v for v in values):
            raise ValueError(
                f"retired key {key!r} is {value!r}; this build reads it "
                f"only as {' or '.join(map(repr, values))}"
            )


def check_positive(value: int | float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def payload_member(
    payload: dict, name: str, dtype=None, shape: tuple | None = None
) -> np.ndarray:
    """``payload[name]`` of a segment payload as an array; a payload
    without it, or with it in another ``shape`` when one is given, is a
    :class:`~repro.errors.SerializationError` naming the member."""
    if name not in payload:
        raise SerializationError(f"HNSW payload has no member {name!r}")
    array = np.asarray(payload[name], dtype=dtype)
    if shape is not None and array.shape != shape:
        raise SerializationError(
            f"HNSW payload member {name!r} has shape {array.shape}, "
            f"expected {shape}"
        )
    return array
