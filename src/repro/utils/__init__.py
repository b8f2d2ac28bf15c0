"""Shared low-level utilities: RNG helpers, validation."""

from repro.utils.rng import resolve_rng, spawn_seeds
from repro.utils.validation import (
    as_matrix,
    as_vector,
    check_positive,
    check_probability,
)

__all__ = [
    "resolve_rng",
    "spawn_seeds",
    "as_matrix",
    "as_vector",
    "check_positive",
    "check_probability",
]
