"""Tests for HnswParams validation and serialization."""

import dataclasses

import pytest

from repro.hnsw.params import HnswParams


class TestValidation:
    def test_defaults_valid(self):
        params = HnswParams()
        assert params.M == 16
        assert params.ef_construction == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"M": 1},
            {"ef_construction": 0},
            {"ef_search": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HnswParams(**kwargs)

    def test_frozen(self):
        params = HnswParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.M = 32


class TestSerialization:
    def test_roundtrip(self):
        params = HnswParams(M=12, ef_construction=77, ef_search=33, seed=9)
        assert HnswParams.from_dict(params.to_dict()) == params

    def test_from_dict_ignores_unknown_keys(self):
        payload = HnswParams().to_dict()
        payload["bogus"] = 1
        assert HnswParams.from_dict(payload) == HnswParams()
