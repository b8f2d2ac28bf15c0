"""Tests for the perShardTopK budget (Eq. 5-6) and the batched top-k
merge primitive."""

import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import batch_top_k, per_shard_top_k, probit

#: ``scipy.stats.norm.ppf`` at these quantiles, recorded at 3816ffb (the
#: last commit whose probit was scipy's).
SCIPY_PROBIT = {
    0.975: 1.959963984540054,
    0.95: 1.6448536269514722,
    0.995: 2.5758293035489004,
    0.025: -1.9599639845400545,
}

#: The Eq. 5-6 grid: every budget for literal off / on x these
#: confidences x 1..128 shards x top_k 1..1000 (1,792,000 keys).
GRID_CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999)
#: sha256 of that grid as a little-endian int32 ``(2, 7, 128, 1000)``
#: array, recorded at 3816ffb with the scipy probit.
GRID_SHA256 = "755f8be33abda0c7da3629baa6699d229cc7aab1f43bfa89efa45487bdbe3e65"


class TestProbit:
    def test_known_quantiles(self):
        assert probit(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert probit(0.5) == pytest.approx(0.0, abs=1e-9)
        assert probit(0.025) == pytest.approx(-1.959964, abs=1e-4)

    @pytest.mark.parametrize("quantile", sorted(SCIPY_PROBIT))
    def test_within_four_ulps_of_the_scipy_era_values(self, quantile):
        want = SCIPY_PROBIT[quantile]
        assert abs(probit(quantile) - want) <= 4 * math.ulp(want)

    def test_domain(self):
        with pytest.raises(ValueError):
            probit(0.0)
        with pytest.raises(ValueError):
            probit(1.0)


class TestPerShardTopK:
    def test_single_shard_returns_full_topk(self):
        assert per_shard_top_k(100, 1) == 100

    def test_paper_like_setting(self):
        """S=20, topK=100, p=0.95: s'=0.05, z=1.96 =>
        cI = 0.05 + 1.96*sqrt(0.05*0.95/100) = 0.0927 -> ceil(9.27) = 10."""
        budget = per_shard_top_k(100, 20, 0.95)
        expected = math.ceil(
            (0.05 + 1.959964 * math.sqrt(0.05 * 0.95 / 100)) * 100
        )
        assert budget == expected == 10

    def test_never_exceeds_topk(self):
        for shards in (2, 3, 5, 50):
            for top_k in (1, 10, 1000):
                assert per_shard_top_k(top_k, shards) <= top_k

    def test_at_least_one(self):
        assert per_shard_top_k(1, 100) >= 1

    def test_more_shards_smaller_budget(self):
        budgets = [per_shard_top_k(200, shards) for shards in (2, 4, 8, 16, 32)]
        assert all(b1 >= b2 for b1, b2 in zip(budgets, budgets[1:]))

    def test_higher_confidence_larger_budget(self):
        low = per_shard_top_k(1000, 10, 0.80)
        high = per_shard_top_k(1000, 10, 0.999)
        assert high >= low

    def test_budget_covers_expected_share_plus_slack(self):
        """The budget must exceed the expected per-shard share topK/S."""
        for shards in (2, 5, 20):
            for top_k in (50, 100, 1000):
                assert per_shard_top_k(top_k, shards) > top_k / shards

    def test_paper_literal_quantile_is_smaller(self):
        """The literal (1 - p/2) reading yields z ~= 0.063, so a much
        smaller budget -- the ablation the docs discuss."""
        standard = per_shard_top_k(1000, 20, 0.95)
        literal = per_shard_top_k(1000, 20, 0.95, paper_literal=True)
        assert literal < standard

    def test_validation(self):
        with pytest.raises(ValueError):
            per_shard_top_k(0, 5)
        with pytest.raises(ValueError):
            per_shard_top_k(10, 0)
        with pytest.raises(ValueError):
            per_shard_top_k(10, 5, confidence=0.0)

    def test_union_of_budgets_can_cover_topk(self):
        """Sanity: S * perShardTopK >= topK, otherwise the merge could
        never return topK results even in the best case."""
        for shards in (2, 4, 8, 20, 32):
            budget = per_shard_top_k(100, shards, 0.95)
            assert shards * budget >= 100

    def test_every_budget_of_the_grid_is_pinned(self):
        """A probit that moves one budget on the grid -- a rounding that
        flips one ``ceil`` -- changes what every broker asks for."""
        keys = itertools.product(
            (False, True), GRID_CONFIDENCES, range(1, 129), range(1, 1001)
        )
        table = np.array(
            [
                per_shard_top_k(top_k, shards, confidence, paper_literal=literal)
                for literal, confidence, shards, top_k in keys
            ],
            dtype="<i4",
        )
        assert hashlib.sha256(table.tobytes()).hexdigest() == GRID_SHA256


#: Candidate distances a merge meets: finite or infinite, never NaN.
MERGE_DISTS = st.floats(allow_nan=False) | st.sampled_from([np.inf, 0.0, 1.0])


@st.composite
def merge_blocks(draw, repeats: bool):
    """A ``(B, C)`` candidate block and a ``k`` on either side of ``C``:
    with ``repeats`` some row names an id twice (ids from a narrow range,
    ``-1`` / ``inf`` padding at the end of a row); without, every row's
    ids are distinct, at most one of them the padding id ``-1``."""
    num_rows = draw(st.integers(1, 4))
    num_cols = draw(st.integers(2 if repeats else 1, 10))
    ids, dists = [], []
    for _ in range(num_rows):
        if repeats:
            row = draw(st.lists(st.integers(0, 5), min_size=num_cols, max_size=num_cols))
            padded = draw(st.integers(0, num_cols))
            row[num_cols - padded :] = [-1] * padded
        else:
            row = draw(st.permutations(range(-1, 2 * num_cols)))[:num_cols]
        ids.append(row)
        dists.append(
            [
                np.inf if node < 0 else dist
                for node, dist in zip(
                    row,
                    draw(st.lists(MERGE_DISTS, min_size=num_cols, max_size=num_cols)),
                )
            ]
        )
    if repeats and not any(len(set(row)) < num_cols for row in ids):
        ids[0][1], dists[0][1] = ids[0][0], dists[0][0]
    k = draw(st.integers(1, num_cols + 3))
    return np.array(dists, dtype=np.float64), np.array(ids, dtype=np.int64), k


def merged_row(dists: list, ids: list, k: int) -> list:
    """One row of :func:`batch_top_k`, literally: ascending ``(distance,
    id)`` pairs, each id once at its best distance, the first ``k``,
    then ``(inf, -1)`` padding."""
    best: dict = {}
    for dist, node in zip(dists, ids):
        if node not in best or dist < best[node]:
            best[node] = dist
    pairs = sorted((dist, node) for node, dist in best.items())
    return (pairs + [(np.inf, -1)] * k)[:k]


class TestBatchTopK:
    @pytest.mark.parametrize("repeats", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_row_is_its_literal_merge(self, repeats, data):
        """Both branches -- a block that repeats an id and one that does
        not -- answer the per-row reference, in fresh writable arrays."""
        dists, ids, k = data.draw(merge_blocks(repeats))
        held = dists.copy(), ids.copy()
        out_ids, out_dists = batch_top_k(dists, ids, k)
        assert (out_ids.dtype, out_dists.dtype) == (np.int64, np.float64)
        assert out_ids.shape == out_dists.shape == (len(ids), k)
        for out in (out_ids, out_dists):
            assert out.flags.writeable and out.flags.owndata
            assert not np.shares_memory(out, ids) and not np.shares_memory(out, dists)
        np.testing.assert_array_equal(dists, held[0])
        np.testing.assert_array_equal(ids, held[1])
        got = [
            list(zip(row_dists, row_ids))
            for row_dists, row_ids in zip(out_dists.tolist(), out_ids.tolist())
        ]
        want = [
            merged_row(row_dists, row_ids, k)
            for row_dists, row_ids in zip(dists.tolist(), ids.tolist())
        ]
        assert got == want

    def test_a_canonical_block_re_merges_to_itself(self):
        """What a one-shard broker does on every request: merging the
        output of a merge is the identity, padding included."""
        rng = np.random.default_rng(4)
        for rows, cols, k in ((1, 10, 10), (3, 7, 10), (5, 30, 4)):
            dists = rng.integers(0, 6, size=(rows, cols)).astype(np.float64)
            ids = rng.integers(-1, 12, size=(rows, cols))
            dists[ids < 0] = np.inf
            merged = batch_top_k(dists, ids, k)
            again = batch_top_k(*merged[::-1], k)
            for want, got in zip(merged, again):
                assert want.dtype == got.dtype
                np.testing.assert_array_equal(want, got)

    def test_sorts_and_pads(self):
        ids = np.array([[3, 1, 2], [7, -1, -1]], dtype=np.int64)
        dists = np.array([[0.3, 0.1, 0.2], [0.5, np.inf, np.inf]])
        out_ids, out_dists = batch_top_k(dists, ids, 2)
        np.testing.assert_array_equal(out_ids, [[1, 2], [7, -1]])
        np.testing.assert_array_equal(out_dists, [[0.1, 0.2], [0.5, np.inf]])

    def test_dedupe_keeps_best_distance(self):
        ids = np.array([[4, 4, 9]], dtype=np.int64)
        dists = np.array([[0.8, 0.2, 0.5]])
        out_ids, out_dists = batch_top_k(dists, ids, 3)
        np.testing.assert_array_equal(out_ids, [[4, 9, -1]])
        np.testing.assert_array_equal(out_dists, [[0.2, 0.5, np.inf]])

    def test_tie_break_by_id(self):
        ids = np.array([[9, 2, 5]], dtype=np.int64)
        dists = np.array([[0.5, 0.5, 0.5]])
        out_ids, _ = batch_top_k(dists, ids, 3)
        np.testing.assert_array_equal(out_ids, [[2, 5, 9]])

    def test_no_cross_row_dedupe(self):
        """The same id in different rows must survive in both."""
        ids = np.array([[6, -1], [6, -1]], dtype=np.int64)
        dists = np.array([[0.4, np.inf], [0.9, np.inf]])
        out_ids, out_dists = batch_top_k(dists, ids, 1)
        np.testing.assert_array_equal(out_ids, [[6], [6]])
        np.testing.assert_array_equal(out_dists, [[0.4], [0.9]])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            batch_top_k(np.zeros((1, 1)), np.zeros((1, 1), np.int64), 0)

    def test_there_is_no_merge_that_keeps_a_repeated_id(self):
        """Every merge dedupes: there is no keyword to ask for the other kind."""
        assert "dedupe" not in inspect.signature(batch_top_k).parameters

    def test_no_cross_row_key_collision_with_negative_ids(self):
        """Arbitrary int ids must not alias across rows in the dedupe."""
        ids = np.array([[3, 1], [-2, 0]], dtype=np.int64)
        dists = np.array([[0.1, 0.2], [0.3, 0.1]])
        out_ids, out_dists = batch_top_k(dists, ids, 2)
        np.testing.assert_array_equal(out_ids, [[3, 1], [0, -2]])
        np.testing.assert_array_equal(out_dists, [[0.1, 0.2], [0.1, 0.3]])

    def test_huge_ids_no_overflow(self):
        """Snowflake-scale int64 ids must dedupe without key overflow."""
        huge = 2**62 - 1
        ids = np.tile(np.array([[huge, 0, -1]], dtype=np.int64), (5, 1))
        dists = np.tile(np.array([[0.2, 0.3, np.inf]]), (5, 1))
        out_ids, out_dists = batch_top_k(dists, ids, 2)
        np.testing.assert_array_equal(out_ids, np.tile([[huge, 0]], (5, 1)))
        np.testing.assert_array_equal(out_dists, np.tile([[0.2, 0.3]], (5, 1)))
