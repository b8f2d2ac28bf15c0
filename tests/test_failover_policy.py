"""The failover policy as one table, and the assembly that applies it.

Neither needs a ``Broker``: :mod:`repro.online.failover` is pure
functions of an exception, a deadline and the partial-result policy, and
:func:`repro.online.fanout.assemble` turns per-group outcomes into the
parts the broker merges.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteCallError,
    TransportError,
)
from repro.obs.metrics import MetricsRegistry, Tally
from repro.online.failover import (
    budget_left,
    deadline_after,
    degrades,
    failover_eligible,
    retry_after_pause,
    should_fail_over,
)
from repro.online.fanout import Outcome, Work, assemble

LOST = ConnectionLostError("refused")
GARBLED = ProtocolError("bad frame")
SHED = OverloadedError("full", retry_after_s=0.05)
SHED_NO_HINT = OverloadedError("full")
SHED_BAD_HINT = OverloadedError("full", retry_after_s=-1.0)
LATE = DeadlineExceededError("late")
UNHOSTED = RemoteCallError("KeyError", "no such index")
BROKEN = RemoteCallError("ValueError", "bad request")

#: (error, budget left, already waited) -> what the fan-out does with it:
#: ``sibling`` right after the failure (fail over to an untried replica,
#: or give up on the group), ``pause`` once every replica was tried and
#: this was the last failure (seconds to back off before re-trying the
#: group, ``None`` = give up), and what each partial policy makes of a
#: group given up on.  ``budget``: None = no deadline, else seconds from
#: now (<= 0 = expired).
TABLE = [
    # error       budget waited sibling      pause  "fail"      "degrade"
    (LOST,         None, False, "fail over", None, "re-raise", "degrade"),
    (LOST,         10.0, False, "fail over", None, "re-raise", "degrade"),
    (LOST,         -1.0, False, "give up",   None, "re-raise", "degrade"),
    (GARBLED,      None, False, "fail over", None, "re-raise", "degrade"),
    (GARBLED,      -1.0, False, "give up",   None, "re-raise", "degrade"),
    (SHED,         None, False, "fail over", 0.05, "re-raise", "degrade"),
    (SHED,         10.0, False, "fail over", 0.05, "re-raise", "degrade"),
    # The hint must fit the remaining budget ...
    (SHED,         0.01, False, "fail over", None, "re-raise", "degrade"),
    (SHED,         -1.0, False, "give up",   None, "re-raise", "degrade"),
    # ... is honored once per request, and only when there is one.
    (SHED,         None, True,  "fail over", None, "re-raise", "degrade"),
    (SHED_NO_HINT, None, False, "fail over", None, "re-raise", "degrade"),
    (SHED_BAD_HINT, None, False, "fail over", None, "re-raise", "degrade"),
    (UNHOSTED,     None, False, "fail over", None, "re-raise", "degrade"),
    (UNHOSTED,     -1.0, False, "give up",   None, "re-raise", "degrade"),
    # A blown budget is not retried; a broken request is nobody's fault
    # but the request's, under either policy.
    (LATE,         None, False, "give up",   None, "re-raise", "degrade"),
    (LATE,         10.0, False, "give up",   None, "re-raise", "degrade"),
    (BROKEN,       None, False, "give up",   None, "re-raise", "re-raise"),
    (BROKEN,       10.0, False, "give up",   None, "re-raise", "re-raise"),
]


@pytest.mark.parametrize(
    "error, budget, waited, sibling, pause, under_fail, under_degrade", TABLE
)
def test_policy_table(
    error, budget, waited, sibling, pause, under_fail, under_degrade
):
    deadline = None if budget is None else time.monotonic() + budget
    assert should_fail_over(error, deadline) == (sibling == "fail over")
    assert failover_eligible(error) == should_fail_over(error, None)
    assert retry_after_pause(error, deadline, waited) == pause
    assert degrades(error, "fail") == (under_fail == "degrade")
    assert degrades(error, "degrade") == (under_degrade == "degrade")


def test_no_failure_no_pause():
    assert retry_after_pause(None, None, False) is None


def test_deadline_arithmetic():
    assert deadline_after(None) is None
    assert budget_left(None) == float("inf")
    deadline = deadline_after(5.0)
    assert 4.0 < budget_left(deadline) <= 5.0
    assert budget_left(time.monotonic() - 1.0) < 0


# -- assembly -------------------------------------------------------------------------


def _tally() -> Tally:
    registry = MetricsRegistry()
    return Tally(
        {
            "shard_failures": registry.counter("shard_failures"),
            "degraded_batches": registry.counter("degraded_batches"),
        }
    )


def _part(rows: int, budget: int, base: int):
    ids = np.arange(rows * budget, dtype=np.int64).reshape(rows, budget) + base
    return ids, ids.astype(np.float64)


def _full_work(queries, groups):
    return [Work(group, queries, None, None) for group in range(groups)]


class TestAssemble:
    queries = np.zeros((3, 4), dtype=np.float32)

    def test_healthy_parts_pass_through(self):
        work = _full_work(self.queries, 2)
        parts = [_part(3, 5, 0), _part(3, 5, 100)]
        result = assemble(
            work,
            [Outcome(parts[0], None, 0, None), Outcome(parts[1], None, 1, None)],
            np.full(3, 2, dtype=np.int64), 2, 5, "fail", _tally(),
        )
        assert result.parts[0] is parts[0] and result.parts[1] is parts[1]
        assert result.replicas_used == (0, 1)
        assert result.answered.tolist() == [2, 2, 2]
        assert result.failures == [] and result.cost is None

    def test_routed_rows_scatter_onto_full_width_parts(self):
        rows = np.array([0, 2])
        work = [Work(1, self.queries[rows], rows, [(0,), (1,)])]
        sub = _part(2, 5, 7)
        result = assemble(
            work, [Outcome(sub, None, 3, None)],
            np.array([1, 0, 1]), 2, 5, "fail", _tally(),
        )
        ids, dists = result.parts[0]
        assert ids.shape == (3, 5)
        np.testing.assert_array_equal(ids[rows], sub[0])
        assert (ids[1] == -1).all() and np.isinf(dists[1]).all()
        assert result.replicas_used == (-1, 3)

    def test_degrade_drops_the_failed_groups_rows(self):
        tally = _tally()
        work = _full_work(self.queries, 2)
        result = assemble(
            work,
            [Outcome(_part(3, 5, 0), None, 0, None), Outcome(None, LOST, -1, None)],
            np.full(3, 2, dtype=np.int64), 2, 5, "degrade", tally,
        )
        assert result.answered.tolist() == [1, 1, 1]
        assert (result.parts[1][0] == -1).all()
        assert result.replicas_used == (0, -1)
        assert result.failures == [LOST]
        assert tally.snapshot() == {
            ("shard_failures", 1): 1, "degraded_batches": 1,
        }

    @pytest.mark.parametrize(
        "error, policy", [(LOST, "fail"), (BROKEN, "degrade"), (BROKEN, "fail")]
    )
    def test_undegradable_failure_re_raises_uncounted(self, error, policy):
        tally = _tally()
        with pytest.raises(type(error)) as excinfo:
            assemble(
                _full_work(self.queries, 2),
                [Outcome(_part(3, 5, 0), None, 0, None),
                 Outcome(None, error, -1, None)],
                np.full(3, 2, dtype=np.int64), 2, 5, policy, tally,
            )
        assert excinfo.value is error
        assert tally.snapshot() == {}

    def test_all_failed_cause_is_this_requests_own_failure(self):
        """The regression ``Broker._last_failure`` (one attribute shared
        by every request thread) allowed: request A's error chained as
        the cause of request B's "all shards failed"."""
        tally = _tally()
        work = _full_work(self.queries, 2)
        routed = np.full(3, 2, dtype=np.int64)
        mine = [ConnectionLostError("mine-0"), ConnectionLostError("mine-1")]
        theirs = [ConnectionLostError("theirs-0"), ProtocolError("theirs-1")]

        def fail_all(errors):
            with pytest.raises(TransportError, match="all 2 shards") as excinfo:
                assemble(
                    work, [Outcome(None, exc, -1, None) for exc in errors],
                    routed, 2, 5, "degrade", tally,
                )
            return excinfo.value

        first = fail_all(mine)
        second = fail_all(theirs)
        assert first.__cause__ is mine[-1]
        assert second.__cause__ is theirs[-1]
        # Each shard counted once per request; no batch "degraded".
        assert tally.snapshot() == {
            ("shard_failures", 0): 2, ("shard_failures", 1): 2,
        }
