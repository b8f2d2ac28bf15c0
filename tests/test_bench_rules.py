"""The rules benchmark scripts read constants by, on synthetic tables.

``bench_batch_throughput.py --check venues`` prints the step width and
the venue crossover its table implies (:func:`step_rule`); a rule that
a noisy cell or two can flip reads a constant the table does not
support.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
ROWS = (1, 4, 10, 16)


@pytest.fixture(scope="module")
def step_rule():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))  # the scripts import ``harness``
        return importlib.import_module("bench_batch_throughput").step_rule


def venue_table(array_cells: dict, spread: float) -> tuple[list, dict]:
    """Two segments, W in {1, 2, 4}: one-row heap ms falls with W, the
    array venue wins from 10 rows; ``array_cells[(W, rows)]`` overrides
    an array cell of the first segment, and every cell's spread is
    ``spread``."""
    table, spreads = [], {}
    one_row = {1: 1.0, 2: 0.8, 4: 0.7}
    for segment in ("4000 x 64", "2400 x 32"):
        for expand in one_row:
            for venue in ("heap", "array"):
                line = {
                    "segment": segment,
                    "scorer": "float",
                    "W": expand,
                    "venue": venue,
                    "rounds@1": 60 // expand,
                }
                for rows in ROWS:
                    if venue == "heap":
                        value = one_row[expand] if rows == 1 else 0.2
                    else:
                        value = 2.0 if rows < 10 else 0.1
                        if segment == "4000 x 64":
                            value = array_cells.get((expand, rows), value)
                    line[str(rows)] = value
                    spreads[segment, "float", expand, venue, rows] = spread
                table.append(line)
    return table, spreads


def test_a_cell_slower_within_its_spread_keeps_its_step_width(step_rule):
    """W = 4's noisy cell reads 4 % slower than W = 1's, inside the two
    cells' spreads; W = 2's reads 30 % slower, beyond them."""
    table, spreads = venue_table({(4, 16): 0.104, (2, 10): 0.13}, spread=0.003)
    scores, best, crossover = step_rule(table, spreads, ROWS, (1, 2, 4), 10)
    assert best == 4 and crossover == 10
    assert {expand: slower for expand, (_, _, slower) in scores.items()} == {
        1: 0,
        2: 1,
        4: 0,
    }
    assert scores[4][:2] == pytest.approx((1.4, 0.006))


def test_without_a_spread_one_noisy_cell_disqualifies_a_step_width(step_rule):
    """The rule as it read before spreads: one 4 % cell sends it to W = 1."""
    table, spreads = venue_table({(4, 16): 0.104, (2, 10): 0.13}, spread=0.0)
    _, best, _ = step_rule(table, spreads, ROWS, (1, 2, 4), 10)
    assert best == 1


def test_one_row_times_within_their_spread_go_to_the_fewer_rounds(step_rule):
    """W = 2's one-row time reads 0.02 ms under W = 4's, inside the two
    sums' spreads (0.03 each): W = 4 takes fewer beam rounds and is
    picked; with no spread the faster reading wins."""
    table, spreads = venue_table({}, spread=0.015)
    for line in table:
        if line["venue"] == "heap" and line["W"] == 2:
            line["1"] = 0.69
    assert step_rule(table, spreads, ROWS, (1, 2, 4), 10)[1] == 4
    table, spreads = venue_table({}, spread=0.0)
    for line in table:
        if line["venue"] == "heap" and line["W"] == 2:
            line["1"] = 0.69
    assert step_rule(table, spreads, ROWS, (1, 2, 4), 10)[1] == 2
