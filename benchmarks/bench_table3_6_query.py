"""Tables 3 and 6: query times (ms/query) with varying executor counts.

Paper, Table 3 (SIFT1M, ms/query for 10k queries):

                 (1,8)-partitioning      (2,4)-partitioning
    Executors  HNSW   RS    RH    APD    RS    RH    APD
    2          50.4   58.8  21    16.8   49.2  46.8  44.4
    4          -      46.2  16.8  12.6   38.4  25.8  25.2
    8          -      25.8  13.2  10.2   33    17.4  17.4

Table 6 (GIST1M, ms/query, 1k queries): HNSW 336; RS 330/222/132,
RH 156/132/96, APD 144/108/66 for 2/4/8 executors.

Expected shape: RS slowest (probes all 8 segments; ~ HNSW at 2
executors), RH/APD much faster (probe 1-2 segments under virtual
spill); times fall with executors.  Reported numbers are the simulated
E-executor makespan of the offline query pipeline divided by the query
count.
"""

import pytest

from benchmarks.conftest import EXECUTOR_SWEEP
from benchmarks.harness import report

SEGMENTERS = ("RS", "RH", "APD")
# ``columns`` maps a table column to the sweep's experiment name, the
# (1,8) partitioning's RS / RH / APD first; ``scaling`` lists the columns
# that must not slow down from 2 to 8 executors.
TABLES = {
    "sift": dict(
        name="table3_sift_query_times",
        title="Table 3 -- Query time (ms/query) on SIFT1M-like data, ",
        notes=(
            "Paper shape: RS probes all segments (slowest), APD/RH probe "
            "1-2 (fastest); times fall as executors grow."
        ),
        columns={
            f"{segmenter}({shards},{segments})": f"{segmenter}({shards},{segments})"
            for shards, segments in ((1, 8), (2, 4))
            for segmenter in SEGMENTERS
        },
        scaling=("RS(1,8)", "RH(1,8)", "APD(1,8)", "RS(2,4)"),
    ),
    "gist": dict(
        name="table6_gist_query_times",
        title="Table 6 -- Query time (ms/query) on GIST1M-like data, ",
        notes=(
            "Paper, ms/query at 1M scale: HNSW 336 | RS 330/222/132 | "
            "RH 156/132/96 | APD 144/108/66 for 2/4/8 executors."
        ),
        columns={segmenter: f"{segmenter}(1,8)" for segmenter in SEGMENTERS},
        scaling=SEGMENTERS,
    ),
}


@pytest.mark.parametrize("data", list(TABLES))
def test_query_times_table(benchmark, request, data):
    sweep = request.getfixturevalue(f"{data}_sweep")
    table = TABLES[data]

    def collect_rows():
        return [
            {
                "Executors": executors,
                "HNSW": (
                    sweep.hnsw_query_seconds_per_query * 1e3
                    if executors == 2
                    else None
                ),
                **{
                    column: sweep.query_makespan_per_query(name, executors) * 1e3
                    for column, name in table["columns"].items()
                },
            }
            for executors in EXECUTOR_SWEEP
        ]

    rows = benchmark.pedantic(collect_rows, rounds=1, iterations=1)
    report(
        table["name"],
        rows,
        title=table["title"] + "simulated E-executor makespan",
        notes=table["notes"],
    )
    benchmark.extra_info["rows"] = rows

    by_executors = {row["Executors"]: row for row in rows}
    rs, rh, apd = list(table["columns"])[:3]
    # Learned segmenters beat RS at the same partitioning (segment pruning).
    assert by_executors[2][apd] < by_executors[2][rs]
    assert by_executors[2][rh] < by_executors[2][rs]
    # Scaling: 8 executors at least as fast as 2 for every method.
    for column in table["scaling"]:
        assert by_executors[8][column] <= by_executors[2][column] + 1e-9
