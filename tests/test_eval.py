"""Tests for ``repro.eval`` (the qps definitions ``src/`` uses) and for the
bench harness (``benchmarks/harness.py``): timing rule, gates, tables,
and the offline experiment flow the paper-table benches run."""

import numpy as np
import pytest

from benchmarks import harness
from benchmarks.harness import (
    Gate,
    build_partitioned,
    evaluate_recall,
    format_table,
    interleaved,
    report,
    require,
    speedup,
    summary,
    swap_segmenter,
)
from repro.core.config import LannsConfig
from repro.data.datasets import Dataset
from repro.eval.timing import measure_batch_qps, measure_qps
from repro.segmenters.learner import learn_segmenter
from tests.conftest import FAST_HNSW


class TestMeasure:
    def test_qps_keys(self):
        stats = measure_qps(lambda q: None, np.zeros((5, 2)))
        assert set(stats) == {
            "qps", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"
        }
        assert stats["qps"] > 0
        assert stats["max_ms"] >= stats["p99_ms"] >= stats["p50_ms"]

    def test_batch_qps_counts_queries_not_batches(self):
        seen = []
        stats = measure_batch_qps(lambda b: seen.append(len(b)), np.zeros((7, 2)), 3)
        assert seen == [3, 3, 1]
        assert stats["batches"] == 3 and stats["batch_size"] == 3
        assert stats["qps"] > 0


class FakeClock:
    """Stands in for ``harness.perf_counter``: time moves only when a
    stub request says so."""

    def __init__(self):
        self.now = 0.0
        self.calls = 0

    def __call__(self) -> float:
        return self.now

    def request(self, cost: float, jitter=lambda call: 0.0):
        def run() -> None:
            self.calls += 1
            self.now += cost + jitter(self.calls)

        return run


class TestInterleaved:
    """The one timing rule: turns by request, min across passes."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(harness, "perf_counter", clock)
        return clock

    def test_planted_ratio_survives_one_sided_jitter(self, clock):
        """Every third call anywhere is 50 % slow; the slow calls move
        from pass to pass, so each request's minimum is its true cost."""

        def jitter(call):
            return 0.5 if call % 3 == 0 else 0.0

        streams = {
            "a": [clock.request(1.0, jitter) for _ in range(8)],
            "b": [clock.request(2.0, jitter) for _ in range(8)],
        }
        scores = interleaved(streams, passes=4)
        assert speedup(scores, "a", over="b") == pytest.approx(2.0)
        np.testing.assert_allclose(scores["a"], 1.0)
        np.testing.assert_allclose(scores["b"], 2.0)

    def test_order_symmetric(self, clock):
        """Running right after the other configuration costs a switch.
        Strict a-b-a-b turns would charge it to every request and read
        2.3 / 1.3 = 1.77x; rotating who goes first leaves each request a
        pass where it did not pay, whichever stream is named first."""
        last = [None]

        def stream(name, cost):
            def one() -> None:
                clock.now += cost + (0.3 if last[0] != name else 0.0)
                last[0] = name

            return [one] * 6

        ratios = []
        for order in (("a", "b"), ("b", "a")):
            last[0] = None
            scores = interleaved(
                {name: stream(name, {"a": 1.0, "b": 2.0}[name]) for name in order},
                passes=2,
            )
            ratios.append(speedup(scores, "a", over="b"))
        assert ratios[0] == pytest.approx(ratios[1])
        assert ratios[0] == pytest.approx(2.0, rel=0.03)

    def test_unequal_streams_cover_the_same_stretch(self, clock):
        """256 singles and 4 batches: a batch's turn is its fraction of
        the stream, not its index."""
        order = []
        streams = {
            "single": [lambda i=i: order.append(("single", i)) for i in range(8)],
            "batch": [lambda i=i: order.append(("batch", i)) for i in range(2)],
        }
        interleaved(streams, passes=1)
        where = [turn for turn, (name, _) in enumerate(order) if name == "batch"]
        assert 1 <= where[0] <= 3 and 6 <= where[1] <= 8

    def test_summary(self):
        stats = summary(np.array([0.001, 0.003]), ops=8)
        assert stats["qps"] == pytest.approx(2000.0)
        assert stats["p50_ms"] == pytest.approx(2.0)


class TestMain:
    """``--smoke`` picks the smoke row and nothing else; a gate says in
    its own row whether it is held there."""

    SIZES = {"full": {"rows": 100}, "smoke": {"rows": 10}}
    GATES = {"fast": Gate(full=2.0, smoke=1.5), "big_only": Gate(full=2.0, smoke=None)}

    def run(self, argv, *checks, **options):
        return harness.main(list(checks), self.SIZES, self.GATES, argv=argv, **options)

    def test_smoke_picks_the_row_and_names_what_it_skipped(self, capsys):
        seen = {}

        def check_it(run, env):
            seen.update(rows=run.rows, smoke=run.smoke)
            run.gate("fast", 1.8)  # under the full floor, over the smoke one
            run.gate("big_only", 0.5)

        assert self.run(["--smoke"], check_it) == 0
        assert seen == {"rows": 10, "smoke": True}
        out = capsys.readouterr().out
        assert "gates not held at smoke size: big_only" in out
        assert self.run([], check_it) == 1  # both under 2x at full size
        assert seen == {"rows": 100, "smoke": False}
        out = capsys.readouterr().out
        assert "FAIL gate fast" in out and "FAIL gate big_only" in out

    def test_structural_assertions_run_at_either_size(self, capsys):
        def check_broken(run, env):
            require(False, "the subject is broken")

        def check_fine(run, env):
            pass

        assert self.run(["--smoke"], check_broken, check_fine) == 1
        assert "FAIL check_broken: the subject is broken" in capsys.readouterr().out
        assert self.run(["--smoke", "--check", "fine"], check_broken, check_fine) == 0

    def test_strict_gate_and_clients_mode(self):
        gates = {"strict": Gate(full=1.0, smoke=1.0, strict=True)}
        ran = []

        def check_default(run, env):
            ran.append("default")
            run.gate("strict", 1.0)

        def check_load(run, env):
            ran.append(("load", run.clients))

        status = harness.main(
            [check_default], self.SIZES, gates, clients=check_load, argv=[]
        )
        assert status == 1 and ran == ["default"]  # 1.0 is not > 1.0
        status = harness.main(
            [check_default], self.SIZES, gates, clients=check_load,
            argv=["--clients", "8"],
        )
        assert status == 0 and ran[-1] == ("load", 8)


class TestTables:
    def test_format_alignment(self):
        rows = [
            {"method": "HNSW", "recall": 0.9912, "ms": 50.4},
            {"method": "RS(1,8)", "recall": 0.979, "ms": 58.8},
        ]
        text = format_table(rows, title="Table X")
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "method" in lines[1]
        assert len(lines) == 5

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        rows = [{"k": 1, "recall": 0.5}]
        text = report(
            "table_test",
            rows,
            title="T",
            notes="paper says 0.6",
            payload={"smoke": True},
        )
        assert "T" in text and text in capsys.readouterr().out
        assert "paper says" in (tmp_path / "table_test.txt").read_text()
        assert '"smoke": true' in (tmp_path / "table_test.json").read_text()

    def test_nan_rendered_as_dash(self):
        assert "-" in format_table([{"x": float("nan")}])


class TestExperimentFlow:
    @pytest.fixture(scope="class")
    def dataset(self, clustered_data, clustered_queries):
        return Dataset(
            name="unit", base=clustered_data, queries=clustered_queries
        )

    @pytest.fixture(scope="class")
    def experiment(self, dataset, tmp_path_factory):
        from repro.sparklite.cluster import LocalCluster
        from repro.storage.hdfs import LocalHdfs

        fs = LocalHdfs(tmp_path_factory.mktemp("hdfs"))
        cluster = LocalCluster(num_executors=4, fs=fs)
        config = LannsConfig(
            num_shards=1,
            num_segments=2,
            segmenter="rh",
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        return build_partitioned(dataset, config, fs, cluster)

    def test_build_records_metrics(self, experiment):
        assert experiment.build_metrics.tasks
        assert experiment.manifest.total_vectors == 600

    def test_query_and_recall(self, experiment, dataset):
        result = experiment.query(top_k=10, ef=64)
        recalls = evaluate_recall(dataset, result.ids, [1, 10])
        assert set(recalls) == {1, 10}
        assert recalls[10] > 0.5  # RH loses recall but not everything

    def test_evaluate_recall_vs_truth(self, dataset, clustered_truth):
        perfect = evaluate_recall(dataset, clustered_truth[:, :10], [1, 5, 10])
        assert perfect == {1: 1.0, 5: 1.0, 10: 1.0}

    def test_swap_segmenter_reuses_builds(self, experiment, dataset):
        index = experiment.load_index()
        wider = learn_segmenter(
            dataset.base,
            "rh",
            2,
            alpha=0.3,
            spill_mode="virtual",
            seed=experiment.config.seed,
        )
        swapped = swap_segmenter(index, wider)
        # Same stored vectors, different query fan-out.
        assert len(swapped) == len(index)
        original_fanout = np.mean(
            [len(r) for r in index.segmenter.route_query_batch(dataset.queries)]
        )
        swapped_fanout = np.mean(
            [len(r) for r in swapped.segmenter.route_query_batch(dataset.queries)]
        )
        assert swapped_fanout >= original_fanout

    def test_swap_segmenter_validation(self, experiment, dataset):
        index = experiment.load_index()
        wrong_count = learn_segmenter(dataset.base, "rh", 4, seed=0)
        with pytest.raises(ValueError, match="segments"):
            swap_segmenter(index, wrong_count)
