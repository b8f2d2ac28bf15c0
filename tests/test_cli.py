"""Tests for the command-line interface (build / query / info)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import write_fvecs
from tests.conftest import make_clustered


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = make_clustered(400, 10, seed=41)
    queries = data[:12] + 0.01
    np.save(root / "data.npy", data)
    np.save(root / "queries.npy", queries)
    write_fvecs(root / "data.fvecs", data)
    return root, data, queries


def build_args(root, extra=()):
    return [
        "build",
        "--root", str(root / "hdfs"),
        "--data", str(root / "data.npy"),
        "--out", "idx",
        "--shards", "2",
        "--segments", "2",
        "--segmenter", "rh",
        "--hnsw-m", "8",
        "--ef-construction", "48",
        *extra,
    ]


class TestBuild:
    def test_build_writes_index(self, corpus, capsys):
        root, data, _ = corpus
        assert main(build_args(root)) == 0
        out = capsys.readouterr().out
        assert f"built {len(data)} vectors" in out
        assert (root / "hdfs" / "idx" / "metadata.json").exists()

    def test_build_from_fvecs(self, corpus, capsys):
        root, _, _ = corpus
        args = build_args(root)
        args[args.index("--data") + 1] = str(root / "data.fvecs")
        args[args.index("--out") + 1] = "idx-fvecs"
        assert main(args) == 0

    def test_unsupported_format_rejected(self, corpus):
        root, _, _ = corpus
        args = build_args(root)
        args[args.index("--data") + 1] = str(root / "data.csv")
        with pytest.raises(SystemExit):
            main(args)


class TestQuery:
    def test_query_prints_results(self, corpus, capsys):
        root, _, _ = corpus
        main(build_args(root))
        capsys.readouterr()
        code = main(
            [
                "query",
                "--root", str(root / "hdfs"),
                "--index", "idx",
                "--queries", str(root / "queries.npy"),
                "--top-k", "5",
                "--ef", "48",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "answered 12 queries" in out
        assert "query 0:" in out

    def test_query_writes_npz(self, corpus, capsys, tmp_path):
        root, data, queries = corpus
        main(build_args(root))
        out_file = tmp_path / "results.npz"
        main(
            [
                "query",
                "--root", str(root / "hdfs"),
                "--index", "idx",
                "--queries", str(root / "queries.npy"),
                "--top-k", "3",
                "--out", str(out_file),
                "--no-checkpoint",
            ]
        )
        with np.load(out_file) as archive:
            assert archive["ids"].shape == (len(queries), 3)
            # Queries are near-copies of the first rows; top-1 must match.
            assert archive["ids"][0, 0] == 0


class TestInfo:
    def test_info_prints_manifest(self, corpus, capsys):
        root, data, _ = corpus
        main(build_args(root))
        capsys.readouterr()
        code = main(
            ["info", "--root", str(root / "hdfs"), "--index", "idx"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["total_vectors"] == len(data)
        assert payload["config"]["segmenter"] == "rh"
        assert "checksums" not in payload  # elided for readability


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_segmenter_rejected(self, corpus):
        root, _, _ = corpus
        with pytest.raises(SystemExit):
            main(build_args(root, extra=["--segmenter", "annoy"]))


class TestServeAndRemoteQuery:
    def test_query_through_remote_searchers(self, corpus, capsys):
        from repro.net.server import SearcherServer
        from repro.online.searcher import SearcherNode

        root, _, _ = corpus
        args = build_args(root)
        args[args.index("--out") + 1] = "idx-remote"
        assert main(args) == 0
        servers = [
            SearcherServer(
                SearcherNode(shard_id), root=str(root / "hdfs")
            ).start_in_thread()
            for shard_id in range(2)
        ]
        try:
            capsys.readouterr()
            code = main(
                [
                    "query",
                    "--root", str(root / "hdfs"),
                    "--index", "idx-remote",
                    "--queries", str(root / "queries.npy"),
                    "--top-k", "5",
                    "--searchers",
                    ",".join(server.address for server in servers),
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "2 remote searchers" in out
            assert "DEGRADED" not in out
            # The undeploy at the end must leave the fleet clean.
            assert servers[0].node.hosted_indices == []
        finally:
            for server in servers:
                server.stop()

    def test_serve_searcher_requires_shard_id(self):
        with pytest.raises(SystemExit):
            main(["serve-searcher"])

    def test_stats_and_traced_query_against_live_fleet(
        self, corpus, capsys, tmp_path
    ):
        from repro.net.server import SearcherServer
        from repro.online.searcher import SearcherNode

        root, _, _ = corpus
        args = build_args(root)
        args[args.index("--out") + 1] = "idx-obs"
        assert main(args) == 0
        servers = [
            SearcherServer(
                SearcherNode(shard_id), root=str(root / "hdfs")
            ).start_in_thread()
            for shard_id in range(2)
        ]
        try:
            spec = ",".join(server.address for server in servers)
            trace_out = tmp_path / "trace.json"
            capsys.readouterr()
            code = main(
                [
                    "query",
                    "--root", str(root / "hdfs"),
                    "--index", "idx-obs",
                    "--queries", str(root / "queries.npy"),
                    "--top-k", "5",
                    "--searchers", spec,
                    "--trace-out", str(trace_out),
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "cost:" in out
            assert trace_out.exists()

            # The written trace pretty-prints through `repro.cli trace`.
            assert main(["trace", "--file", str(trace_out)]) == 0
            rendered = capsys.readouterr().out
            assert "trace " in rendered
            assert "fanout" in rendered
            assert "merge" in rendered
            assert "decode" in rendered  # remote spans crossed the wire

            # `repro.cli stats` merges the fleet's metric snapshots.
            assert main(["stats", "--searchers", spec]) == 0
            out = capsys.readouterr().out
            for server in servers:
                assert f"# searcher {server.address}: shard" in out
            assert "# TYPE" in out  # merged Prometheus exposition
            assert "lanns_" in out

            assert main(["stats", "--searchers", spec, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == {server.address for server in servers}
        finally:
            for server in servers:
                server.stop()

    def test_min_graph_size_flag_flows_into_build(self, corpus):
        from repro.storage.hdfs import LocalHdfs
        from repro.storage.manifest import load_manifest

        root, _, _ = corpus
        args = build_args(root, extra=["--min-graph-size", "64"])
        args[args.index("--out") + 1] = "idx-scan"
        assert main(args) == 0
        manifest = load_manifest(LocalHdfs(root / "hdfs"), "idx-scan")
        assert manifest.lanns_config.hnsw.min_graph_size == 64


def spy(monkeypatch, owner, name: str) -> list:
    """Record ``(args, kwargs)`` of every ``owner.name`` call, and make it."""
    real = getattr(owner, name)
    calls: list = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorder)
    return calls


def manifest_config(root, index):
    from repro.storage.hdfs import LocalHdfs
    from repro.storage.manifest import load_manifest

    return load_manifest(LocalHdfs(root / "hdfs"), index).lanns_config


class TestEveryFlagReachesItsConsumer:
    """The flags no test, README, ``ci.yml`` or ``SKILL.md`` line named
    at b863b1d (ROADMAP 5(c)): each is driven through ``main([...])``
    with a non-default value and must arrive where it is consumed.
    ``TestCliSurface`` in ``tests/test_analysis_lint.py`` holds every
    flag of ``cli.py`` to a line like these."""

    BUILD = {
        "--alpha": ("0.3", lambda config: config.alpha == 0.3),
        "--spill-mode": ("physical", lambda config: config.spill_mode == "physical"),
        "--metric": ("cosine", lambda config: config.metric == "cosine"),
        "--seed": ("5", lambda config: config.seed == 5),
    }

    @pytest.mark.parametrize("flag", sorted(BUILD))
    def test_build_flag_reaches_the_manifest(self, corpus, flag):
        root, _, _ = corpus
        value, arrived = self.BUILD[flag]
        args = build_args(root, extra=[flag, value])
        args[args.index("--out") + 1] = f"idx{flag}"
        assert main(args) == 0
        assert arrived(manifest_config(root, f"idx{flag}"))

    def test_executors_reach_the_cluster(self, corpus, monkeypatch):
        import repro.cli

        root, _, _ = corpus
        clusters = spy(monkeypatch, repro.cli, "LocalCluster")
        args = build_args(root, extra=["--executors", "3"])
        args[args.index("--out") + 1] = "idx-executors"
        assert main(args) == 0
        assert [kwargs["num_executors"] for _, kwargs in clusters] == [3]

    @pytest.mark.parametrize(
        "extra, arrived",
        [
            (["--ef", "77"], {"ef": 77, "checkpoint": True}),
            (["--no-checkpoint"], {"ef": None, "checkpoint": False}),
        ],
    )
    def test_query_flag_reaches_the_query_job(
        self, corpus, monkeypatch, extra, arrived
    ):
        import repro.cli

        root, _, _ = corpus
        main(build_args(root))
        jobs = spy(monkeypatch, repro.cli, "query_index_job")
        argv = [
            "query",
            "--root", str(root / "hdfs"),
            "--index", "idx",
            "--queries", str(root / "queries.npy"),
            *extra,
        ]
        assert main(argv) == 0
        ((_, kwargs),) = jobs
        assert kwargs == arrived

    def test_bench_flags_reach_the_build_and_the_load_test(self, monkeypatch):
        import repro.core.builder
        import repro.eval.serving

        monkeypatch.setenv("REPRO_SCALE", "0.02")  # 200 vectors, 10 queries
        builds = spy(monkeypatch, repro.core.builder, "build_lanns_index")
        sweeps = spy(monkeypatch, repro.eval.serving, "serving_throughput")
        loads = spy(monkeypatch, repro.eval.serving, "concurrent_serving_throughput")
        argv = [
            "bench", "--segments", "2", "--batch-size", "4", "--clients", "2",
            "--hnsw-m", "6", "--ef-construction", "30", "--ef", "33",
            "--max-batch", "5", "--max-wait-ms", "0.5", "--cache-size", "7",
        ]
        assert main(argv) == 0
        ((_, built),) = builds
        assert (built["config"].hnsw.M, built["config"].hnsw.ef_construction) == (6, 30)
        ((_, swept),) = sweeps
        assert swept["ef"] == 33
        ((_, loaded),) = loads
        assert {
            name: loaded[name]
            for name in ("ef", "clients", "max_batch", "max_wait_ms", "cache_size")
        } == {
            "ef": 33, "clients": 2, "max_batch": 5, "max_wait_ms": 0.5, "cache_size": 7,
        }

    def test_stats_timeout_reaches_the_client(self, monkeypatch, capsys):
        import repro.net.client
        from repro.net.server import SearcherServer
        from repro.online.searcher import SearcherNode

        server = SearcherServer(SearcherNode(0)).start_in_thread()
        try:
            clients = spy(monkeypatch, repro.net.client, "RemoteSearcherClient")
            argv = ["stats", "--searchers", server.address, "--timeout-s", "3.5"]
            assert main(argv) == 0
        finally:
            server.stop()
        ((_, kwargs),) = clients
        assert kwargs == {"timeout_s": 3.5}

    def test_lint_flags_reach_the_linter(self, monkeypatch, tmp_path):
        import repro.analysis.linter

        runs = spy(monkeypatch, repro.analysis.linter, "main")
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        baseline = tmp_path / "baseline.toml"
        baseline.write_text("")
        assert main(["lint", str(clean), "--baseline", str(baseline)]) == 0
        assert main(["lint", str(clean), "--no-baseline"]) == 0
        forwarded = [args[0] for args, _ in runs]
        assert forwarded[0][-2:] == ["--baseline", str(baseline)]
        assert forwarded[1][-1] == "--no-baseline"


class TestServeSearcherFlags:
    """``serve-searcher``'s knob flags are generated from
    ``ServerOptions``; names and defaults are b863b1d's, pinned here."""

    GOLDEN = {
        "--slow-every": 0,
        "--slow-delay-s": 0.0,
        "--max-in-flight": 0,
        "--queue-cap": 0,
        "--retry-after-s": 0.05,
        "--batch-max": 1,
        "--batch-wait-ms": 2.0,
        "--chaos-spec": None,
    }

    @staticmethod
    def serve_parser():
        (commands,) = (
            action
            for action in build_parser()._actions
            if hasattr(action, "choices") and action.choices
        )
        return commands.choices["serve-searcher"]

    def test_knob_flags_keep_their_names_and_defaults(self):
        declared = {
            flag: action.default
            for action in self.serve_parser()._actions
            for flag in action.option_strings
        }
        own = {"-h", "--help", "--shard-id", "--host", "--port", "--root"}
        assert {
            flag: default for flag, default in declared.items() if flag not in own
        } == self.GOLDEN
        assert all(
            type(declared[flag]) is type(default)
            for flag, default in self.GOLDEN.items()
        )

    def test_flags_build_the_server_the_command_runs(self, monkeypatch):
        from repro.net.server import SearcherServer, ServerOptions

        started: list = []
        monkeypatch.setattr(
            SearcherServer, "run", lambda self: started.append(self) or 0
        )
        argv = [
            "serve-searcher", "--shard-id", "4", "--host", "127.0.0.9",
            "--max-in-flight", "3", "--retry-after-s", "0.25",
            "--chaos-spec", "seed=9,drop_rate=0.5", "--slow-every", "2",
            "--slow-delay-s", "0.01",
        ]
        assert main(argv) == 0
        (server,) = started
        assert (server.node.shard_id, server.host) == (4, "127.0.0.9")
        assert server.options == ServerOptions(
            max_in_flight=3, retry_after_s=0.25, chaos="seed=9,drop_rate=0.5",
            slow_every=2, slow_delay_s=0.01,
        )
        assert server.chaos.seed == 9
        with pytest.raises(ValueError, match="batch_max must be >= 1"):
            main(["serve-searcher", "--shard-id", "0", "--batch-max", "0"])
