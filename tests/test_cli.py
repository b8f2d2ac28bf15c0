"""Tests for the command-line interface (build / query / info)."""

import argparse
import json
from dataclasses import asdict, fields, make_dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.config import LannsConfig
from repro.data.io import write_fvecs
from repro.hnsw.params import HnswParams
from repro.net.server import ServerOptions
from repro.online.broker import BrokerPolicy
from repro.utils.flags import knob
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

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["bench", "--clients", "2"], "--clients"),
            (["bench", "--max-batch", "8"], "--max-batch"),
            (["bench", "--max-wait-ms", "1"], "--max-wait-ms"),
            (["bench", "--cache-size", "64"], "--cache-size"),
            (["build", "--out", "idx", "--cluster-mode", "threads"], "'threads'"),
        ],
    )
    def test_the_removed_bench_and_build_options_are_refused(self, capsys, argv, named):
        """``bench``'s load test and sparklite's ``threads`` mode are gone."""
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(argv)
        assert refused.value.code == 2
        assert named in capsys.readouterr().err


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
                counts = server.node.tally.snapshot()
                assert counts["queries_served"] > 0
                assert (
                    f"# searcher {server.address}: shard {server.node.shard_id}, "
                    f"{counts['requests_served']} requests, "
                    f"{counts['queries_served']} queries\n"
                ) in out
            assert "# TYPE" in out  # merged Prometheus exposition
            assert "lanns_" in out

            assert main(["stats", "--searchers", spec, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == {server.address for server in servers}
        finally:
            for server in servers:
                server.stop()


def spy(monkeypatch, owner, name: str) -> list:
    """Record ``(args, kwargs)`` of every ``owner.name`` call, and make it."""
    real = getattr(owner, name)
    calls: list = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorder)
    return calls


class TestEveryFlagReachesItsConsumer:
    """The flags no test, README, ``ci.yml`` or ``SKILL.md`` line named
    at b863b1d (ROADMAP 5(c)): each is driven through ``main([...])``
    with a non-default value and must arrive where it is consumed.
    ``TestCliSurface`` in ``tests/test_analysis_lint.py`` holds every
    flag of ``cli.py`` to a line like these."""

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

    def test_bench_flags_reach_the_broker_passes(self, monkeypatch):
        import repro.cli

        monkeypatch.setenv("REPRO_SCALE", "0.02")  # 200 vectors, 10 queries
        calls = spy(monkeypatch, repro.cli.Broker, "execute")
        argv = [
            "bench", "--segments", "2", "--batch-size", "4",
            "--hnsw-m", "6", "--ef-construction", "30", "--ef", "33",
        ]
        assert main(argv) == 0
        requests = [request for (_, request), _ in calls]
        # The sequential pass sends ten one-row requests; the batched
        # pass 4, 4, 2.
        sizes = [len(request.queries) for request in requests]
        assert sizes == [1] * 10 + [4, 4, 2]
        assert {request.ef for request in requests} == {33}

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
        "--max-in-flight": 0,
        "--queue-cap": 0,
        "--retry-after-s": 0.05,
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
            "--chaos-spec", "seed=9,drop_rate=0.5,delay_every=2,delay_s=0.01",
        ]
        assert main(argv) == 0
        (server,) = started
        assert (server.node.shard_id, server.host) == (4, "127.0.0.9")
        assert server.options == ServerOptions(
            max_in_flight=3, retry_after_s=0.25,
            chaos="seed=9,drop_rate=0.5,delay_every=2,delay_s=0.01",
        )
        assert (server.chaos.seed, server.chaos.delay_every) == (9, 2)

    @pytest.mark.parametrize(
        "flag, value",
        [("--slow-every", "2"), ("--batch-max", "4"), ("--batch-wait-ms", "1")],
    )
    def test_the_retired_flags_are_refused(self, capsys, flag, value):
        """A stall is a ``FaultPlan`` ``delay`` (``--chaos-spec
        delay_every=N,delay_s=S``) and rows coalesce at the broker
        (``BrokerPolicy.max_batch``); the straggler's and the searcher
        micro-batcher's flags left with their fields, so argparse
        refuses them."""
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(["serve-searcher", "--shard-id", "0", flag, value])
        assert refused.value.code == 2
        assert flag in capsys.readouterr().err


def subparser(name: str) -> argparse.ArgumentParser:
    (commands,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands.choices[name]


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
#: Which dataclass a subcommand's generated flags build, and the row key.
GENERATED = {
    "build": (LannsConfig, "config"),
    "bench": (LannsConfig, "config"),
    "query": (BrokerPolicy, "policy"),
    "serve-searcher": (ServerOptions, "options"),
}


class TestGoldenCommandLines:
    """``cli_golden.json`` was recorded at 4d7059d, where every config /
    policy flag was hand-written and handed off keyword by keyword: for
    each ``repro.cli`` line of README, ``ci.yml``, the verify skill and
    this file (plus one line per subcommand with every generated flag
    non-default) it holds the subcommand, the ``LannsConfig`` /
    ``BrokerPolicy`` / ``ServerOptions`` value the line meant (``to_dict``
    / ``asdict``, key order included) and the rest of the namespace; and
    per subcommand every flag's default, choices and requiredness.  Five
    edits since, each a retired field leaving with its key: the
    ``BrokerPolicy.cache_quantize_decimals`` key (``null`` in all ten
    ``policy`` rows); the straggler's ``slow_every`` /
    ``slow_delay_s`` (their flags became ``delay_every`` / ``delay_s``
    of the two rows' ``--chaos-spec``); and ``query --spill`` (gone from
    two rows' argv, every ``query`` row's ``rest`` and the flag table;
    ``--spill 2`` is now an argparse error); and the searcher's
    ``batch_max`` / ``batch_wait_ms`` (gone from every ``serve-searcher``
    row's ``options``, the flag table and one row's argv); and the six
    settings only tests set, ``max_m`` / ``max_m0`` / ``ml`` /
    ``keep_pruned_connections`` / ``use_per_shard_topk`` /
    ``paper_literal_probit`` (gone from all 16 ``config`` rows)."""

    @staticmethod
    def linter_namespace(argv, monkeypatch) -> dict:
        """What the linter's own parser makes of what ``lint`` forwards."""
        seen = []
        real = argparse.ArgumentParser.parse_args

        def spying(self, args=None, namespace=None):
            parsed = real(self, args, namespace)
            if self.prog == "repro.cli lint":
                seen.append(parsed)
                raise KeyboardInterrupt  # before the lint itself runs
            return parsed

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spying)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        (parsed,) = seen
        return {
            name: [str(path) for path in value]
            if isinstance(value, list)
            else value if value is None or isinstance(value, bool) else str(value)
            for name, value in vars(parsed).items()
        }

    @pytest.mark.parametrize("row", GOLDEN["rows"], ids=lambda row: " ".join(row["argv"]))
    def test_a_line_means_what_it_meant(self, row, monkeypatch, capsys):
        try:
            args = build_parser().parse_args(row["argv"])
        except SystemExit as refused:
            assert {"argv": row["argv"], "exit": refused.code} == row
            return
        seen = {"argv": row["argv"], "command": args.command}
        consumed = {"command"}
        if args.command == "lint":
            seen["linter"] = self.linter_namespace(row["argv"], monkeypatch)
            assert seen == row
            return
        if args.command in GENERATED:
            cls, key = GENERATED[args.command]
            value = cls.from_args(args)
            seen[key] = value.to_dict() if cls is LannsConfig else asdict(value)
            consumed |= {spec.name for spec in cls.flags().values()}
            assert json.dumps(seen[key]) == json.dumps(row[key])  # key order too
        seen["rest"] = {
            name: value
            for name, value in vars(args).items()
            if name not in consumed and not callable(value)
        }
        assert seen == row

    @pytest.mark.parametrize("command", sorted(GOLDEN["flags"]))
    def test_every_flag_keeps_its_default_and_choices(self, command):
        declared = {
            flag: {
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
            }
            for action in subparser(command)._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert declared == GOLDEN["flags"][command]


def away_from_default(spec):
    """A valid value for a knob field that is not its default (all of
    them together make a valid ``LannsConfig``: 4 x 4, segment-aligned)."""
    if spec.metadata["choices"]:
        return spec.metadata["choices"][-1]
    return spec.default + 3 if isinstance(spec.default, int) else 0.2


class TestConfigFlags:
    """One test per *field*, not per flag somebody remembered: replaces
    ``test_build_flag_reaches_the_manifest[--alpha / --metric / --seed /
    --spill-mode]``, ``test_min_graph_size_flag_flows_into_build`` and
    the ``--hnsw-m`` / ``--ef-construction`` half of the bench test."""

    FLAGS = LannsConfig.flags()

    @staticmethod
    def held(config: LannsConfig, spec):
        owner = config if spec in fields(LannsConfig) else config.hnsw
        return getattr(owner, spec.name)

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    def test_flag_to_config_to_dict_and_back(self, flag):
        spec, value = self.FLAGS[flag], away_from_default(self.FLAGS[flag])
        lines = [["build", "--root", "r", "--data", "d", "--out", "o"]]
        if flag in subparser("bench")._option_string_actions:
            lines.append(["bench"])
        for line in lines:
            args = build_parser().parse_args([*line, flag, str(value)])
            config = LannsConfig.from_args(args)
            assert self.held(config, spec) == value != spec.default
            wire = json.loads(json.dumps(config.to_dict()))
            assert LannsConfig.from_dict(wire) == config

    def test_every_flag_shows_in_info_after_build(self, corpus, capsys):
        root, _, _ = corpus
        argv = ["build", "--root", str(root / "hdfs"), "--data", str(root / "data.npy")]
        argv += ["--out", "idx-every-flag"]
        for flag, spec in self.FLAGS.items():
            argv += [flag, str(away_from_default(spec))]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["info", "--root", str(root / "hdfs"), "--index", "idx-every-flag"]) == 0
        shown = LannsConfig.from_dict(json.loads(capsys.readouterr().out)["config"])
        assert {
            flag: self.held(shown, spec) for flag, spec in self.FLAGS.items()
        } == {flag: away_from_default(spec) for flag, spec in self.FLAGS.items()}

    def test_a_new_field_is_a_flag_with_no_edit_to_cli(self, corpus, capsys, monkeypatch):
        """A throwaway knob on ``HnswParams`` shows up in ``build --help``,
        ``bench --help``, ``to_dict()`` and ``info`` -- ``cli.py`` untouched."""
        extended = make_dataclass(
            "HnswParams",
            [("throwaway", "int", knob(7, "a knob that exists for one test"))],
            bases=(HnswParams,),
            frozen=True,
        )
        (hnsw,) = (spec for spec in fields(LannsConfig) if spec.name == "hnsw")
        monkeypatch.setattr(hnsw, "default_factory", extended)
        for command in ("build", "bench"):
            assert "--throwaway THROWAWAY" in subparser(command).format_help()
        root, _, _ = corpus
        argv = build_args(root, extra=["--throwaway", "9"])
        argv[argv.index("--out") + 1] = "idx-throwaway"
        config = LannsConfig.from_args(build_parser().parse_args(argv))
        assert config.to_dict()["hnsw"]["throwaway"] == 9
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["info", "--root", str(root / "hdfs"), "--index", "idx-throwaway"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["hnsw"]["throwaway"] == 9


class TestQueryModes:
    """``query`` has two modes; a flag only the other one reads used to
    be dropped without a word."""

    @pytest.mark.parametrize(
        "extra, belongs_to",
        [
            (["--partial-policy", "degrade"], "remote mode"),
            (["--request-timeout-s", "2"], "remote mode"),
            (["--hedge-after-s", "auto"], "remote mode"),
            (["--trace-out", "trace.json"], "remote mode"),
            (["--no-checkpoint", "--searchers", "127.0.0.1:1"], "offline job"),
        ],
    )
    def test_a_flag_of_the_other_mode_is_refused(self, extra, belongs_to, capsys):
        argv = ["query", "--root", "r", "--index", "idx", "--queries", "q.npy"]
        with pytest.raises(SystemExit) as refused:
            main(argv + extra)
        assert refused.value.code == 2
        message = capsys.readouterr().err
        assert f"{extra[0]} belongs to" in message and belongs_to in message

    def test_the_policy_refuses_what_the_deleted_flag_parser_did(self, corpus):
        """``_hedge_after`` turned 0, -1 and NaN into a usage error; now
        ``BrokerPolicy`` itself refuses them, for every caller."""
        root, _, _ = corpus
        argv = ["query", "--root", "r", "--index", "idx", "--searchers", "127.0.0.1:1"]
        argv += ["--queries", str(root / "queries.npy"), "--hedge-after-s"]
        for delay in ("0", "-1", "nan"):
            with pytest.raises(ValueError, match="hedge_after_s must be positive"):
                main([*argv, delay])
