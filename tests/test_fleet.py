"""Fleet launcher readiness: the deadline must hold against hung children.

The PR-3 launcher blocked on ``process.stdout.readline()``, so a child
that was alive but silent (wedged before printing ``SEARCHER-READY``)
stalled the launcher *past* ``ready_timeout_s`` -- the deadline was only
checked between lines.  These tests pin the fixed contract: readiness is
awaited with non-blocking pipe reads against the absolute deadline, a
hung or silent child raises :class:`TimeoutError` within the timeout
plus a small margin, and the child is killed AND reaped before the
raise.  Fake searcher scripts stand in for real servers so each case is
fast and deterministic.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import asdict, fields

import pytest

from repro.net import fleet as fleet_mod
from repro.net.client import RemoteSearcherClient
from repro.net.server import ServerOptions

#: Slack on top of ``ready_timeout_s``: generous enough for a loaded CI
#: box, tiny next to the 600 s the fake children would otherwise hang.
MARGIN_S = 5.0


def _script(code: str) -> list[str]:
    return [sys.executable, "-u", "-c", code]


@pytest.fixture
def spawned(monkeypatch):
    """Capture every Popen the launcher creates (to assert reaping)."""
    processes: list[subprocess.Popen] = []
    real_popen = subprocess.Popen

    def spy(*args, **kwargs):
        process = real_popen(*args, **kwargs)
        processes.append(process)
        return process

    monkeypatch.setattr(fleet_mod.subprocess, "Popen", spy)
    yield processes
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


class TestReadinessTimeout:
    def test_hung_child_times_out_within_deadline_and_is_reaped(
        self, spawned
    ):
        """A child that prints *something* but never READY and then
        wedges must not stall the launcher past the deadline (the
        blocking-readline bug: output arrived, then the pipe went
        silent forever)."""
        begin = time.monotonic()
        with pytest.raises(TimeoutError, match="not ready within"):
            fleet_mod.launch_searcher(
                0,
                ready_timeout_s=1.0,
                command=_script(
                    "import time\n"
                    "print('booting up', flush=True)\n"
                    "time.sleep(600)\n"
                ),
            )
        elapsed = time.monotonic() - begin
        assert elapsed < 1.0 + MARGIN_S, (
            f"launcher stalled {elapsed:.1f}s past a 1.0s ready timeout"
        )
        (child,) = spawned
        assert child.poll() is not None, "timed-out child was not reaped"

    def test_silent_child_times_out_within_deadline_and_is_reaped(
        self, spawned
    ):
        """A child that prints nothing at all: the old code blocked on
        the very first readline."""
        begin = time.monotonic()
        with pytest.raises(TimeoutError, match="not ready within"):
            fleet_mod.launch_searcher(
                0,
                ready_timeout_s=1.0,
                command=_script("import time; time.sleep(600)"),
            )
        elapsed = time.monotonic() - begin
        assert elapsed < 1.0 + MARGIN_S
        (child,) = spawned
        assert child.poll() is not None

    def test_chatty_child_without_ready_line_still_times_out(self, spawned):
        """Output alone must not reset the deadline: a child logging in
        a loop (but never announcing readiness) times out too."""
        begin = time.monotonic()
        with pytest.raises(TimeoutError, match="not ready within"):
            fleet_mod.launch_searcher(
                0,
                ready_timeout_s=1.0,
                command=_script(
                    "import time\n"
                    "while True:\n"
                    "    print('still warming up', flush=True)\n"
                    "    time.sleep(0.05)\n"
                ),
            )
        assert time.monotonic() - begin < 1.0 + MARGIN_S
        (child,) = spawned
        assert child.poll() is not None


class TestReadinessOutcomes:
    def test_child_exit_before_ready_raises_runtime_error(self, spawned):
        with pytest.raises(RuntimeError, match="exited with code 3"):
            fleet_mod.launch_searcher(
                0,
                ready_timeout_s=30.0,
                command=_script("import sys; sys.exit(3)"),
            )
        (child,) = spawned
        assert child.poll() == 3

    def test_wrong_shard_announcement_rejected_and_reaped(self, spawned):
        with pytest.raises(RuntimeError, match="announced shard 7"):
            fleet_mod.launch_searcher(
                0,
                ready_timeout_s=30.0,
                command=_script(
                    "import time\n"
                    "print('SEARCHER-READY shard=7 port=1234', flush=True)\n"
                    "time.sleep(600)\n"
                ),
            )
        (child,) = spawned
        assert child.poll() is not None

    def test_launch_failure_names_log_holding_child_output(
        self, spawned, tmp_path
    ):
        """A failed launch points at the log file, and the log holds
        what the child printed before dying."""
        with pytest.raises(RuntimeError, match="searcher log: "):
            fleet_mod.launch_searcher(
                0,
                ready_timeout_s=30.0,
                log_dir=tmp_path,
                command=_script(
                    "import sys\n"
                    "print('boom: manifest missing', flush=True)\n"
                    "sys.exit(3)\n"
                ),
            )
        (log,) = list(tmp_path.glob("searcher-shard0-*.log"))
        assert b"boom: manifest missing" in log.read_bytes()

    def test_live_searcher_output_persisted_to_log(self, spawned, tmp_path):
        """Post-readiness output lands in ``SearcherProcess.log_path``."""
        searcher = fleet_mod.launch_searcher(
            2,
            ready_timeout_s=30.0,
            log_dir=tmp_path,
            command=_script(
                "import time\n"
                "print('SEARCHER-READY shard=2 port=43210', flush=True)\n"
                "print('serving traffic', flush=True)\n"
                "time.sleep(600)\n"
            ),
        )
        try:
            assert searcher.log_path is not None
            assert searcher.log_path.parent == tmp_path
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if b"serving traffic" in searcher.log_path.read_bytes():
                    break
                time.sleep(0.05)
            assert b"serving traffic" in searcher.log_path.read_bytes()
        finally:
            searcher.kill()

    def test_ready_line_after_noise_is_parsed(self, spawned):
        """Readiness may follow other output (warnings, banners) and the
        announced port is returned."""
        searcher = fleet_mod.launch_searcher(
            4,
            ready_timeout_s=30.0,
            command=_script(
                "import time\n"
                "print('some banner')\n"
                "print('SEARCHER-READY shard=4 port=43210', flush=True)\n"
                "time.sleep(600)\n"
            ),
        )
        try:
            assert searcher.shard_id == 4
            assert searcher.port == 43210
            assert searcher.alive()
        finally:
            searcher.kill()
        assert not searcher.alive()


def stats_of(searcher: fleet_mod.SearcherProcess) -> dict:
    client = RemoteSearcherClient(searcher.address)
    try:
        return client.stats()
    finally:
        client.close()


class TestOptionsCrossTheProcessBoundary:
    """The generated child argv is the one place a ``ServerOptions``
    field crosses a process boundary: what the launcher was given is
    what the child's STATS reports, for real ``serve-searcher``
    processes."""

    EVERY_FIELD = ServerOptions(
        slow_every=3,
        slow_delay_s=0.001,
        max_in_flight=2,
        queue_cap=5,
        retry_after_s=0.125,
        batch_max=4,
        batch_wait_ms=1.5,
        chaos="seed=7,delay_rate=0.25,delay_s=0.001",
    )

    def test_every_field_reaches_the_child(self, spawned, tmp_path):
        options = self.EVERY_FIELD
        at_default = [
            spec.name
            for spec in fields(options)
            if getattr(options, spec.name) == spec.default
        ]
        assert at_default == [], "give the new field a non-default value here"
        searcher = fleet_mod.launch_searcher(0, log_dir=tmp_path, options=options)
        try:
            stats = stats_of(searcher)
        finally:
            searcher.kill()
        assert stats["options"] == asdict(options)
        assert stats["chaos"]["seed"] == 7

    def test_default_options_spawn_the_bare_command(self, spawned, tmp_path):
        searcher = fleet_mod.launch_searcher(0, log_dir=tmp_path)
        try:
            assert stats_of(searcher)["options"] == asdict(ServerOptions())
        finally:
            searcher.kill()
        (child,) = spawned
        assert child.args == [
            sys.executable, "-m", "repro.cli", "serve-searcher",
            "--shard-id", "0", "--host", "127.0.0.1", "--port", "0",
        ]  # b863b1d's bare launch, token for token

    def test_an_unknown_field_is_a_type_error_naming_it(self):
        with pytest.raises(TypeError, match="batch_maxx"):
            fleet_mod.launch_searcher(0, batch_maxx=2)

    def test_every_member_of_a_replicated_fleet_takes_the_options(
        self, spawned, tmp_path
    ):
        """At b863b1d ``launch_replicated_fleet`` forwarded no server
        knob, so admission / chaos / stragglers were single-replica only."""
        groups = fleet_mod.launch_replicated_fleet(
            2, 2, log_dir=tmp_path, max_in_flight=1, queue_cap=0, slow_shard=1,
            slow_every=2, slow_delay_s=0.001,
        )
        try:
            assert [len(group) for group in groups] == [2, 2]
            for shard_id, group in enumerate(groups):
                for member in group:
                    stats = stats_of(member)
                    assert stats["shard_id"] == shard_id
                    assert stats["admission"]["max_in_flight"] == 1
                    assert stats["admission"]["queue_cap"] == 0
                    # Only group ``slow_shard`` keeps the straggler fields.
                    assert stats["options"]["slow_every"] == (2 if shard_id == 1 else 0)
        finally:
            fleet_mod.shutdown_replicated_fleet(groups)

    def test_a_failed_replica_takes_its_started_siblings_down(
        self, spawned, tmp_path, monkeypatch
    ):
        """At 4d7059d a group joined ``groups`` only once complete, so when
        replica 2 of group 0 failed to launch, replica 1 outlived the call."""
        real, launches = fleet_mod.launch_searcher, []

        def second_launch_dies(shard_id, **launch):
            launches.append(shard_id)
            if len(launches) == 2:
                launch["command"] = _script("raise SystemExit(3)")
            return real(shard_id, **launch)

        monkeypatch.setattr(fleet_mod, "launch_searcher", second_launch_dies)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            fleet_mod.launch_replicated_fleet(2, 2, log_dir=tmp_path)
        assert launches == [0, 0]
        assert len(spawned) == 2
        assert [child.poll() is None for child in spawned] == [False, False]
