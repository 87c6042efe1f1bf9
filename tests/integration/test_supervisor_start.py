"""``LocalSupervisor.start``: every role boots at once, and a start that
fails for any role leaves nothing running.

Real daemon subprocesses (``repro party``), no provisioning and no keys:
each test only starts and stops a role set.  Nothing here depends on how
long a boot takes — the ordering test reads the recorded call sequence, and
the failure tests check process state after ``start()`` has raised.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.transport import supervisor as supervisor_module
from repro.transport.supervisor import LocalSupervisor


class _RecordingSupervisor(LocalSupervisor):
    """Records each spawn and port wait in call order, every process it
    spawned and its scratch directory; ``failing`` names a role whose daemon
    is started with an unknown flag (it exits with code 2)."""

    def __init__(self, failing: str | None = None, **options) -> None:
        super().__init__(**options)
        self.failing = failing
        self.calls: list[tuple[str, str]] = []
        self.spawned = []
        self.scratch_dirs = set()

    def _role_args(self, name: str) -> list[str]:
        args = super()._role_args(name)
        return args + ["--no-such-flag"] if name == self.failing else args

    def _spawn(self, role: str, listen: str) -> None:
        self.calls.append(("spawn", role))
        super()._spawn(role, listen)
        self.spawned.append(self._processes[role])
        self.scratch_dirs.add(self._scratch())

    def _wait_for_port(self, role, port_file):
        self.calls.append(("wait", role))
        return super()._wait_for_port(role, port_file)


@pytest.mark.parametrize("shards", [0, 2])
def test_every_role_is_spawned_before_the_first_wait(monkeypatch, shards):
    supervisor = _RecordingSupervisor(shards=shards)
    probe = supervisor_module.wait_until_healthy

    def recording_probe(address, timeout):
        supervisor.calls.append(("healthy", address))
        return probe(address, timeout=timeout)

    monkeypatch.setattr(supervisor_module, "wait_until_healthy",
                        recording_probe)
    with supervisor:
        assert supervisor.running
        assert set(supervisor.addresses) == set(supervisor.role_names())
    kinds = [kind for kind, _ in supervisor.calls]
    roles = supervisor.role_names()
    assert len(roles) == 2 + shards
    assert kinds == ["spawn"] * len(roles) + ["wait", "healthy"] * len(roles)
    assert [role for kind, role in supervisor.calls if kind == "spawn"] \
        == roles
    assert [role for kind, role in supervisor.calls if kind == "wait"] \
        == roles
    assert all(process.poll() is not None for process in supervisor.spawned)


@pytest.mark.parametrize("shards, failing", [
    pytest.param(0, "c1", id="c1"),
    pytest.param(2, "c1", id="c1-with-shards"),
    pytest.param(2, "c1-shard1", id="shard"),
])
def test_a_failed_start_leaves_nothing_running(shards, failing):
    supervisor = _RecordingSupervisor(failing=failing, shards=shards)
    with pytest.raises(ConfigurationError,
                       match=f"{failing} daemon exited with code 2"):
        with supervisor:
            pytest.fail("start() should have raised")
    assert len(supervisor.spawned) == 2 + shards
    assert all(process.poll() is not None for process in supervisor.spawned)
    assert len(supervisor.scratch_dirs) == 1
    assert not any(path.exists() for path in supervisor.scratch_dirs)
    assert not supervisor.running and supervisor.addresses == {}
    # the supervisor is reusable: the next start boots a fresh set
    supervisor.failing = None
    with supervisor:
        assert supervisor.running
    assert all(process.poll() is not None for process in supervisor.spawned)
