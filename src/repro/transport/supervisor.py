"""Local supervisor: spawn a C1+C2 daemon pair as real OS processes.

Tests, examples and ``SkNNSystem`` ``mode="distributed"`` use this to stand
up the distributed runtime on one machine: two ``repro party`` subprocesses
listening on ephemeral localhost ports (discovered through port files), a
provisioning step that ships the secret key to C2 and the encrypted table to
C1, and a hardened shutdown path (graceful ``transport.shutdown`` request,
then SIGTERM, then SIGKILL) that never leaks child processes — each daemon
additionally installs its own SIGTERM/atexit cleanup, so even a supervisor
crash leaves no orphaned listeners.

Resilience duties on top of process management:

* every (re)start is **health-gated** — ports being bound is not enough;
  :func:`~repro.resilience.health.wait_until_healthy` proves the daemon
  answers its control plane before anyone is handed its address; the roles
  boot concurrently, and a start that fails for any role reaps every
  daemon it spawned;
* :meth:`restart_role` respawns a single crashed/killed daemon **on its
  previous port** (``SO_REUSEADDR`` makes the rebind immediate), so peer
  daemons and clients reconnect to the address they already hold;
* a restarted daemon reloads its ``--pool-cache``, so the warm precompute
  pools survive the crash; every restart counts
  ``repro_daemon_restarts_total``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.core.roles import DataOwner
from repro.exceptions import ConfigurationError, DeadlineExceeded
from repro.resilience.health import wait_until_healthy
from repro.telemetry import metrics as telemetry_metrics
from repro.transport.client import RemoteCloud

__all__ = ["LocalSupervisor"]

_START_TIMEOUT = 30.0
#: how long a failed start lets its daemons exit on SIGTERM before SIGKILL
_ABORT_GRACE = 2.0


class LocalSupervisor:
    """Owns two party-daemon subprocesses and their scratch directory.

    Usage::

        with LocalSupervisor() as supervisor:
            remote = supervisor.provision_from_owner(owner, distance_bits=l)
            shares, report = remote.query(encrypted_query, k=2, mode="secure")

    Args:
        pool_cache: give each daemon a ``--pool-cache`` file inside the
            scratch directory (or, when a path is supplied, inside it) so a
            restarted pair starts hot.
        metrics: start each daemon with ``--metrics-listen 127.0.0.1:0``
            (an ephemeral Prometheus/stats HTTP listener, discoverable via
            ``transport.stats`` → ``metrics_address``).
        profile: start each daemon with ``--profile`` (the always-on
            sampling profiler; scrape collapsed stacks at ``/profile`` on
            the metrics listener or via ``transport.profile``).
        python: interpreter for the subprocesses (defaults to this one).
        io_deadline: forwarded to each daemon as ``--io-deadline`` (bound
            on mid-protocol peer-channel operations); ``None`` keeps the
            daemon default.
        state_dir: give each daemon a ``--state-dir`` (a per-role
            subdirectory of the scratch dir, or of the supplied path) so
            mailbox/reply journals and the provision manifest survive a
            crash — a restarted role then serves fetch/replay traffic
            without re-provisioning.
        shards: additionally spawn this many C1 *shard daemons* (logical
            names ``c1-shard0`` … ``c1-shardN-1``, started with ``--role c1
            --shard-index i --shard-count N``); :meth:`connect` then hands
            out shard-aware clients whose :meth:`RemoteCloud.provision`
            slices the table across them.
        peer_connections: forwarded to every C1-role daemon as
            ``--peer-connections`` (size of its pipelined C1↔C2 connection
            pool); ``None`` keeps the daemon default of 1.
    """

    def __init__(self, pool_cache: bool | str | Path = False,
                 metrics: bool = False,
                 python: str | None = None,
                 io_deadline: float | None = None,
                 state_dir: bool | str | Path = False,
                 profile: bool = False,
                 shards: int = 0,
                 peer_connections: int | None = None) -> None:
        self._python = python or sys.executable
        self._pool_cache = pool_cache
        self._metrics = metrics
        self._profile = profile
        self._io_deadline = io_deadline
        self._state_dir = state_dir
        self.shard_count = int(shards)
        self._peer_connections = peer_connections
        self._tempdir: tempfile.TemporaryDirectory | None = None
        self._processes: dict[str, subprocess.Popen] = {}
        self.addresses: dict[str, tuple[str, int]] = {}
        self._remote: RemoteCloud | None = None
        self._restart_lock = threading.Lock()
        self.restarts: dict[str, int] = {name: 0
                                         for name in self.role_names()}

    def role_names(self) -> list[str]:
        """Every logical daemon this supervisor owns: C2, the shard daemons,
        then the coordinator C1.

        The roles boot concurrently and the order carries nothing (C1 learns
        its peers' addresses at provisioning); logical names key
        ``addresses``, ``restarts``, port/log/state files and
        :meth:`restart_role`.
        """
        return (["c2"]
                + [f"c1-shard{index}" for index in range(self.shard_count)]
                + ["c1"])

    def _role_args(self, name: str) -> list[str]:
        """CLI arguments that turn a logical name into a daemon role."""
        if name == "c2":
            return ["--role", "c2"]
        args = ["--role", "c1"]
        if name.startswith("c1-shard"):
            args += ["--shard-index", name[len("c1-shard"):],
                     "--shard-count", str(self.shard_count)]
        if self._peer_connections is not None:
            args += ["--peer-connections", str(self._peer_connections)]
        return args

    # -- lifecycle ------------------------------------------------------------
    def _scratch(self) -> Path:
        assert self._tempdir is not None
        return Path(self._tempdir.name)

    def _cache_dir(self) -> Path:
        if isinstance(self._pool_cache, (str, Path)):
            cache_dir = Path(self._pool_cache)
            cache_dir.mkdir(parents=True, exist_ok=True)
            return cache_dir
        return self._scratch()

    def _role_state_dir(self, role: str) -> Path:
        base = (Path(self._state_dir)
                if isinstance(self._state_dir, (str, Path))
                else self._scratch() / "state")
        state = base / role
        state.mkdir(parents=True, exist_ok=True)
        return state

    def _spawn(self, role: str, listen: str) -> None:
        """Start one daemon process; the caller waits for port + health."""
        scratch = self._scratch()
        port_file = scratch / f"{role}.port"
        log_file = scratch / f"{role}.log"
        # A stale port file would satisfy the wait loop instantly with the
        # *previous* incarnation's line; remove it before spawning.
        port_file.unlink(missing_ok=True)
        command = [
            self._python, "-m", "repro", "party",
            *self._role_args(role),
            "--listen", listen,
            "--port-file", str(port_file),
        ]
        if self._pool_cache:
            command += ["--pool-cache",
                        str(self._cache_dir() / f"{role}.pools")]
        if self._state_dir:
            command += ["--state-dir", str(self._role_state_dir(role))]
        if self._metrics:
            command += ["--metrics-listen", "127.0.0.1:0"]
        if self._profile:
            command += ["--profile"]
        if self._io_deadline is not None:
            command += ["--io-deadline", str(self._io_deadline)]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [path for path in sys.path if path])
        with open(log_file, "ab") as log:
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                env=environment)
        self._processes[role] = process

    def start(self) -> "LocalSupervisor":
        """Spawn every daemon, then wait until each is accepting connections
        *and* answering its control plane (hello + ping).

        All roles boot at once, so the set is up after its slowest daemon,
        not after the sum of them.  If any role fails to come up, every
        spawned daemon is signalled and reaped and the scratch directory
        removed before the error propagates: a failed start leaves nothing
        running (``__exit__`` never runs when ``__enter__`` raises).
        """
        if self._processes:
            return self
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-transport-")
        try:
            for role in self.role_names():
                self._spawn(role, "127.0.0.1:0")
            for role in self.role_names():
                self.addresses[role] = self._wait_for_port(
                    role, self._scratch() / f"{role}.port")
                wait_until_healthy(self.addresses[role],
                                   timeout=_START_TIMEOUT)
        except BaseException:
            self._abort_start()
            raise
        return self

    def _abort_start(self) -> None:
        """Undo a failed :meth:`start`: SIGTERM every spawned daemon, reap
        it within ``_ABORT_GRACE`` seconds or SIGKILL it, drop the scratch
        directory.  Not :meth:`shutdown`: its graceful request cannot reach
        a half-started set, and it would wait out its timeout per daemon."""
        for process in self._processes.values():
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + _ABORT_GRACE
        for process in self._processes.values():
            try:
                process.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._processes = {}
        self.addresses = {}
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def _wait_for_port(self, role: str, port_file: Path) -> tuple[str, int]:
        deadline = time.monotonic() + _START_TIMEOUT
        process = self._processes[role]
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise ConfigurationError(
                    f"{role} daemon exited with code {process.returncode} "
                    f"during startup:\n{self._tail_log(role)}")
            if port_file.exists():
                text = port_file.read_text().strip()
                if text:
                    host, port = text.split()
                    return host, int(port)
            time.sleep(0.02)
        raise ConfigurationError(
            f"{role} daemon did not start within {_START_TIMEOUT:.0f}s:\n"
            f"{self._tail_log(role)}")

    def _tail_log(self, role: str) -> str:
        if self._tempdir is None:
            return ""
        log_file = Path(self._tempdir.name) / f"{role}.log"
        if not log_file.exists():
            return "(no log output)"
        return log_file.read_text()[-2000:]

    def restart(self) -> "LocalSupervisor":
        """Stop both daemons and start a fresh, *health-checked* pair (pool
        caches survive when the supervisor was created with a persistent
        ``pool_cache`` path)."""
        pool_cache = self._pool_cache
        self.shutdown()
        self._pool_cache = pool_cache
        self._processes = {}
        self.addresses = {}
        return self.start()

    # -- single-role crash recovery -------------------------------------------
    def kill(self, role: str) -> None:
        """SIGKILL one daemon (chaos testing: an abrupt crash, no cleanup)."""
        process = self._processes.get(role)
        if process is None:
            raise ConfigurationError(f"no {role!r} daemon to kill")
        process.kill()
        process.wait()
        # The dead daemon's port file is now a lie: a health probe (or the
        # port-wait loop of a concurrent restart) reading it would bind to
        # the previous incarnation's line.  Remove it with the process.
        if self._tempdir is not None:
            (self._scratch() / f"{role}.port").unlink(missing_ok=True)

    def restart_role(self, role: str,
                     timeout: float = _START_TIMEOUT) -> tuple[str, int]:
        """Respawn one daemon **on its previous port** and gate on health.

        The stable address is what makes single-role recovery transparent:
        clients and the peer daemon reconnect to the ``(host, port)`` they
        already hold.  The daemon's listener sets ``SO_REUSEADDR``, so the
        rebind succeeds as soon as the old process is gone.  Returns the
        (unchanged) address once the daemon answers hello + ping.

        The new process starts *unprovisioned*: the client's retry layer
        (``RemoteCloud.ensure_provisioned``) re-ships the key/table on its
        next attempt, and a ``--pool-cache`` makes it warm again.
        """
        with self._restart_lock:
            process = self._processes.get(role)
            if process is None:
                raise ConfigurationError(f"no {role!r} daemon to restart")
            if process.poll() is None:
                process.kill()
                process.wait()
            # Remove the stale port file *before* respawning: between the
            # old process dying and the new one binding, nothing may serve
            # a probe the dead daemon's port line.
            (self._scratch() / f"{role}.port").unlink(missing_ok=True)
            previous = self.addresses.get(role)
            listen = (f"{previous[0]}:{previous[1]}" if previous
                      else "127.0.0.1:0")
            self._spawn(role, listen)
            self.addresses[role] = self._wait_for_port(
                role, self._scratch() / f"{role}.port")
            try:
                wait_until_healthy(self.addresses[role], timeout=timeout)
            except DeadlineExceeded as exc:
                raise ConfigurationError(
                    f"restarted {role} daemon never became healthy: {exc}\n"
                    f"{self._tail_log(role)}") from exc
            self.restarts[role] = self.restarts.get(role, 0) + 1
            telemetry_metrics.get_registry().counter(
                "repro_daemon_restarts_total",
                "Party daemons restarted by a supervisor.",
                ("role",)).inc(role=role)
            return self.addresses[role]

    # -- provisioning / clients ------------------------------------------------
    def connect(self, **client_options: Any) -> RemoteCloud:
        """Open a fresh client connection set to the daemons.

        ``client_options`` (``retry``, ``request_deadline``, ``rng``,
        ``fetch_timeout``) pass through to :class:`RemoteCloud`.  With
        shard daemons configured, the client learns their addresses so
        provisioning slices the table across them.
        """
        if not self.addresses:
            self.start()
        shard_addresses = ([self.addresses[f"c1-shard{index}"]
                            for index in range(self.shard_count)]
                           or None)
        return RemoteCloud(self.addresses["c1"], self.addresses["c2"],
                           shard_addresses=shard_addresses,
                           **client_options)

    def provision_from_owner(self, owner: DataOwner,
                             distance_bits: int | None = None,
                             seed: int | None = None,
                             precompute_queries: int = 0,
                             k_default: int = 1,
                             **client_options: Any) -> RemoteCloud:
        """Play Alice: encrypt the owner's table and provision both daemons."""
        remote = self.connect(**client_options)
        remote.provision(
            owner.keypair, owner.encrypt_database(),
            distance_bits=(distance_bits if distance_bits is not None
                           else owner.distance_bit_length()),
            seed=seed, precompute_queries=precompute_queries,
            k_default=k_default)
        self._remote = remote
        return remote

    # -- shutdown --------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop both daemons: graceful request, SIGTERM, then SIGKILL."""
        if self._remote is not None:
            self._remote.shutdown_daemons()
            self._remote.close()
            self._remote = None
        elif self._processes:
            try:
                remote = self.connect()
                remote.shutdown_daemons()
                remote.close()
            except Exception:
                pass  # fall through to signals
        for role, process in self._processes.items():
            if process.poll() is None:
                try:
                    process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=timeout)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
        self._processes = {}
        self.addresses = {}
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    @property
    def running(self) -> bool:
        """Whether both subprocesses are alive."""
        return bool(self._processes) and all(
            process.poll() is None for process in self._processes.values())

    def __enter__(self) -> "LocalSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
