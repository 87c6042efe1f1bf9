"""The four workloads: their shapes and how each deployment is stood up.

Every deployment is built from the *same* inputs (a plaintext table and a
key pair) through the program's public constructors only, and hands the load
generator one ``ask(query) -> Answer`` callable per closed-loop client.  The
shapes are fixed; ``--smoke`` shrinks only the key size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from random import Random
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_base import SkNNRunReport
from repro.core.system import SkNNSystem
from repro.crypto.paillier import PaillierKeyPair
from repro.db.table import Table
from repro.transport.supervisor import LocalSupervisor

__all__ = ["Answer", "Workload", "WORKLOADS", "QUERY_DEADLINE_S", "smoke"]

#: every query must be answered within this many seconds or it has failed
QUERY_DEADLINE_S = 60.0


class Answer(NamedTuple):
    """What Bob gets back, plus the program's own public report of the run."""

    neighbors: list[tuple[int, ...]]
    report: SkNNRunReport
    encrypt_s: float
    reconstruct_s: float


Ask = Callable[[Sequence[int]], Answer]


class _Deployment:
    """Common lifecycle: ``setup`` → ``client(i)`` … → ``teardown``."""

    def __init__(self, workload: "Workload", keypair: PaillierKeyPair,
                 table: Table, seed: int) -> None:
        self.workload = workload
        self.keypair = keypair
        self.table = table
        self.rng = Random(seed)

    def _owner(self) -> DataOwner:
        return DataOwner(self.table, keypair=self.keypair,
                         rng=Random(self.rng.getrandbits(63)))

    def _bob(self) -> QueryClient:
        return QueryClient(self.keypair.public_key, self.workload.m,
                           rng=Random(self.rng.getrandbits(63)))

    def _local_cloud(self, owner: DataOwner) -> FederatedCloud:
        cloud = FederatedCloud.deploy(
            self.keypair, rng=Random(self.rng.getrandbits(63)))
        cloud.c1.host_database(owner.encrypt_database())
        return cloud

    def reports(self) -> dict[str, Any]:
        """The program's public reports, read at the window's edges:
        ``daemons`` (``RemoteCloud.stats()``), ``engines`` (per party,
        ``PrecomputeEngine.stats()``), ``server`` (``ServerStats``)."""
        return {}

    def control_ping(self) -> bool:
        """One round trip on the deployment's control plane, if it has one."""
        return False


class DaemonDeployment(_Deployment):
    """``LocalSupervisor`` → C1 (+ shard daemons) + C2 as OS processes."""

    def __init__(self, *args: Any, shards: int = 0,
                 peer_connections: int | None = None, mode: str) -> None:
        super().__init__(*args)
        self.mode = mode
        self.supervisor = LocalSupervisor(shards=shards,
                                          peer_connections=peer_connections)
        self.remote = None
        self._clones: list[Any] = []

    def setup(self) -> None:
        self.supervisor.start()
        self.remote = self.supervisor.provision_from_owner(
            self._owner(), distance_bits=self.workload.l,
            seed=self.rng.getrandbits(31),
            request_deadline=QUERY_DEADLINE_S)

    def client(self, index: int) -> Ask:
        bob = self._bob()
        remote = self.remote.clone()  # own sockets per closed-loop client
        self._clones.append(remote)
        k, mode = self.workload.k, self.mode

        def ask(query: Sequence[int]) -> Answer:
            encrypted = bob.encrypt_query(query)
            shares, report = remote.query(encrypted, k, mode=mode)
            neighbors = bob.reconstruct(shares)
            return Answer(neighbors, report,
                          bob.last_cost.encrypt_query_seconds,
                          bob.last_cost.reconstruct_seconds)
        return ask

    def reports(self) -> dict[str, Any]:
        stats = self.remote.stats()
        return {"daemons": stats,
                "engines": {party: stats[party]["engine"]
                            for party in ("c1", "c2")
                            if "engine" in stats[party]}}

    def control_ping(self) -> bool:
        self.remote.stats()
        return True

    def teardown(self) -> None:
        for remote in self._clones:
            remote.close()
        self.supervisor.shutdown()


class ServeDeployment(_Deployment):
    """``SkNNSystem.serve`` — scheduler → sharded store → process pool."""

    system = server = None

    def setup(self) -> None:
        owner = self._owner()
        self.system = SkNNSystem(owner, self._local_cloud(owner), self._bob(),
                                 mode="basic")
        self.server = self.system.serve(shards=2, workers=2,
                                        backend="process", batch_size=2)
        self.server.start()

    def client(self, index: int) -> Ask:
        session = self.server.open_session(f"bob-{index}")
        k = self.workload.k

        def ask(query: Sequence[int]) -> Answer:
            answer = session.query(query, k, timeout=QUERY_DEADLINE_S)
            return Answer(answer.neighbors, answer.report,
                          answer.client_encrypt_seconds,
                          answer.client_reconstruct_seconds)
        return ask

    def reports(self) -> dict[str, Any]:
        return {"server": self.server.stats.snapshot()}

    def teardown(self) -> None:
        try:
            if self.server is not None:
                self.server.close()
        finally:
            if self.system is not None:
                self.system.close()


class WarmDeployment(_Deployment):
    """Serial SkNN_b over the in-memory channel, pools warmed at setup."""

    system = None

    def setup(self) -> None:
        owner = self._owner()
        self.system = SkNNSystem(
            owner, self._local_cloud(owner), self._bob(), mode="basic",
            k_default=self.workload.k,
            precompute=self.workload.max_queries + 1)  # + the warm-up query

    def client(self, index: int) -> Ask:
        system, k = self.system, self.workload.k

        def ask(query: Sequence[int]) -> Answer:
            answer = system.query_with_report(query, k)
            return Answer(answer.neighbors, answer.report,
                          answer.client_encrypt_seconds,
                          answer.client_reconstruct_seconds)
        return ask

    def reports(self) -> dict[str, Any]:
        return {"engines": {
            "c1": self.system.precompute_engine.stats(),
            "c2": self.system.decryptor_precompute_engine.stats()}}

    def teardown(self) -> None:
        if self.system is not None:
            self.system.close()


@dataclass(frozen=True)
class Workload:
    """One fixed input shape on one deployment."""

    name: str
    key_size: int
    n: int
    m: int
    l: int
    k: int
    clients: int
    #: SkNN_m: SBD/SMIN/SMIN_n are on the path, and ties break at random,
    #: so answers are held to the oracle's distances, not its tie-break
    secure: bool
    deploy: Callable[..., Any]
    #: per-client cap on measured queries — set where warmed pools cover a
    #: fixed number of queries, so the window never runs cold
    max_queries: int | None = None
    #: ``setup → teardown`` cycles behind the ``setup_s`` median
    setup_cycles: int = 3


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("secure_dist_k512", 512, n=8, m=3, l=6, k=2, clients=1,
             secure=True,
             deploy=partial(DaemonDeployment, mode="secure")),
    Workload("basic_shards_k512", 512, n=32, m=4, l=10, k=4, clients=2,
             secure=False,
             deploy=partial(DaemonDeployment, shards=2, peer_connections=2,
                            mode="basic")),
    Workload("serve_local_k512", 512, n=32, m=4, l=10, k=4, clients=2,
             secure=False, deploy=ServeDeployment,
             setup_cycles=9),  # 50 ms each: a median of 3 is all jitter
    Workload("basic_warm_k1024", 1024, n=16, m=3, l=8, k=2, clients=1,
             secure=False, deploy=WarmDeployment,
             max_queries=10,
             setup_cycles=1),  # ≈18 s, nearly all of it warming pools
)}


def smoke(workload: Workload) -> Workload:
    """The same deployment at K=128, set up once, two queries per client."""
    return replace(workload, key_size=128, max_queries=2, setup_cycles=1)
