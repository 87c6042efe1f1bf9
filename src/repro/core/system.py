"""End-to-end SkNN system: Alice, Bob, and the federated cloud in one object.

:class:`SkNNSystem` wires together every role of the paper's setting so that a
user of the library can go from a plaintext table to answered kNN queries in a
few lines::

    from repro import SkNNSystem
    from repro.db import heart_disease_table, heart_disease_example_query

    system = SkNNSystem.setup(heart_disease_table(include_diagnosis=False),
                              key_size=512, mode="secure")
    neighbors = system.query(heart_disease_example_query(), k=2)

Internally ``setup`` performs Alice's key generation and database encryption,
deploys the two clouds, and registers Bob; ``query`` performs Bob's query
encryption, the chosen cloud protocol (SkNN_b, SkNN_m, or the in-process
scatter-gather plan as parallel SkNN_b or over N shards) and Bob's share
recombination, returning plaintext records.

For multi-user serving, :meth:`SkNNSystem.serve` stands up a
:class:`~repro.service.scheduler.QueryServer` over a sharded deployment —
see :mod:`repro.service`.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Literal, Sequence

if TYPE_CHECKING:  # pragma: no cover - imports used for annotations only
    from repro.service.scheduler import QueryServer
    from repro.transport.client import RemoteCloud
    from repro.transport.supervisor import LocalSupervisor

from repro.analysis.cost_model import pool_targets
from repro.core.cloud import FederatedCloud
from repro.core.parallel import ParallelSkNNBasic, ShardedCloud, scan_tasks
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_base import SkNNRunReport
from repro.core.sknn_basic import SkNNBasic, packing_slots
from repro.core.sknn_secure import SkNNSecure, check_query_domain
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.db.table import Table
from repro.exceptions import ConfigurationError, QueryError
from repro.network.latency import LatencyModel

__all__ = ["QueryAnswer", "SkNNSystem"]

Mode = Literal["basic", "secure", "parallel", "sharded", "distributed"]


def _checked_distance_bits(owner: DataOwner, distance_bits: int | None) -> int:
    """Resolve the domain parameter ``l``, refusing one too small for the schema.

    SMIN compares squared distances as ``l``-bit integers; an ``l`` below
    what the schema's value ranges need compares them modulo ``2**(l+1)``
    and the secure protocol would return a wrong neighbour.  A larger
    ``l`` only costs time (the classifier extension relies on that).
    """
    required = owner.distance_bit_length()
    if distance_bits is None:
        return required
    if distance_bits < required:
        raise ConfigurationError(
            f"distance_bits={distance_bits} cannot hold the squared "
            f"distances of this schema, which need {required} bits")
    return distance_bits


@dataclass
class QueryAnswer:
    """The result of one kNN query as seen by Bob.

    Attributes:
        neighbors: the k nearest records as plaintext attribute tuples, in
            increasing order of distance to the query.
        report: the run's record — populated for every mode (parallel
            and sharded runs name the ``phase_seconds`` entries
            ``distance`` / ``merge`` / ``deliver``).
        client_encrypt_seconds: Bob's cost to encrypt the query.
        client_reconstruct_seconds: Bob's cost to recombine the two shares.
    """

    neighbors: list[tuple[int, ...]]
    report: SkNNRunReport | None
    client_encrypt_seconds: float
    client_reconstruct_seconds: float


class SkNNSystem:
    """A complete deployment of the SkNN setting (Alice + C1 + C2 + Bob)."""

    def __init__(self, owner: DataOwner, cloud: FederatedCloud | None,
                 client: QueryClient, mode: Mode = "secure",
                 distance_bits: int | None = None, workers: int = 6,
                 parallel_backend: str = "process", shards: int = 2,
                 k_default: int | None = None,
                 precompute: int = 0,
                 remote: "RemoteCloud | None" = None,
                 supervisor: "LocalSupervisor | None" = None) -> None:
        if cloud is None and remote is None:
            raise ConfigurationError(
                "a system needs either a local cloud or a remote daemon pair")
        self.owner = owner
        self.cloud = cloud
        self.client = client
        self.mode = mode
        self.workers = workers
        self.parallel_backend = parallel_backend
        self.shards = shards
        self.k_default = k_default
        #: distributed mode: the provisioned daemon pair and (when this
        #: system spawned it) the supervisor owning the two subprocesses
        self.remote = remote
        self.supervisor = supervisor
        self.distance_bits = _checked_distance_bits(owner, distance_bits)
        if precompute > 0 and cloud is not None:
            self._attach_precompute(precompute)
        self._protocol = self._build_protocol()

    # -- construction ------------------------------------------------------------
    @classmethod
    def setup(cls, table: Table, key_size: int = 512, mode: Mode = "secure",
              k_default: int | None = None, rng: Random | None = None,
              distance_bits: int | None = None, workers: int = 6,
              parallel_backend: str = "process", shards: int = 2,
              latency_model: LatencyModel | None = None,
              precompute: int = 0) -> "SkNNSystem":
        """Stand up the whole system from a plaintext table.

        Args:
            table: Alice's plaintext database.
            key_size: Paillier key size ``K`` in bits.
            mode: ``"basic"`` (Algorithm 5), ``"secure"`` (Algorithm 6),
                ``"parallel"`` (Section 5.3 parallel SkNN_b) or ``"sharded"``
                (scatter-gather SkNN_b over N shards, see
                :mod:`repro.service`).
            k_default: default neighbor count used when :meth:`query` is
                called without an explicit ``k``.
            rng: optional deterministic randomness source (tests only).
            distance_bits: override for the domain parameter ``l`` (defaults
                to the value derived from the schema; a smaller value raises
                :class:`~repro.exceptions.ConfigurationError`).
            workers: worker count for the parallel and sharded modes.
            parallel_backend: ``"process"``, ``"thread"`` or ``"serial"``.
            shards: partition count for the sharded mode.
            latency_model: optional simulated network latency between clouds.
            precompute: when positive, attach one warmed
                :class:`~repro.crypto.precompute.PrecomputeEngine` per
                cloud, holding its encryptions for this many queries of
                ``k_default`` neighbours, so the online path consumes
                pooled obfuscators instead of computing them.  In
                distributed mode each daemon warms its own party-local
                engine instead.

        ``mode="distributed"`` spawns a local C1+C2 daemon pair (two real OS
        processes talking length-prefixed TCP frames), provisions them with
        the encrypted table and the secret key, and answers queries over the
        wire with the fully secure SkNN_m protocol.  The system owns the
        subprocesses; :meth:`close` (or the context manager) shuts them
        down.
        """
        owner = DataOwner(table, key_size=key_size, rng=rng)
        client = QueryClient(owner.public_key, table.dimensions, rng=rng)
        # Checked before anything is spawned or encrypted.
        _checked_distance_bits(owner, distance_bits)
        if mode == "distributed":
            # Local import: the transport stack is only needed here.
            from repro.transport.supervisor import LocalSupervisor

            supervisor = LocalSupervisor().start()
            try:
                remote = supervisor.provision_from_owner(
                    owner,
                    distance_bits=distance_bits,
                    seed=rng.getrandbits(31) if rng is not None else None,
                    precompute_queries=precompute,
                    k_default=k_default or 1)
            except BaseException:
                supervisor.shutdown()
                raise
            return cls(owner, None, client, mode=mode,
                       distance_bits=distance_bits, k_default=k_default,
                       remote=remote, supervisor=supervisor)
        cloud = FederatedCloud.deploy(owner.keypair, rng=rng,
                                      latency_model=latency_model)
        cloud.c1.host_database(owner.encrypt_database())
        return cls(owner, cloud, client, mode=mode, distance_bits=distance_bits,
                   workers=workers, parallel_backend=parallel_backend,
                   shards=shards, k_default=k_default, precompute=precompute)

    def _warm_engines(self, queries: int,
                      scan_plan: "tuple[int, int] | None",
                      rng: Random | None = None
                      ) -> tuple[PrecomputeEngine, PrecomputeEngine]:
        """Warmed C1 and C2 engines covering ``queries`` queries.

        Each is sized at its party's encryptions per query in the cost
        model (:func:`~repro.analysis.cost_model.pool_targets`) at the
        table's packing.  ``scan_plan`` is ``(shards, workers)`` when the
        scan runs on the in-process plan's chunk workers
        (``parallel``/``sharded`` modes and :meth:`serve`), which encrypt
        with slices drained from C1's engine, one chunk task
        (:func:`~repro.core.parallel.scan_tasks`) at a time.  C1 and C2
        each get their own engine, filled with their own randomness, as the
        non-colluding model requires; C2's is built on the private key, so
        its refills take the CRT kernel its inline encryptions use.
        """
        table = self.owner.table
        ssed_slots, distance_slots = packing_slots(
            self.owner.public_key.key_size, table.schema)
        targets = pool_targets(
            len(table), table.dimensions, self.k_default or 1, queries,
            # SkNN_m's SMIN and zero-search material, never drawn by a
            # worker scan
            bit_length=(self.distance_bits
                        if self.mode == "secure" and scan_plan is None
                        else None),
            ssed_slots=ssed_slots, distance_slots=distance_slots,
            worker_chunks=(None if scan_plan is None else
                           [stop - start for start, stop
                            in scan_tasks(len(table), *scan_plan)]))
        engines = tuple(
            PrecomputeEngine(key, rng=rng or self._derived_rng(),
                             config=PrecomputeConfig(obfuscators=target))
            for key, target in zip(
                (self.owner.public_key, self.cloud.c2.private_key),
                targets))
        for engine in engines:
            engine.warm()
        return engines

    def _derived_rng(self) -> Random | None:
        """A fresh deterministic stream off the owner's, when it has one."""
        if self.owner.rng is None:
            return None
        return Random(self.owner.rng.getrandbits(63))

    def _attach_precompute(self, queries: int) -> None:
        """Build, warm and attach per-cloud precomputation engines — in
        secure mode also C1's engine of DGK re-randomizers, sized like the
        others (``pool_targets(..., dgk=True)``)."""
        engines = self._warm_engines(queries, {
            "parallel": (1, self.workers),
            "sharded": (self.shards, self.workers)}.get(self.mode))
        dgk_engine = None
        if self.mode == "secure":
            table = self.owner.table
            dgk_engine = PrecomputeEngine(
                self.cloud.c1.dgk_key, rng=self._derived_rng(),
                config=PrecomputeConfig(obfuscators=pool_targets(
                    len(table), table.dimensions, self.k_default or 1,
                    queries, bit_length=self.distance_bits, dgk=True)[0]))
            dgk_engine.warm()
        self.cloud.attach_engine(*engines, dgk_engine)

    @property
    def precompute_engine(self):
        """C1's attached precomputation engine, when one exists."""
        return self.cloud.engine if self.cloud is not None else None

    @property
    def decryptor_precompute_engine(self):
        """C2's attached precomputation engine, when one exists."""
        return self.cloud.c2.engine if self.cloud is not None else None

    def _build_protocol(self):
        """Instantiate the protocol object matching the configured mode."""
        if self.mode == "distributed":
            # Local import: repro.transport sits on top of repro.core.
            from repro.transport.client import RemoteStore
            return RemoteStore(self.remote, mode="secure",
                               supervisor=self.supervisor)
        if self.mode == "basic":
            return SkNNBasic(self.cloud)
        if self.mode == "secure":
            return SkNNSecure(self.cloud, distance_bits=self.distance_bits)
        if self.mode == "parallel":
            return ParallelSkNNBasic(self.cloud, workers=self.workers,
                                     backend=self.parallel_backend,
                                     precompute=self.cloud.engine)
        if self.mode == "sharded":
            return ShardedCloud(self.cloud, shards=self.shards,
                                workers=self.workers,
                                backend=self.parallel_backend,
                                precompute=self.cloud.engine)
        raise ConfigurationError(f"unknown mode {self.mode!r}")

    # -- queries ------------------------------------------------------------------
    def _resolve_k(self, k: int | None) -> int:
        """Apply the configured ``k_default`` when no ``k`` is given."""
        if k is not None:
            return k
        if self.k_default is None:
            raise QueryError(
                "no k given and no k_default was configured at setup")
        return self.k_default

    def query(self, query_record: Sequence[int],
              k: int | None = None) -> list[tuple[int, ...]]:
        """Answer a kNN query and return the plaintext neighbor records.

        ``k`` may be omitted when the system was set up with ``k_default``.
        """
        return self.query_with_report(query_record, k).neighbors

    def query_with_report(self, query_record: Sequence[int],
                          k: int | None = None) -> QueryAnswer:
        """Answer a kNN query and return the neighbors plus run statistics.

        The returned :class:`QueryAnswer` carries a populated report in every
        mode, built by the protocol's one instrumented runner.
        """
        k = self._resolve_k(k)
        # SkNN_m's l and both modes' SSED masks are sized for the schema
        check_query_domain(self.owner.table.schema, query_record)
        encrypted_query = self.client.encrypt_query(query_record)

        shares = self._protocol.run_with_report(
            encrypted_query, k, distance_bits=self.distance_bits
        )
        report = self._protocol.last_report

        neighbors = self.client.reconstruct(shares)
        return QueryAnswer(
            neighbors=neighbors,
            report=report,
            client_encrypt_seconds=self.client.last_cost.encrypt_query_seconds,
            client_reconstruct_seconds=self.client.last_cost.reconstruct_seconds,
        )

    # -- serving -------------------------------------------------------------------
    def serve(self, shards: int | None = None, workers: int | None = None,
              backend: str | None = None, batch_size: int = 4,
              session_pool_size: int = 0,
              precompute: int = 0) -> "QueryServer":
        """Stand up a multi-session :class:`~repro.service.scheduler.QueryServer`.

        The server answers queries through a sharded scatter-gather plan over
        this system's encrypted table (independent of the system's own query
        ``mode``; a ``"distributed"`` system holds no in-process cloud and
        raises :class:`~repro.exceptions.ConfigurationError`).  Use it as a
        context manager to start the background
        serving thread and release the worker pool afterwards::

            with system.serve(shards=3, batch_size=4) as server:
                bob = server.open_session("bob")
                answer = bob.query(record, k=2)

        Args:
            shards: partition count (defaults to the system's ``shards``).
            workers: worker pool size (defaults to the system's ``workers``).
            backend: pool backend (defaults to ``parallel_backend``).
            batch_size: maximum queries grouped into one scan pass.
            session_pool_size: when positive, every session precomputes this
                many factors for its query encryptions.
            precompute: when positive, the sharded store owns a warmed
                :class:`~repro.crypto.precompute.PrecomputeEngine` holding
                the encryptions of this many queries, chunk workers' slices
                included; the server refills it in idle scheduler slots.
        """
        # Local import: repro.service sits on top of repro.core.
        from repro.service.scheduler import QueryServer

        if self.cloud is None:
            raise ConfigurationError(
                "serve() needs the in-process cloud; a distributed system "
                "answers queries through its daemons")
        server_rng = self._derived_rng()
        shards = shards if shards is not None else self.shards
        workers = workers if workers is not None else self.workers
        engine = None
        if precompute > 0:
            # Reuse an engine already attached at setup time (its warmed
            # pools are paid for) instead of replacing it with a cold one.
            engine = self.cloud.engine
            if engine is None:
                engine, _ = self._warm_engines(precompute, (shards, workers),
                                               rng=server_rng)
        sharded = ShardedCloud(
            self.cloud,
            shards=shards,
            workers=workers,
            backend=backend if backend is not None else self.parallel_backend,
            precompute=engine,
        )
        return QueryServer(sharded, batch_size=batch_size, rng=server_rng,
                           session_pool_size=session_pool_size)

    # -- lifecycle -------------------------------------------------------------------
    def close(self) -> None:
        """Release protocol resources (worker pools of parallel/sharded modes)."""
        closer = getattr(self._protocol, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "SkNNSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- accessors ------------------------------------------------------------------
    @property
    def key_size(self) -> int:
        """The Paillier key size ``K`` of this deployment."""
        return self.owner.keypair.key_size
