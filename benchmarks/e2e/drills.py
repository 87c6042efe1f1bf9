"""Layer drills: direct calls into one layer's public functions.

A drill gives a layer inputs of the workload's own shape — the same key
size, the same ``n*m`` ciphertexts in a scan message, the same ``l`` — and
times or counts only that layer, so a per-layer number can be set beside
the end-to-end metric it should move (the table is in README.md).  Drills
run after the window, in the runner process, with tracing off.

Sizes are cut where the paper-scale shape would not fit the time a traced
run has: the Paillier drill uses :data:`PAILLIER_VALUES` values and the
protocol drills at most :data:`PROTOCOL_RECORDS` records.  Every result is
per item, so the cut changes its noise, not its meaning.  The SkNN_m
sub-protocols (SBD, SMIN, SMIN_n) are drilled only on a workload whose
queries run them; elsewhere they report 0.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time
from random import Random
from typing import Any, Callable

from repro.core.cloud import FederatedCloud
from repro.core.parallel import ParallelSkNNBasic, PersistentWorkerPool
from repro.crypto.paillier import Ciphertext, PaillierKeyPair
from repro.db.datasets import synthetic_uniform
from repro.db.encrypted_table import EncryptedTable
from repro.db.table import Table
from repro.exceptions import ChannelError
from repro.network.channel import DuplexChannel, Message
from repro.network.party import TwoPartySetting
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN
from repro.protocols.ssed import SecureSquaredEuclideanDistance
from repro.transport.framing import recv_frame, send_frame
from repro.transport.mux import MuxChannel, MuxConnection
from repro.transport.wire import WireCodec

from benchmarks.e2e.workloads import Workload

__all__ = ["run_drills", "PAILLIER_VALUES", "PROTOCOL_RECORDS"]

PAILLIER_VALUES = 32
PROTOCOL_RECORDS = 8
_SMALL_ROUNDTRIPS = 200
_LARGE_ROUNDTRIPS = 10


def _timed(function: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def _paillier(keypair: PaillierKeyPair, rng: Random
              ) -> tuple[dict[str, float], list[Ciphertext]]:
    public, private = keypair.public_key, keypair.private_key
    count = PAILLIER_VALUES
    values = [rng.randrange(1 << 16) for _ in range(count)]
    scalars = [rng.randrange(public.n) for _ in range(count)]
    encrypt_s, ciphertexts = _timed(
        lambda: public.encrypt_batch(values, rng=rng))
    decrypt_s, decrypted = _timed(lambda: private.decrypt_batch(ciphertexts))
    if decrypted != values:
        raise AssertionError("Paillier drill: decryption is not the inverse")
    scalar_mul_s, _ = _timed(
        lambda: public.scalar_mul_batch(ciphertexts, scalars))
    add_s, _ = _timed(lambda: [left + right for _ in range(8)
                               for left, right in zip(ciphertexts,
                                                      ciphertexts[1:])])
    return {
        "crypto.paillier.encrypt_us": encrypt_s / count * 1e6,
        "crypto.paillier.decrypt_us": decrypt_s / count * 1e6,
        "crypto.paillier.scalar_mul_us": scalar_mul_s / count * 1e6,
        "crypto.paillier.add_us": add_s / (8 * (count - 1)) * 1e6,
    }, ciphertexts


def _echo_frames(sock: socket.socket) -> None:
    with sock:
        while (body := recv_frame(sock)) is not None:
            send_frame(sock, body)


def _framing(small: bytes, large: bytes) -> dict[str, float]:
    """``send_frame``/``recv_frame`` echo over a socket pair."""
    near, far = socket.socketpair()
    echo = threading.Thread(target=_echo_frames, args=(far,),
                            name="drill-frame-echo")
    echo.start()
    try:
        def roundtrip(body: bytes) -> float:
            started = time.perf_counter()
            send_frame(near, body)
            recv_frame(near)
            return time.perf_counter() - started
        small_s = [roundtrip(small) for _ in range(_SMALL_ROUNDTRIPS)]
        large_s = [roundtrip(large) for _ in range(_LARGE_ROUNDTRIPS)]
    finally:
        near.close()
        echo.join(timeout=10.0)
    return {
        "transport.framing.small_roundtrip_us":
            statistics.median(small_s) * 1e6,
        # the body crosses the pair twice per round trip
        "transport.framing.large_mb_per_s":
            2 * len(large) / statistics.median(large_s) / 1e6,
    }


def _mux(codec: WireCodec, ciphertext: Ciphertext) -> dict[str, float]:
    """The small echo through a ``MuxConnection`` pair, one context."""
    near, far = socket.socketpair()
    echoes: list[threading.Thread] = []

    def serve_context(channel: MuxChannel) -> None:
        def echo() -> None:
            try:
                while True:
                    channel.send("C2", channel.receive("C2"), tag="echo")
            except ChannelError:
                pass  # the connection was closed: the drill is over
        thread = threading.Thread(target=echo, name="drill-mux-echo")
        thread.start()
        echoes.append(thread)

    server = MuxConnection(far, codec, "C2", "C1",
                           on_new_context=serve_context)
    client = MuxConnection(near, codec, "C1", "C2")
    server.start_reader()
    client.start_reader()
    try:
        channel = client.channel("drill")

        def roundtrip() -> float:
            started = time.perf_counter()
            channel.send("C1", ciphertext, tag="echo")
            channel.receive("C1", expected_tag="echo")
            return time.perf_counter() - started
        samples = [roundtrip() for _ in range(_SMALL_ROUNDTRIPS)]
    finally:
        client.close()
        server.close()
        for thread in echoes:
            thread.join(timeout=10.0)
    return {"transport.mux.roundtrip_us": statistics.median(samples) * 1e6}


def _wire_and_channels(workload: Workload, keypair: PaillierKeyPair,
                       pool: list[Ciphertext]) -> dict[str, float]:
    """Codec, framing, mux and in-memory channel on one scan-round message
    (``n*m`` ciphertexts) and on a one-ciphertext message."""
    codec = WireCodec(keypair.public_key)
    count = workload.n * workload.m
    scan = [pool[index % len(pool)] for index in range(count)]
    message = Message("C1", "C2", "SM.batch_masked_squares", scan)
    encode_s, body = _timed(lambda: codec.encode_message(message))
    decode_s, decoded = _timed(lambda: codec.decode_message(body))
    if decoded.payload != scan:
        raise AssertionError("wire drill: decode is not the inverse")
    small = codec.encode_message(Message("C1", "C2", "echo", pool[0]))

    channel = DuplexChannel("C1", "C2")

    def send_receive() -> None:
        channel.send("C1", scan, tag="SM.batch_masked_squares")
        channel.receive("C2", expected_tag="SM.batch_masked_squares")
    channel_s = statistics.median(_timed(send_receive)[0] for _ in range(5))

    metrics = {
        "transport.wire.encode_us_per_ct": encode_s / count * 1e6,
        "transport.wire.decode_us_per_ct": decode_s / count * 1e6,
        "transport.wire.bytes_per_ct": len(body) / count,
        "network.channel.send_recv_us_per_ct": channel_s / count * 1e6,
    }
    metrics.update(_framing(small, body))
    metrics.update(_mux(codec, pool[0]))
    return metrics


def _counted(setting: TwoPartySetting, function: Callable[[], Any]
             ) -> tuple[float, int, int, Any]:
    """``(seconds, crypto ops, channel bytes, result)`` of one protocol call,
    from the counters the setting's keys and channel already keep."""
    public = setting.public_key.counter
    private = setting.decryptor.private_key.counter

    def snapshot() -> tuple[int, int]:
        pk, sk = public.snapshot(), private.snapshot()
        return (pk["encryptions"] + pk["exponentiations"] + sk["decryptions"],
                setting.channel.total_traffic().bytes_transferred)
    ops_before, bytes_before = snapshot()
    seconds, result = _timed(function)
    ops_after, bytes_after = snapshot()
    return (seconds, ops_after - ops_before, bytes_after - bytes_before,
            result)


def _protocols(workload: Workload, keypair: PaillierKeyPair, rng: Random,
               rows: list[list[Ciphertext]]) -> dict[str, float]:
    """In-process sub-protocol drills on a fresh ``TwoPartySetting``; the
    first encrypted record doubles as the query."""
    setting = TwoPartySetting.create(keypair, rng=Random(rng.getrandbits(63)))
    records = len(rows)
    query = rows[0]

    pairs = [(cipher, cipher) for row in rows for cipher in row]
    sm_s, _, _, _ = _counted(
        setting, lambda: SecureMultiplication(setting).run_batch(pairs))
    ssed_s, ssed_ops, ssed_bytes, distances = _counted(
        setting, lambda: SecureSquaredEuclideanDistance(setting).run_many(
            query, rows))
    metrics = {
        "protocols.sm.batch_ms_per_item": sm_s / len(pairs) * 1e3,
        "protocols.ssed.ms_per_record": ssed_s / records * 1e3,
        "protocols.ssed.ops_per_record": ssed_ops / records,
        "protocols.ssed.bytes_per_record": ssed_bytes / records,
        "protocols.sbd.ms_per_value": 0.0,
        "protocols.smin.ms_per_pair": 0.0,
        "protocols.sminn.ms_per_run": 0.0,
        "protocols.sminn.ops_per_run": 0.0,
    }
    if workload.secure:
        sbd_s, _, _, bits = _counted(
            setting, lambda: SecureBitDecomposition(
                setting, workload.l).run_batch(distances))
        smin_s, _, _, _ = _counted(
            setting, lambda: SecureMinimum(setting).run(bits[0], bits[1]))
        sminn_s, sminn_ops, _, _ = _counted(
            setting, lambda: SecureMinimumOfN(setting).run(bits))
        metrics.update({
            "protocols.sbd.ms_per_value": sbd_s / records * 1e3,
            "protocols.smin.ms_per_pair": smin_s * 1e3,
            "protocols.sminn.ms_per_run": sminn_s * 1e3,
            "protocols.sminn.ops_per_run": float(sminn_ops),
        })
    return metrics


def _parallel(workload: Workload, keypair: PaillierKeyPair, rng: Random,
              table: Table, query: list[Ciphertext]) -> dict[str, float]:
    """Pool dispatch cost, and the chunk kernel doing the SSED drill's scan."""
    with PersistentWorkerPool(workers=2, backend="process") as pool:
        pool.map(abs, [1, 2])  # spawn the workers
        dispatch_s = statistics.median(
            _timed(lambda: pool.map(abs, [1, 2]))[0] for _ in range(20))

    cloud = FederatedCloud.deploy(keypair, rng=Random(rng.getrandbits(63)))
    cloud.c1.host_database(EncryptedTable.encrypt_table(
        table, keypair.public_key, rng=rng))
    with ParallelSkNNBasic(cloud, backend="serial") as kernel:
        kernel.run_with_report(query, workload.k)
        scan_s = kernel.last_report.phase_seconds["distance"]
    return {
        "core.parallel.pool_dispatch_ms": dispatch_s * 1e3,
        "core.parallel.chunk_scan_ms_per_record": scan_s / len(table) * 1e3,
    }


def run_drills(workload: Workload, keypair: PaillierKeyPair,
               seed: int) -> dict[str, float]:
    """Every drill metric for one workload's shape."""
    rng = Random(seed)
    metrics, ciphertexts = _paillier(keypair, rng)
    metrics.update(_wire_and_channels(workload, keypair, ciphertexts))
    table = synthetic_uniform(min(workload.n, PROTOCOL_RECORDS), workload.m,
                              distance_bits=workload.l,
                              seed=rng.getrandbits(31))
    rows = [keypair.public_key.encrypt_batch(list(record.values), rng=rng)
            for record in table]
    metrics.update(_protocols(workload, keypair, rng, rows))
    metrics.update(_parallel(workload, keypair, rng, table, rows[0]))
    return metrics
