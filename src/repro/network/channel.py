"""In-memory duplex channel between the two cloud parties.

Protocol implementations never hand Python objects from one party to the
other directly: every value crosses a :class:`DuplexChannel`, which

* counts messages, ciphertexts and payload bytes in both directions,
* accumulates simulated network delay according to a
  :class:`~repro.network.latency.LatencyModel`, and
* enforces FIFO ordering so the transcript of a protocol run is well defined.

This is the reproduction's substitute for the paper's two cloud processes: it
preserves the protocol transcript (the sequence and content of exchanged
messages) while keeping everything testable inside one Python process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.crypto.paillier import Ciphertext
from repro.crypto.serialization import (
    FRAME_HEADER_BYTES,
    message_envelope_to_bytes,
)
from repro.exceptions import ChannelError, SerializationError
from repro.network.latency import LatencyModel, ZeroLatency
from repro.network.stats import TrafficStats
from repro.telemetry import tracing as _tracing

__all__ = ["Message", "DuplexChannel", "message_wire_size"]


def _ambient_trace_context() -> tuple[str, str] | None:
    """The active ``(trace_id, span_id)`` pair, or ``None`` (common case).

    Both transports stamp outgoing messages identically, so byte accounting
    stays comparable between in-memory and TCP runs whether or not a trace
    is active.
    """
    context = _tracing.current_wire_context()
    return (context[0], context[1]) if context else None


@dataclass(frozen=True)
class Message:
    """A single message on the wire.

    Attributes:
        sender: logical name of the sending party (e.g. ``"C1"``).
        recipient: logical name of the receiving party.
        tag: protocol-defined label describing the payload (useful when
            inspecting transcripts in tests, e.g. ``"SM.batch_masked_operands"``).
        payload: the transported value; may be a ciphertext, an integer, or a
            (possibly nested) list/tuple of those.
        trace: optional ``(trace_id, span_id)`` distributed-tracing context
            stamped on the envelope while a query trace is active.
        context: optional query-context id stamped on frames that belong to
            one of several pipelined in-flight queries sharing a connection
            (``None`` on the in-memory channel and plain TCP channels).
    """

    sender: str
    recipient: str
    tag: str
    payload: Any
    trace: tuple[str, str] | None = None
    context: str | None = None


def _count_payload(payload: Any) -> tuple[int, int]:
    """Return ``(ciphertexts, plaintext_items)`` for a payload."""
    if isinstance(payload, Ciphertext):
        return 1, 0
    if isinstance(payload, bool):
        return 0, 1
    if isinstance(payload, (int, float)):
        return 0, 1
    if isinstance(payload, (list, tuple)):
        ciphertexts = plaintexts = 0
        for item in payload:
            c, p = _count_payload(item)
            ciphertexts += c
            plaintexts += p
        return ciphertexts, plaintexts
    if isinstance(payload, dict):
        return _count_payload(list(payload.values()))
    if payload is None:
        return 0, 0
    if isinstance(payload, str):
        return 0, 1
    raise ChannelError(f"unsupported payload type on channel: {type(payload).__name__}")


def message_wire_size(message: Message) -> int:
    """Exact bytes ``message`` occupies on the TCP transport.

    The in-memory channel accounts its traffic with the same wire codec the
    :mod:`repro.transport` TCP framing uses (envelope JSON plus the 4-byte
    length prefix), so ``bytes_transferred`` is directly comparable between
    a simulated run and a distributed one.
    """
    try:
        body = message_envelope_to_bytes(
            message.sender, message.recipient, message.tag, message.payload,
            trace=message.trace, context=message.context)
    except SerializationError as exc:
        raise ChannelError(str(exc)) from exc
    return FRAME_HEADER_BYTES + len(body)


class DuplexChannel:
    """Bidirectional FIFO channel between two named endpoints.

    The channel is deliberately synchronous: a ``send`` enqueues a message and
    the matching ``receive`` dequeues it.  Protocol drivers interleave the two
    parties' steps in program order, which produces exactly the transcript a
    real sequential execution of the two-party protocol would produce.
    """

    #: Both endpoints live in this process, so protocol drivers must execute
    #: the remote party's steps inline (``p2_step`` dispatch).  The TCP
    #: transport's channel sets this ``False``: there the opposite endpoint
    #: is a separate OS process running its own steps.
    runs_both_parties = True

    def __init__(self, endpoint_a: str = "C1", endpoint_b: str = "C2",
                 latency_model: LatencyModel | None = None) -> None:
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self._queues: dict[str, deque[Message]] = {
            endpoint_a: deque(),
            endpoint_b: deque(),
        }
        self._latency_model = latency_model or ZeroLatency()
        #: traffic statistics per sending endpoint
        self.traffic: dict[str, TrafficStats] = {
            endpoint_a: TrafficStats(),
            endpoint_b: TrafficStats(),
        }
        #: total simulated network delay accumulated so far (seconds)
        self.simulated_delay_seconds = 0.0
        #: full transcript of every message sent (used by security tests)
        self.transcript: list[Message] = []

    # -- helpers ------------------------------------------------------------
    def _other(self, endpoint: str) -> str:
        if endpoint == self.endpoint_a:
            return self.endpoint_b
        if endpoint == self.endpoint_b:
            return self.endpoint_a
        raise ChannelError(f"unknown endpoint {endpoint!r}")

    # -- primary API ----------------------------------------------------------
    def send(self, sender: str, payload: Any, tag: str = "") -> None:
        """Send ``payload`` from ``sender`` to the opposite endpoint."""
        recipient = self._other(sender)
        message = Message(sender=sender, recipient=recipient, tag=tag,
                          payload=payload,
                          trace=_ambient_trace_context())
        ciphertexts, plaintexts = _count_payload(payload)
        size = message_wire_size(message)
        self.traffic[sender].record(ciphertexts, plaintexts, size, tag=tag)
        self.simulated_delay_seconds += self._latency_model.delay_for_message(size)
        self._queues[recipient].append(message)
        self.transcript.append(message)

    def receive(self, recipient: str, expected_tag: str | None = None) -> Any:
        """Receive the next pending message addressed to ``recipient``.

        Args:
            recipient: the endpoint reading its inbox.
            expected_tag: optional tag check; a mismatch indicates a protocol
                implementation bug and raises :class:`ChannelError`.
        """
        if recipient not in self._queues:
            raise ChannelError(f"unknown endpoint {recipient!r}")
        queue = self._queues[recipient]
        if not queue:
            raise ChannelError(f"no pending message for {recipient!r}")
        message = queue.popleft()
        if expected_tag is not None and message.tag != expected_tag:
            raise ChannelError(
                f"expected message tagged {expected_tag!r} but got {message.tag!r}"
            )
        return message.payload

    def pending(self, recipient: str) -> int:
        """Number of undelivered messages waiting for ``recipient``."""
        if recipient not in self._queues:
            raise ChannelError(f"unknown endpoint {recipient!r}")
        return len(self._queues[recipient])

    # -- accounting -----------------------------------------------------------
    def total_traffic(self) -> TrafficStats:
        """Aggregate traffic over both directions."""
        a = self.traffic[self.endpoint_a]
        b = self.traffic[self.endpoint_b]
        return a.merged_with(b)

    def reset_accounting(self) -> None:
        """Clear traffic statistics and the transcript (queues must be empty)."""
        for queue in self._queues.values():
            if queue:
                raise ChannelError("cannot reset accounting with undelivered messages")
        for stats in self.traffic.values():
            stats.reset()
        self.simulated_delay_seconds = 0.0
        self.transcript.clear()

    def transcript_payloads(self, sender: str | None = None) -> Iterable[Any]:
        """Yield payloads from the transcript, optionally filtered by sender.

        Security tests use this to assert that everything a party ever sees on
        the wire is either a ciphertext or a value that is (statistically)
        independent of the private inputs.
        """
        for message in self.transcript:
            if sender is None or message.sender == sender:
                yield message.payload
