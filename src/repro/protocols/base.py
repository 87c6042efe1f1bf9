"""Shared machinery for the two-party secure sub-protocols of Section 3.

Every sub-protocol (SM, SSED, SBD, SMIN, SMIN_n) runs between the same
two parties:

* ``P1`` — the evaluator (cloud C1): holds ciphertexts and the public key;
* ``P2`` — the decryptor (cloud C2): holds the Paillier secret key.

Protocol classes derive from :class:`TwoPartyProtocol`, which stores the
:class:`~repro.network.party.TwoPartySetting` and exposes the small set of
ciphertext manipulations that appear over and over in the paper's algorithms
(homomorphic subtraction, multiplication by ``N - r`` to realize ``-r``, and
fresh randomization), :meth:`TwoPartyProtocol.take_masks`, the source of
P1's independent additive masks (:func:`mask_range` is the one masking
rule), drawn a chunk of a round at a time, and
:meth:`TwoPartyProtocol.run_pipelined`, the one shape of a batched round:
two half-batches in flight, so the two clouds compute at the same time
instead of taking turns.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

from repro.crypto.paillier import Ciphertext, PaillierPublicKey, slots
from repro.exceptions import ConfigurationError, ProtocolError
from repro.network.party import DecryptorParty, EvaluatorParty, TwoPartySetting
from repro.telemetry import metrics as _metrics
from repro.telemetry import profiling as _profiling
from repro.telemetry import tracing as _tracing

__all__ = ["P2StepDispatcher", "TwoPartyProtocol",
           "MASK_ZN", "MASK_SBD", "MASK_SHORT", "MASK_SLOT",
           "STATISTICAL_SECURITY", "mask_range",
           "PIPELINE_MIN_ITEMS", "pipeline_chunks", "record_round",
           "traced_round"]

#: ``sigma``: a mask of ``bits + sigma`` bits hides a ``bits``-bit value
#: from the key holder up to statistical distance ``2**-sigma`` — the width
#: of :data:`MASK_SHORT` and of SMIN's domain
#: (:meth:`~repro.protocols.smin.SecureMinimum.domain_fits`).
STATISTICAL_SECURITY = 40

#: Additive-mask kinds (the sampling range each protocol requires).
MASK_ZN = "zn"            # r uniform in [0, N) — delivery (Bob's shares: no
                          #   C1 power strips them), SM
MASK_SBD = "sbd"          # r uniform in [0, N - 2^bits): z + r never wraps —
                          #   SMIN's round 1 (bits = L + 1), SBD (bits = l)
MASK_SHORT = "short"      # N - r, r uniform in [1, 2^(bits+sigma)] — every
                          #   value C2 may decrypt and C1 strips with a power:
                          #   SMIN's selection, extraction
MASK_SLOT = "slot"        # s in [2^(bits-1), 2^(bits-1) + 2^(bits+sigma)) —
                          #   SSED's packed slots: s - d in (0, 2^(bits+1+sigma))
                          #   for a bits-bit signed d, no borrow between slots


def mask_range(kind: str, n: int, bits: int | None = None) -> tuple[int, int]:
    """The half-open range ``[lower, upper)`` a mask of ``kind`` is drawn from.

    The one masking rule (:meth:`TwoPartyProtocol.sample_masks`, SMIN's
    in-place selection pair); every kind but :data:`MASK_ZN` needs
    ``bits``, the masked values' width.  A :data:`MASK_SHORT` mask ``m = N -
    r`` hides a ``bits``-bit value ``v``: ``v + m = v - r mod N`` with ``r``
    uniform in ``[1, 2**(bits + sigma)]`` is within ``2**-sigma`` of a
    distribution that does not depend on ``v``, and whoever strips ``m``
    with a power does so with the short exponent ``r`` (``N - m``, or ``-m
    mod N``).  A :data:`MASK_SLOT` mask ``s`` hides a ``bits``-bit signed
    value ``d`` (``|d| < 2**(bits-1)``) the same way as ``s - d``, which is
    positive and below ``2**(bits + 1 + sigma)``: a packed slot never
    borrows from its neighbour.  Both spans are capped at ``N``, where the
    kind is uniform mod ``N``, so toy keys work.
    """
    if kind == MASK_ZN:
        return 0, n
    if kind not in (MASK_SBD, MASK_SHORT, MASK_SLOT):
        raise ConfigurationError(f"unknown mask kind {kind!r}")
    if bits is None or bits < 1:
        raise ConfigurationError(f"{kind} masks require a positive bits")
    if kind == MASK_SBD:
        return 0, n - (1 << bits)
    spread = min(1 << (bits + STATISTICAL_SECURITY), n)
    if kind == MASK_SHORT:
        return n - spread, n
    lower = 1 << (bits - 1)
    return lower, lower + spread


#: A batched round of this many items or more travels as two half-batches
#: in flight (:meth:`TwoPartyProtocol.run_pipelined`); a smaller one as one
#: chunk.  Chosen on ``secure_dist_k512`` (K=512, n=8, m=3, l=6; six seeds
#: per value, median ``query_p50_ms`` / ``c1c2_bytes_per_query`` against the
#: unsplit round's 425 ms): 2 -> 369 ms, +1.5% bytes; 4 -> 375 ms, +1.3%;
#: 8 -> 390 ms, +1.1% (worse than 4 on 5 of 6 seeds).  2 and 4 are inside
#: each other's quartiles, and a half of one item leaves nothing to overlap
#: while still paying a frame's ~110 B of envelope, so the smaller constant
#: buys bytes only.
PIPELINE_MIN_ITEMS = 4


def pipeline_chunks(items: Sequence[Any]) -> "list[Sequence[Any]]":
    """The chunks :meth:`TwoPartyProtocol.run_pipelined` sends ``items`` in:
    two halves (the first one the larger) from :data:`PIPELINE_MIN_ITEMS`
    items on, else one chunk — none for an empty batch."""
    if not items:
        return []
    if len(items) < PIPELINE_MIN_ITEMS:
        return [items]
    half = (len(items) + 1) // 2
    return [items[:half], items[half:]]


def record_round(protocol: str, operation: str) -> None:
    """Count one protocol round in the process-wide metrics registry."""
    _metrics.get_registry().counter(
        "repro_protocol_rounds_total",
        "Two-party protocol rounds executed, by protocol and entry point.",
        ("protocol", "operation"),
    ).inc(protocol=protocol, operation=operation)


def traced_round(operation: str, sized: bool = False):
    """Decorate a protocol ``run*`` entry point with round telemetry.

    Wraps the call in :meth:`TwoPartyProtocol.round_span`; with
    ``sized=True`` the first positional argument's length is attached to
    the span as ``items`` (batch entry points).
    """
    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, *args: Any, **kwargs: Any) -> Any:
            attributes = {}
            if sized and args and hasattr(args[0], "__len__"):
                attributes["items"] = len(args[0])
            with self.round_span(operation, **attributes):
                return method(self, *args, **kwargs)
        return wrapper
    return decorate


class P2StepDispatcher:
    """Tag-keyed dispatch of the decryptor's (P2/C2's) protocol steps.

    Every interaction with the key holder has one shape: P1 sends a tagged
    message, P2 *receives that tag, computes, and sends a tagged reply*.
    Protocol classes implement each such step as a handler method (which
    performs its own ``receive`` and ``send``) and register it in
    :attr:`P2_STEPS`, keyed by the tag of the message that triggers it.

    Drivers invoke ``self.p2_step(tag)`` right after sending the triggering
    message.  Over the in-memory channel (which hosts both parties) the
    handler runs inline — byte-for-byte the behavior of the old interleaved
    drivers.  Over a :class:`~repro.transport.mux.MuxChannel` the call
    is a no-op: the remote party's daemon dispatches the same handler when
    the frame arrives (see :mod:`repro.transport.daemon`), which is what
    lets the protocol implementations run unchanged across both runtimes.

    Shared by the sub-protocol base (:class:`TwoPartyProtocol`) and the
    query-protocol base (:class:`~repro.core.sknn_base.SkNNProtocol`),
    together with the typed shape checks both parties apply to what the
    other sends; subclasses provide :attr:`_p2_channel`.
    """

    #: short protocol name used in statistics and error messages
    name = "protocol"

    #: incoming-message tag -> name of the P2 handler method consuming it
    P2_STEPS: "dict[str, str]" = {}

    @property
    def _p2_channel(self):
        """The channel whose locality decides where P2 steps execute."""
        raise NotImplementedError

    def p2_step(self, tag: str) -> Any:
        """Run the P2 handler for ``tag`` when P2 lives in this process.

        Returns the handler's return value locally, ``None`` when the
        decryptor is remote (its daemon runs the handler on frame arrival).
        """
        if getattr(self._p2_channel, "runs_both_parties", True):
            return self.dispatch_p2(tag)
        return None

    def dispatch_p2(self, tag: str) -> Any:
        """Execute the P2 handler registered for ``tag`` unconditionally.

        The handler body is C2's work, so when a cost ledger is armed the
        step runs under a ``party="C2"`` scope — this is what gives the
        serial runtime (both parties in-process) its C2-attributed phases.
        """
        method_name = self.P2_STEPS.get(tag)
        if method_name is None:
            raise ProtocolError(
                f"{self.name}: no P2 step registered for tag {tag!r}")
        with _profiling.cost_scope(tag.split(".", 1)[0], party="C2"):
            return getattr(self, method_name)()

    def collect_p2_handlers(self) -> "dict[str, Any]":
        """All P2 handlers of this protocol and its sub-protocols, by tag.

        A party daemon builds its dispatch registry from this: the union of
        ``tag -> bound handler`` over the protocol object graph.  Duplicate
        tags across instances are fine — the handlers are stateless between
        steps, so any instance's binding serves.
        """
        handlers: dict[str, Any] = {
            tag: getattr(self, method_name)
            for tag, method_name in self.P2_STEPS.items()
        }
        for attribute in vars(self).values():
            if isinstance(attribute, P2StepDispatcher):
                handlers.update(attribute.collect_p2_handlers())
        return handlers

    # -- typed checks of what arrives from the other party --------------------
    def require(self, condition: bool, message: str) -> None:
        """Raise :class:`ProtocolError` when a protocol precondition fails."""
        if not condition:
            raise ProtocolError(f"{self.name}: {message}")

    def require_cipher_list(self, ciphers: Any, count: int, what: str) -> None:
        """A check of a reply from the peer: a list of ``count`` ciphertexts.

        Each chunk of a pipelined round checks *its own* reply before
        stripping it, so a short or mistyped reply fails typed
        (``"<name>: malformed <what>"``) instead of mis-aligning silently
        into the chunk behind it.
        """
        self.require(
            isinstance(ciphers, list) and len(ciphers) == count
            and all(isinstance(cipher, Ciphertext) for cipher in ciphers),
            f"malformed {what}")

    def require_cipher_rows(self, rows: Any, what: str,
                            rows_expected: int | None = None) -> int:
        """Shape check of a batch that arrived from outside this process.

        ``rows`` must be a non-empty list (of ``rows_expected`` entries when
        given) of equally long, non-empty lists of ciphertexts; a P2 step
        calls this before it decrypts anything, so a hostile or
        version-skewed frame fails typed (``"<name>: malformed <what>"``)
        instead of with a stray ``ValueError``.  Returns the row length.
        """
        width = (len(rows[0]) if isinstance(rows, list) and rows
                 and isinstance(rows[0], list) else 0)
        self.require(
            width > 0 and rows_expected in (None, len(rows))
            and all(isinstance(row, list) and len(row) == width
                    and all(isinstance(cipher, Ciphertext) for cipher in row)
                    for row in rows),
            f"malformed {what}")
        return width

    def require_packs(self, frame: Any, pk: PaillierPublicKey, what: str,
                      header_ok: Callable[[Any, int], bool]
                      ) -> "tuple[Any, int, int, list[Ciphertext]]":
        """Shape check of a packed frame ``[header, w, count, packs]``.

        A P2 step calls this before it decrypts anything: ``w``-bit slots
        that fit ``pk``, an int ``count >= 1`` in exactly ``ceil(count /
        slots)`` packs (bools are no ints here), each a ciphertext under
        ``pk``, and the caller's ``header_ok(header, count)``; else it fails
        typed (``"<name>: malformed <what>"``).  Returns the frame's fields.
        """
        header, width, count, packs = (
            frame if isinstance(frame, list) and len(frame) == 4
            else (None, None, None, None))
        per_pack = slots(pk.key_size, width) if type(width) is int else 0
        self.require(
            per_pack >= 1 and type(count) is int and count >= 1
            and isinstance(packs, list)
            and len(packs) == -(-count // per_pack)
            and all(isinstance(pack, Ciphertext) and pack.public_key == pk
                    for pack in packs)
            and header_ok(header, count),
            f"malformed {what}")
        return header, width, count, packs


class TwoPartyProtocol(P2StepDispatcher):
    """Base class for all of the paper's two-party sub-protocols.

    P2 steps are registered and dispatched through the inherited
    :class:`P2StepDispatcher` machinery.
    """

    #: short protocol name used in statistics and logging ("SM", "SSED", ...)
    name = "two-party-protocol"

    def __init__(self, setting: TwoPartySetting) -> None:
        self.setting = setting

    @property
    def _p2_channel(self):
        return self.setting.channel

    # -- party / key accessors ------------------------------------------------
    @property
    def p1(self) -> EvaluatorParty:
        """The evaluator party (cloud C1)."""
        return self.setting.evaluator

    @property
    def p2(self) -> DecryptorParty:
        """The decryptor party (cloud C2) holding the secret key."""
        return self.setting.decryptor

    @property
    def pk(self) -> PaillierPublicKey:
        """The shared Paillier public key."""
        return self.setting.public_key

    # -- P1's additive masks ---------------------------------------------------
    def take_masks(self, count: int, kind: str = MASK_ZN,
                   bits: int | None = None
                   ) -> "list[tuple[int, Ciphertext]]":
        """``count`` P1 additive masks ``(r, E(r))``, drawn as one batch.

        :meth:`sample_masks` draws them and P1's ``encrypt_batch`` encrypts
        them in one call: one encryption per mask, from P1's engine while
        it has factors (resolved per call, so one attached after protocol
        construction still takes effect), then the key's own kernel.
        """
        masks = self.sample_masks(count, kind, bits)
        return list(zip(masks, self.p1.encrypt_batch(masks)))

    def sample_masks(self, count: int, kind: str = MASK_ZN,
                     bits: int | None = None) -> "list[int]":
        """``count`` P1 masks of ``kind`` (:data:`MASK_ZN`, :data:`MASK_SBD`,
        :data:`MASK_SHORT` or :data:`MASK_SLOT`), drawn with P1's rng and not
        encrypted: a packed round encrypts them packed, one per pack."""
        lower, upper = mask_range(kind, self.pk.n, bits)
        return [self.p1.rng.randrange(lower, upper) for _ in range(count)]

    # -- ciphertext helpers -----------------------------------------------------
    def add_plain(self, ciphertext: Ciphertext, value: int) -> Ciphertext:
        """Homomorphic addition of a plaintext constant (mod N)."""
        return ciphertext + (value % self.pk.n)

    # -- vectorized ciphertext helpers ----------------------------------------
    def neg_batch(self, ciphertexts: "list[Ciphertext]") -> "list[Ciphertext]":
        """Vectorized homomorphic negation ``E(-a)``, raw-equal to ``-c``.

        A modular inverse counted as one exponentiation per element (see
        :meth:`~repro.crypto.paillier.PaillierPublicKey.raw_scalar_mul`).
        """
        return self.pk.scalar_mul_batch(ciphertexts, -1)

    # -- batched rounds ----------------------------------------------------------
    def run_pipelined(self, items: Sequence[Any], tag: str, reply_tag: str,
                      prepare: Callable[[Sequence[Any]], "tuple[Any, Any]"],
                      finish: Callable[[Sequence[Any], Any, Any], "list[Any]"]
                      ) -> "list[Any]":
        """Run one batched round with two half-batches in flight.

        ``prepare(chunk)`` is P1's step before the wire — it returns the
        payload to send under ``tag`` and whatever state (masks,
        permutations) the chunk's ``finish(chunk, state, reply)`` needs to
        turn C2's ``reply_tag`` answer into the chunk's results; the
        chunks' results are concatenated in item order (an empty batch
        sends nothing; :func:`pipeline_chunks` is the split).  Both chunks are
        prepared and sent before the first reply is read, so over sockets
        C2 decrypts the first half while P1 still masks the second, and P1
        strips the first while C2 decrypts the second.  The split is by
        index and depends on nothing but the batch length
        (:data:`PIPELINE_MIN_ITEMS`): C2 runs the same handler on the same
        masked values, in two frames of the same tag instead of one.

        Over the in-memory channel ``p2_step`` answers each chunk inline
        right after its send and the replies queue in order; over a mux
        context C2's worker answers frames in arrival order while P1's
        reader thread keeps draining the socket, so a reply never waits on
        P1's second send.  While a reply has not arrived P1 computes the
        factors of its next encryptions (:meth:`~repro.network.party.
        Party.receive`).
        """
        in_flight = []
        for chunk in pipeline_chunks(items):
            payload, state = prepare(chunk)
            self.p1.send(payload, tag=tag)
            self.p2_step(tag)
            in_flight.append((chunk, state))
        results: list[Any] = []
        for chunk, state in in_flight:
            results.extend(
                finish(chunk, state, self.p1.receive(expected_tag=reply_tag)))
        return results

    # -- instrumentation --------------------------------------------------------
    def round_span(self, operation: str, **attributes: Any):
        """Telemetry for one protocol round (a ``run``/``run_batch`` entry).

        Always increments ``repro_protocol_rounds_total{protocol,operation}``
        and returns a trace span named ``<name>.<operation>`` — a shared
        no-op object when no query trace is active, so instrumenting hot
        paths unconditionally is free.  When a cost ledger is armed the
        span is paired with a ``cost_scope(self.name)``, attributing the
        round's counter deltas and wall time to this sub-protocol.
        """
        record_round(self.name, operation)
        span = _tracing.span(f"{self.name}.{operation}", **attributes)
        return _profiling.wrap_span(span, self.name)

    def run(self, *args: Any, **kwargs: Any) -> Any:
        """Execute the protocol; implemented by subclasses."""
        raise NotImplementedError
