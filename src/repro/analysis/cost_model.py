"""Analytic operation-count model — Section 4.4 of the paper, made executable.

The paper prices every protocol in Paillier *encryptions*, *decryptions* and
*exponentiations*.  This module is the one place each protocol's cost is
stated: one entry per protocol and call shape (:class:`ProtocolCost`) giving
what C1 pays, what C2 pays, how many peer messages the call sends and how
many ciphertexts cross in each direction.  The entries are exact — SBD's one
random term, an ``E(1)`` and a negation per odd mask, is an input
(``odd_masks``, its expectation by default) — and they are what

* the agreement harness holds the implementation to, counter for counter
  and frame for frame, on both bigint backends, with and without pools;
* each party's warm pool is sized from (:func:`pool_targets`): a pooled
  factor is one encryption, so the offline work is the entry's
  encryptions; and
* the calibrated runtime predictor (:mod:`repro.analysis.calibration`)
  projects paper-scale running times from — the ``*_counts`` totals, both
  clouds together, the way the paper reports one per-query time.

Peer messages follow :data:`repro.protocols.base.PIPELINE_MIN_ITEMS`, read
when an entry is built: a batched round is two frames, four from that many
items on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.protocols import base as _protocol_base
from repro.protocols.ssed import scan_packs

__all__ = [
    "OperationCounts",
    "ProtocolCost",
    "sm_cost",
    "ssed_scan_cost",
    "sbd_cost",
    "sbor_cost",
    "smin_cost",
    "sminn_cost",
    "sknn_basic_cost",
    "sknn_secure_phases",
    "pool_targets",
    "sm_counts",
    "ssed_counts",
    "sbd_counts",
    "sbor_counts",
    "sknn_basic_counts",
    "sknn_secure_counts",
    "sknn_secure_breakdown",
]


@dataclass(frozen=True)
class OperationCounts:
    """Numbers of primitive Paillier operations for one protocol run."""

    encryptions: float = 0.0
    decryptions: float = 0.0
    exponentiations: float = 0.0

    # -- algebra ------------------------------------------------------------------
    def __add__(self, other: "OperationCounts") -> "OperationCounts":
        return OperationCounts(
            self.encryptions + other.encryptions,
            self.decryptions + other.decryptions,
            self.exponentiations + other.exponentiations,
        )

    def __mul__(self, factor: float) -> "OperationCounts":
        return OperationCounts(
            self.encryptions * factor,
            self.decryptions * factor,
            self.exponentiations * factor,
        )

    __rmul__ = __mul__

    @property
    def total(self) -> float:
        """Total primitive operations (all three kinds weighted equally)."""
        return self.encryptions + self.decryptions + self.exponentiations

    def as_dict(self) -> dict[str, float]:
        """Plain-dictionary view used by the reporting helpers."""
        return {
            "encryptions": self.encryptions,
            "decryptions": self.decryptions,
            "exponentiations": self.exponentiations,
        }


@dataclass(frozen=True)
class ProtocolCost:
    """One protocol call at one shape: who pays what, and what crosses.

    ``c1`` and ``c2`` are the evaluator's and the key holder's counted
    operations (C1 never decrypts), Paillier and DGK together as the
    counters count them; ``c1_dgk`` and ``c2_dgk`` are the DGK share of
    each (SMIN's bitwise part, :mod:`repro.crypto.dgk`).  ``messages`` are
    the peer frames in both directions, ``c1_ciphertexts`` /
    ``c2_ciphertexts`` the Paillier ciphertexts each party sends (DGK
    values travel as ints).  ``+`` runs two calls one after the other,
    ``* t`` runs ``t`` in a row.
    """

    c1: OperationCounts = OperationCounts()
    c2: OperationCounts = OperationCounts()
    messages: int = 0
    c1_ciphertexts: int = 0
    c2_ciphertexts: int = 0
    c1_dgk: OperationCounts = OperationCounts()
    c2_dgk: OperationCounts = OperationCounts()

    def __add__(self, other: "ProtocolCost") -> "ProtocolCost":
        return ProtocolCost(self.c1 + other.c1, self.c2 + other.c2,
                            self.messages + other.messages,
                            self.c1_ciphertexts + other.c1_ciphertexts,
                            self.c2_ciphertexts + other.c2_ciphertexts,
                            self.c1_dgk + other.c1_dgk,
                            self.c2_dgk + other.c2_dgk)

    def __mul__(self, times: int) -> "ProtocolCost":
        return ProtocolCost(self.c1 * times, self.c2 * times,
                            self.messages * times,
                            self.c1_ciphertexts * times,
                            self.c2_ciphertexts * times,
                            self.c1_dgk * times, self.c2_dgk * times)

    @property
    def total(self) -> OperationCounts:
        """Both clouds' operations together."""
        return self.c1 + self.c2


def _batched_round(items: int, c1: OperationCounts, c2: OperationCounts,
                   sent: int, returned: int,
                   c1_dgk: OperationCounts = OperationCounts(),
                   c2_dgk: OperationCounts = OperationCounts()
                   ) -> ProtocolCost:
    """One :meth:`~repro.protocols.base.TwoPartyProtocol.run_pipelined`
    round over ``items`` items, priced per item: ``sent`` ciphertexts out
    and ``returned`` back per item, in two frames below ``PIPELINE_MIN_ITEMS``
    items and four from there on."""
    return ProtocolCost(
        c1 * items, c2 * items,
        4 if items >= _protocol_base.PIPELINE_MIN_ITEMS else 2,
        sent * items, returned * items, c1_dgk * items, c2_dgk * items)


# ---------------------------------------------------------------------------
# Sub-protocol entries (Section 3)
# ---------------------------------------------------------------------------

def sm_cost(pairs: int = 1) -> ProtocolCost:
    """Secure Multiplication (Algorithm 1) of ``pairs`` operand pairs.

    One round.  Per pair C1 encrypts its two masks and strips the cross
    terms with one two-base power (two exponentiations); C2 decrypts both
    masked operands and encrypts their product.
    """
    _require_positive(pairs, "pairs")
    return _batched_round(
        pairs, OperationCounts(encryptions=2, exponentiations=2),
        OperationCounts(encryptions=1, decryptions=2), sent=2, returned=1)


def ssed_scan_cost(n_records: int, dimensions: int,
                   slots: int = 1) -> ProtocolCost:
    """The implemented SSED distance scan: one query against ``n`` records.

    The fused round of :meth:`~repro.protocols.ssed.
    SecureSquaredEuclideanDistance.run_many`, ``slots`` masked differences
    per packed plaintext (1: unpacked).  Per pipelined chunk of ``c``
    records, packed into ``p`` ciphertexts (:func:`~repro.protocols.ssed.
    scan_packs`), C1 encrypts ``p`` packed masks, pays ``c*m - p`` Horner
    shifts and strips with ``c*m`` counted exponentiations, and C2 decrypts
    the ``p`` packs and encrypts ``c`` square sums; ``p`` ciphertexts go out
    and ``c`` come back.  C1 negates the shared query once per attribute.
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    _require_positive(slots, "slots")
    cost = ProtocolCost(c1=OperationCounts(exponentiations=dimensions))
    chunks = _protocol_base.pipeline_chunks(range(n_records))
    for chunk, packs in zip(chunks, scan_packs(n_records, dimensions, slots)):
        differences = len(chunk) * dimensions
        cost = cost + ProtocolCost(
            c1=OperationCounts(encryptions=packs,
                               exponentiations=2 * differences - packs),
            c2=OperationCounts(encryptions=len(chunk), decryptions=packs),
            messages=2, c1_ciphertexts=packs, c2_ciphertexts=len(chunk))
    return cost


def sbd_cost(bit_length: int, values: int = 1,
             odd_masks: float | None = None) -> ProtocolCost:
    """Secure Bit Decomposition of ``values`` ``l``-bit values: ``l`` rounds.

    Per bit and value C1 encrypts its mask and counts two exponentiations
    (subtracting the extracted bit, halving), and C2 decrypts the masked
    value and encrypts its parity.  Per odd mask C1 un-flips the parity with
    one ``E(1)`` and one negation.  ``odd_masks`` of the ``l * values``
    masks are odd — half of them by default, the expectation — so the entry
    is exact for a run whose odd masks were counted.
    """
    _require_positive(bit_length, "bit_length")
    _require_positive(values, "values")
    if odd_masks is None:
        odd_masks = bit_length * values / 2
    bit_round = _batched_round(
        values, OperationCounts(encryptions=1, exponentiations=2),
        OperationCounts(encryptions=1, decryptions=1), sent=1, returned=1)
    return bit_round * bit_length + ProtocolCost(
        c1=OperationCounts(encryptions=odd_masks, exponentiations=odd_masks))


def sbor_cost(pairs: int = 1) -> ProtocolCost:
    """Secure Bit-OR of ``pairs`` bit pairs: one SM round plus one
    homomorphic subtraction per pair."""
    return sm_cost(pairs) + ProtocolCost(
        c1=OperationCounts(exponentiations=pairs))


def smin_cost(bit_length: int, pairs: int = 1) -> ProtocolCost:
    """Secure Minimum of ``pairs`` pairs of ``L``-bit integers: two rounds.

    ``5L + 11`` operations per pair, ``4L + 4`` of them DGK.  Round 1: C1
    negates ``y`` and encrypts the mask of ``E(z)``; C2 decrypts ``z`` and
    DGK-encrypts its ``L + 1`` low bits.  Round 2: C1 DGK-encrypts ``L +
    1`` re-randomizers and encrypts the two selection masks, and raises
    ``L - 1`` bits to ``+-3`` (the marker's weights), the ``L`` entries to
    their ``r'`` and the top bit to ``+-1`` (DGK exponents below ``u``); C2
    zero-tests the ``L`` entries, decrypts the top bit and encrypts ``E(t)``
    and the selected candidate's fresh ``E(0)``.  C1's strip of the
    selection mask is one more power.  Out go ``E(z)``, then the two
    candidates (and the entries and top bit as DGK values); back come the
    candidate and ``E(t)`` (and, before, the bits as DGK values).
    """
    _require_positive(bit_length, "bit_length")
    _require_positive(pairs, "pairs")
    bits = OperationCounts(encryptions=bit_length + 1)
    masked_difference = _batched_round(
        pairs, OperationCounts(encryptions=1, exponentiations=1),
        bits + OperationCounts(decryptions=1),
        sent=1, returned=0, c2_dgk=bits)
    entries = OperationCounts(encryptions=bit_length + 1,
                              exponentiations=2 * bit_length)
    tests = OperationCounts(decryptions=bit_length + 1)
    comparison = _batched_round(
        pairs, entries + OperationCounts(encryptions=2, exponentiations=1),
        tests + OperationCounts(encryptions=2),
        sent=2, returned=2, c1_dgk=entries, c2_dgk=tests)
    return masked_difference + comparison


def sminn_cost(count: int, bit_length: int) -> ProtocolCost:
    """Secure Minimum of ``count`` values (Algorithm 4) over the tournament:
    one batched SMIN call per level, ``count - 1`` pairs in all."""
    _require_positive(count, "count")
    cost = ProtocolCost()
    while count > 1:
        cost = cost + smin_cost(bit_length, count // 2)
        count = (count + 1) // 2
    return cost


def _delivery_cost(k: int, dimensions: int) -> ProtocolCost:
    """Steps 4-6 of Algorithm 5: C1 masks the ``k * m`` result attributes
    and sends them to C2 in one frame; C2 decrypts them."""
    return ProtocolCost(c1=OperationCounts(encryptions=k * dimensions),
                        c2=OperationCounts(decryptions=k * dimensions),
                        messages=1, c1_ciphertexts=k * dimensions)


# ---------------------------------------------------------------------------
# Query-protocol entries (Section 4)
# ---------------------------------------------------------------------------

def sknn_basic_cost(n_records: int, dimensions: int, k: int,
                    ssed_slots: int = 1,
                    distance_slots: int = 1) -> ProtocolCost:
    """SkNN_b (Algorithm 5) as implemented: the scan, C1 packing the ``n``
    distances ``distance_slots`` to a plaintext (``n - p`` Horner shifts for
    ``p`` packs) and sending them, C2 decrypting the ``p`` packs and
    replying with the top-``k`` indices, and the delivery.  The slot counts
    are :func:`~repro.core.sknn_basic.packing_slots`' (1: unpacked)."""
    _require_positive(k, "k")
    _require_positive(distance_slots, "distance_slots")
    packs = -(-n_records // distance_slots)
    selection = ProtocolCost(
        c1=OperationCounts(exponentiations=n_records - packs),
        c2=OperationCounts(decryptions=packs),
        messages=2, c1_ciphertexts=packs)
    return (ssed_scan_cost(n_records, dimensions, ssed_slots) + selection
            + _delivery_cost(k, dimensions))


def sknn_secure_phases(n_records: int, dimensions: int, k: int,
                       bit_length: int,
                       ssed_slots: int = 1) -> dict[str, ProtocolCost]:
    """SkNN_m (Algorithm 6) as implemented, phase by phase, plus ``"total"``.

    Iteration 1 selects over the ``l``-bit distances, every later one over
    ``l + 1`` bits, the elimination flag added at weight ``2**l``.  Each
    iteration's zero search is one round: C1 sends the ``n`` randomized
    differences (localisation) with every record under fresh masks
    (extraction); C2 decrypts the differences, encrypts ``n`` indicator
    bits and forwards the chosen row under ``m`` fresh zeros.  C1 negates
    and randomizes the ``n`` differences, multiplies each by a fresh
    ``E(0)`` (``n`` encryptions), scales each flag by ``2**l`` from
    iteration 2 on, and strips the forwarded row with ``n * m`` powers.
    Elimination is ``n`` homomorphic additions: no counted operation and no
    round.  The scan packs ``ssed_slots`` differences per plaintext
    (:func:`ssed_scan_cost`).
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    _require_positive(k, "k")
    _require_positive(bit_length, "bit_length")
    later = k - 1
    localisation = ProtocolCost(
        c1=OperationCounts(encryptions=n_records * k,
                           exponentiations=2 * n_records * k
                           + n_records * later),
        c2=OperationCounts(encryptions=n_records,
                           decryptions=n_records) * k,
        messages=2 * k, c1_ciphertexts=n_records * k,
        c2_ciphertexts=n_records * k)
    extraction = ProtocolCost(
        c1=OperationCounts(encryptions=n_records * dimensions,
                           exponentiations=n_records * dimensions) * k,
        c2=OperationCounts(encryptions=dimensions) * k,
        c1_ciphertexts=n_records * dimensions * k,
        c2_ciphertexts=dimensions * k)
    return _with_total({
        "ssed": ssed_scan_cost(n_records, dimensions, ssed_slots),
        "sminn": (sminn_cost(n_records, bit_length)
                  + sminn_cost(n_records, bit_length + 1) * later),
        "localisation": localisation,
        "extraction": extraction,
        "elimination": ProtocolCost(),
        "delivery": _delivery_cost(k, dimensions),
    }, ProtocolCost())


def pool_targets(n_records: int, dimensions: int, k: int, queries: int,
                 bit_length: int | None = None,
                 dgk: bool = False,
                 ssed_slots: int = 1,
                 distance_slots: int = 1,
                 worker_chunks: Sequence[int] | None = None
                 ) -> tuple[int, int]:
    """C1's and C2's warm-pool targets covering ``queries`` queries.

    Each party's target is its Paillier encryptions per query — with
    ``dgk``, its DGK encryptions (re-randomizers) instead: SkNN_m's when
    ``bit_length`` is given, else SkNN_b's (which has none of DGK).
    ``ssed_slots`` and ``distance_slots`` are the deployment's packing
    (:func:`~repro.core.sknn_basic.packing_slots`).  ``worker_chunks`` are
    the record counts of the in-process plan's chunk tasks
    (:func:`~repro.core.parallel.scan_tasks`) when its workers scan: they
    encrypt both parties' scan material with C1's slices, each chunk
    packed on its own, so C1 covers every encryption of the query and C2
    none.
    """
    if bit_length:
        cost = sknn_secure_phases(n_records, dimensions, k, bit_length,
                                  ssed_slots)["total"]
    else:
        cost = sknn_basic_cost(n_records, dimensions, k, ssed_slots,
                               distance_slots)
    c1_dgk, c2_dgk = int(cost.c1_dgk.encryptions), int(cost.c2_dgk.encryptions)
    if dgk:
        return c1_dgk * queries, c2_dgk * queries
    c1 = int(cost.c1.encryptions) - c1_dgk
    c2 = int(cost.c2.encryptions) - c2_dgk
    if worker_chunks is not None:
        whole, chunked = (
            sum(int(ssed_scan_cost(size, dimensions,
                                   ssed_slots).total.encryptions)
                for size in sizes)
            for sizes in ([n_records], worker_chunks))
        c1, c2 = c1 + c2 - whole + chunked, 0
    return c1 * queries, c2 * queries


# ---------------------------------------------------------------------------
# Totals — both clouds together, as the projections read them
# ---------------------------------------------------------------------------

def sm_counts() -> OperationCounts:
    """Secure Multiplication: 3 encryptions, 2 decryptions, 2 exponentiations."""
    return sm_cost().total


def ssed_counts(dimensions: int) -> OperationCounts:
    """The paper's textbook SSED (Algorithm 2) over ``m``-dimensional vectors.

    One homomorphic subtraction (an exponentiation by ``N - 1``) plus one SM
    per attribute.  This is the formula the paper-scale projections use; the
    repository's implementation runs the cheaper fused round of
    :func:`ssed_scan_cost`.
    """
    _require_positive(dimensions, "dimensions")
    per_attribute = sm_counts() + OperationCounts(exponentiations=1)
    return per_attribute * dimensions


def sbd_counts(bit_length: int) -> OperationCounts:
    """Secure Bit Decomposition of one ``l``-bit value, half its masks odd."""
    return sbd_cost(bit_length).total


def sbor_counts() -> OperationCounts:
    """Secure Bit-OR: one SM plus one homomorphic subtraction."""
    return sbor_cost().total


def sknn_basic_counts(n_records: int, dimensions: int, k: int,
                      batched: bool = False) -> OperationCounts:
    """SkNN_b (Algorithm 5): ``O(n * m + k)`` operations.

    ``batched=False`` (default) is the paper's textbook protocol, which the
    paper-scale projections use: one SSED per record, C2 decrypting the
    ``n`` distances, and one encryption and one decryption per delivered
    attribute.  ``batched=True`` is this repository's implementation,
    :func:`sknn_basic_cost`, unpacked (one value per plaintext; a
    deployment's packing is :func:`sknn_basic_cost`'s slot arguments).
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    _require_positive(k, "k")
    if batched:
        return sknn_basic_cost(n_records, dimensions, k).total
    return (ssed_counts(dimensions) * n_records
            + _delivery_cost(k, dimensions).total
            + OperationCounts(decryptions=n_records))


def _printed_smin_counts(bit_length: int) -> OperationCounts:
    """The printed Algorithm 3, ``17l + 2`` operations: per bit one SM for
    ``E(u_i v_i)``, the W/Gamma/G/H/L bookkeeping, P2's decryption of its
    one ``L`` entry and an ``M'`` that is not re-randomized."""
    per_bit = (
        sm_counts()
        + OperationCounts(encryptions=1, exponentiations=6)   # W, Gamma, G, H, L
        + OperationCounts(decryptions=1, exponentiations=1)   # P2: decrypt L', M'
        + OperationCounts(exponentiations=1)                  # P1: strip Gamma mask
    )
    return per_bit * bit_length + OperationCounts(encryptions=2)


def _textbook_secure_phases(n_records: int, dimensions: int, k: int,
                            bit_length: int) -> dict[str, OperationCounts]:
    """The printed Algorithm 6's phases (see :func:`sknn_secure_breakdown`)."""
    later = max(k - 1, 0)
    # Per iteration: recompose E(d_min) (l exponentiations), randomize the n
    # differences (2 exponentiations each), C2 decrypts n values and encrypts
    # n indicator bits; iterations 2..k re-expand every E(d_i) from its bits.
    localisation_per_iteration = OperationCounts(
        encryptions=n_records, decryptions=n_records,
        exponentiations=bit_length + 2 * n_records)
    return {
        "ssed": ssed_counts(dimensions) * n_records,
        "sbd": sbd_counts(bit_length) * n_records,
        "sminn": _printed_smin_counts(bit_length) * ((n_records - 1) * k),
        "localisation": localisation_per_iteration * k + OperationCounts(
            exponentiations=n_records * bit_length * later),
        "extraction": sm_counts() * (n_records * dimensions * k),
        "elimination": sbor_counts() * (n_records * bit_length * later),
        "delivery": _delivery_cost(k, dimensions).total,
    }


def sknn_secure_breakdown(n_records: int, dimensions: int, k: int,
                          bit_length: int,
                          textbook: bool = False) -> dict[str, OperationCounts]:
    """Per-phase operation counts of SkNN_m (Algorithm 6), both clouds
    together, plus the total under ``"total"``.

    The SMIN_n share of the total is what the paper reports as 69.7%-75%.

    Args:
        n_records, dimensions, k, bit_length: the query's shape.
        textbook: ``False`` (default) totals this repository's
            implementation, :func:`sknn_secure_phases`; ``True`` models the
            printed protocol — SSED per record, SBD of every distance, the
            printed SMIN (one SM per bit), extraction by ``n*m`` SMs and
            elimination by ``n*l`` SBORs per iteration after the first — the
            counterpart of ``sknn_basic_counts(batched=False)``, against
            which Figure 2(f) compares it.
    """
    # built either way: it checks the shape for the textbook model too
    phases = sknn_secure_phases(n_records, dimensions, k, bit_length)
    if textbook:
        return _with_total(_textbook_secure_phases(
            n_records, dimensions, k, bit_length), OperationCounts())
    return {phase: cost.total for phase, cost in phases.items()}


def _with_total(phases: dict, zero):
    """``phases`` plus their sum (from ``zero``) under ``"total"``."""
    total = zero
    for cost in phases.values():
        total = total + cost
    phases["total"] = total
    return phases


def sknn_secure_counts(n_records: int, dimensions: int, k: int,
                       bit_length: int,
                       textbook: bool = False) -> OperationCounts:
    """Total operation counts of SkNN_m (Algorithm 6); ``textbook`` as in
    :func:`sknn_secure_breakdown`."""
    return sknn_secure_breakdown(n_records, dimensions, k, bit_length,
                                 textbook)["total"]


def _require_positive(value: int, name: str) -> None:
    """Validate a positive integer parameter."""
    if not isinstance(value, int) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
