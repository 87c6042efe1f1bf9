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

from repro.exceptions import ConfigurationError
from repro.protocols import base as _protocol_base

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
    operations (C1 never decrypts), ``messages`` the peer frames in both
    directions, ``c1_ciphertexts`` / ``c2_ciphertexts`` the ciphertexts each
    party sends.  ``+`` runs two calls one after the other, ``* t`` runs
    ``t`` in a row.
    """

    c1: OperationCounts = OperationCounts()
    c2: OperationCounts = OperationCounts()
    messages: int = 0
    c1_ciphertexts: int = 0
    c2_ciphertexts: int = 0

    def __add__(self, other: "ProtocolCost") -> "ProtocolCost":
        return ProtocolCost(self.c1 + other.c1, self.c2 + other.c2,
                            self.messages + other.messages,
                            self.c1_ciphertexts + other.c1_ciphertexts,
                            self.c2_ciphertexts + other.c2_ciphertexts)

    def __mul__(self, times: int) -> "ProtocolCost":
        return ProtocolCost(self.c1 * times, self.c2 * times,
                            self.messages * times,
                            self.c1_ciphertexts * times,
                            self.c2_ciphertexts * times)

    @property
    def total(self) -> OperationCounts:
        """Both clouds' operations together."""
        return self.c1 + self.c2


def _batched_round(items: int, c1: OperationCounts, c2: OperationCounts,
                   sent: int, returned: int) -> ProtocolCost:
    """One :meth:`~repro.protocols.base.TwoPartyProtocol.run_pipelined`
    round over ``items`` items, priced per item: ``sent`` ciphertexts out
    and ``returned`` back per item, in two frames below ``PIPELINE_MIN_ITEMS``
    items and four from there on."""
    return ProtocolCost(
        c1 * items, c2 * items,
        4 if items >= _protocol_base.PIPELINE_MIN_ITEMS else 2,
        sent * items, returned * items)


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


def ssed_scan_cost(n_records: int, dimensions: int) -> ProtocolCost:
    """The implemented SSED distance scan: one query against ``n`` records.

    The fused round of :meth:`~repro.protocols.ssed.
    SecureSquaredEuclideanDistance.run_many`.  Per record C1 encrypts ``m``
    masks and strips them with ``m`` counted exponentiations, and C2
    decrypts the ``m`` masked differences and encrypts their square sum;
    C1 negates the shared query once per attribute.
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    scan = _batched_round(
        n_records,
        OperationCounts(encryptions=dimensions, exponentiations=dimensions),
        OperationCounts(encryptions=1, decryptions=dimensions),
        sent=dimensions, returned=1)
    return scan + ProtocolCost(c1=OperationCounts(exponentiations=dimensions))


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

    ``5L + 11`` operations per pair.  Round 1: C1 negates ``y`` and
    encrypts the mask of ``E(z)``; C2 decrypts ``z`` and encrypts its
    ``L + 1`` low bits.  Round 2: C1 encrypts ``L + 1`` fresh zeros and the
    two selection masks, and counts ``L - 1`` cubes of the marker (two
    multiplications each), the ``L`` entry powers and the ``+-1`` of the
    top bit; C2 decrypts the ``L`` entries and the top bit and encrypts
    ``E(t)`` and the selected candidate's fresh ``E(0)``.  C1's strip of the
    selection mask is one more power.  Out go ``E(z)``, then the entries,
    the top bit and the two candidates; back come the bits, then the
    candidate and ``E(t)``.
    """
    _require_positive(bit_length, "bit_length")
    _require_positive(pairs, "pairs")
    masked_difference = _batched_round(
        pairs, OperationCounts(encryptions=1, exponentiations=1),
        OperationCounts(encryptions=bit_length + 1, decryptions=1),
        sent=1, returned=bit_length + 1)
    comparison = _batched_round(
        pairs,
        OperationCounts(encryptions=bit_length + 3,
                        exponentiations=2 * bit_length + 1),
        OperationCounts(encryptions=2, decryptions=bit_length + 1),
        sent=bit_length + 3, returned=2)
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

def sknn_basic_cost(n_records: int, dimensions: int, k: int) -> ProtocolCost:
    """SkNN_b (Algorithm 5) as implemented: the scan, C1 sending the ``n``
    distances, C2 decrypting them and replying with the top-``k`` indices,
    and the delivery."""
    _require_positive(k, "k")
    selection = ProtocolCost(c2=OperationCounts(decryptions=n_records),
                             messages=2, c1_ciphertexts=n_records)
    return (ssed_scan_cost(n_records, dimensions) + selection
            + _delivery_cost(k, dimensions))


def sknn_secure_phases(n_records: int, dimensions: int, k: int,
                       bit_length: int) -> dict[str, ProtocolCost]:
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
    round.
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
        "ssed": ssed_scan_cost(n_records, dimensions),
        "sminn": (sminn_cost(n_records, bit_length)
                  + sminn_cost(n_records, bit_length + 1) * later),
        "localisation": localisation,
        "extraction": extraction,
        "elimination": ProtocolCost(),
        "delivery": _delivery_cost(k, dimensions),
    }, ProtocolCost())


def pool_targets(n_records: int, dimensions: int, k: int, queries: int,
                 bit_length: int | None = None,
                 worker_scan: bool = False) -> tuple[int, int]:
    """C1's and C2's warm-pool targets covering ``queries`` queries.

    Each party's target is its encryptions per query: SkNN_m's when
    ``bit_length`` is given, else SkNN_b's.  With ``worker_scan`` (the
    in-process plan's chunk workers) the workers encrypt both parties' scan
    material with C1's slices, so C1 covers every encryption of the query
    and C2 none.
    """
    if bit_length:
        cost = sknn_secure_phases(n_records, dimensions, k,
                                  bit_length)["total"]
    else:
        cost = sknn_basic_cost(n_records, dimensions, k)
    c1, c2 = int(cost.c1.encryptions), int(cost.c2.encryptions)
    if worker_scan:
        c1, c2 = c1 + c2, 0
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
    :func:`sknn_basic_cost`.
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
