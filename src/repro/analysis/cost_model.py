"""Analytic operation-count model — Section 4.4 of the paper, made executable.

The paper expresses protocol complexity as counts of Paillier *encryptions*,
*decryptions* and *exponentiations*.  This module turns those asymptotic
statements into exact per-protocol formulas derived from this repository's
implementations, so that

* tests can check the implementation against the model (the counters recorded
  by the crypto layer must match the formulas), and
* the calibrated runtime predictor (:mod:`repro.analysis.calibration`) can
  project paper-scale running times (n = 2000..10000, K = 512/1024) that a
  pure-Python single run could not measure in reasonable time.

All formulas count the operations of both clouds together, matching the way
the paper reports a single per-query time.

Randomized branches (e.g. SBD flips an extra encryption only when its mask is
odd) are counted at their expected value; the model therefore predicts the
*expected* cost, and comparisons against measured counters use a small
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "OperationCounts",
    "OfflineOnlineCounts",
    "sm_counts",
    "ssed_counts",
    "ssed_scan_counts",
    "ssed_scan_split_counts",
    "sbd_counts",
    "smin_counts",
    "sminn_counts",
    "sbor_counts",
    "sknn_basic_counts",
    "sknn_basic_split_counts",
    "sknn_secure_counts",
    "sknn_secure_breakdown",
]


@dataclass(frozen=True)
class OperationCounts:
    """Expected numbers of primitive Paillier operations for one protocol run."""

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
class OfflineOnlineCounts:
    """Operation counts split by when a precomputing deployment pays them.

    ``offline`` holds the work a :class:`~repro.crypto.precompute.
    PrecomputeEngine` moves off the query critical path — each offline
    *encryption* is one ``r^N mod N^2`` obfuscator exponentiation performed
    during a pool refill.  ``online`` holds the residual query-time work:
    decryptions and the exponentiations whose base is query-dependent (and
    therefore cannot be precomputed).  Hot-path modular multiplications are
    not counted, matching the paper's Section 4.4 accounting.
    """

    offline: OperationCounts
    online: OperationCounts

    @property
    def total(self) -> float:
        """Total primitive operations across both phases."""
        return self.offline.total + self.online.total

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Plain-dictionary view used by the reporting helpers."""
        return {"offline": self.offline.as_dict(),
                "online": self.online.as_dict()}

    @classmethod
    def from_measurements(cls, run_stats,
                          *engine_stats: dict) -> "OfflineOnlineCounts":
        """The split a deployment *actually measured*, from live telemetry.

        Args:
            run_stats: anything with the ``total_encryptions`` /
                ``total_decryptions`` / ``total_exponentiations`` surface of
                :class:`~repro.network.stats.ProtocolRunStats`.
            engine_stats: one :meth:`~repro.crypto.precompute.
                PrecomputeEngine.stats` snapshot per attached engine
                (deltas over the measured window).

        The run's counters attribute a *pooled* encryption to the consumer
        (one counter increment, but only a modular multiplication online);
        subtracting the pool hits recovers the true online powmod count,
        while the engines' refill work is the offline price.  The result is
        directly comparable with the analytic ``*_split_counts`` formulas.
        """
        offline_encryptions = sum(
            float(stats.get("offline_encryptions", 0))
            for stats in engine_stats)
        pooled_hits = sum(
            float(stats.get("obfuscator_hits", 0)) for stats in engine_stats)
        return cls(
            offline=OperationCounts(encryptions=offline_encryptions),
            online=OperationCounts(
                encryptions=max(
                    float(run_stats.total_encryptions) - pooled_hits, 0.0),
                decryptions=float(run_stats.total_decryptions),
                exponentiations=float(run_stats.total_exponentiations),
            ),
        )


# ---------------------------------------------------------------------------
# Sub-protocol formulas (Section 3)
# ---------------------------------------------------------------------------

def sm_counts() -> OperationCounts:
    """Secure Multiplication: 3 encryptions, 2 decryptions, 2 exponentiations."""
    return OperationCounts(encryptions=3, decryptions=2, exponentiations=2)


def ssed_counts(dimensions: int) -> OperationCounts:
    """The paper's textbook SSED (Algorithm 2) over ``m``-dimensional vectors.

    One homomorphic subtraction (an exponentiation by ``N - 1``) plus one SM
    per attribute.  This is the formula the paper-scale projections use; the
    repository's implementation runs the cheaper fused round modeled by
    :func:`ssed_scan_counts`.
    """
    _require_positive(dimensions, "dimensions")
    per_attribute = sm_counts() + OperationCounts(exponentiations=1)
    return per_attribute * dimensions


def ssed_scan_counts(n_records: int, dimensions: int) -> OperationCounts:
    """The implemented SSED distance scan: one query against ``n`` records.

    The fused round of :meth:`~repro.protocols.ssed.
    SecureSquaredEuclideanDistance.run_many`: per (record, attribute) one
    mask encryption by P1, one decryption by P2 and one unmasking
    exponentiation; per record one re-encryption of the square sum by P2; and
    the shared query negated once per attribute — ``n*m + n`` encryptions,
    ``n*m`` decryptions and ``n*m + m`` exponentiations.  The counts are the
    same with and without a precomputation engine; pools only move the
    encryptions offline (:func:`ssed_scan_split_counts`).
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    pairs = n_records * dimensions
    return OperationCounts(encryptions=pairs + n_records,
                           decryptions=pairs,
                           exponentiations=pairs + dimensions)


def ssed_scan_split_counts(n_records: int,
                           dimensions: int) -> OfflineOnlineCounts:
    """Offline/online split of the SSED distance scan under warm pools.

    All ``n*m + n`` encryptions (P1's masks, P2's square-sum
    re-encryptions) are obfuscator exponentiations payable during pool
    refills; the decryptions and the unmasking/negation exponentiations
    remain query-time work.
    """
    counts = ssed_scan_counts(n_records, dimensions)
    return OfflineOnlineCounts(
        offline=OperationCounts(encryptions=counts.encryptions),
        online=OperationCounts(decryptions=counts.decryptions,
                               exponentiations=counts.exponentiations),
    )


def sbd_counts(bit_length: int) -> OperationCounts:
    """Secure Bit Decomposition of an ``l``-bit value.

    Per extracted bit: P1 encrypts its mask, P2 decrypts and encrypts the
    parity, P1 flips the parity for odd masks (expected 0.5 extra encryptions
    and exponentiations) and halves the value (2 exponentiations).
    """
    _require_positive(bit_length, "bit_length")
    per_bit = OperationCounts(encryptions=2.5, decryptions=1, exponentiations=2.5)
    return per_bit * bit_length


def smin_counts(bit_length: int) -> OperationCounts:
    """Secure Minimum of two ``l``-bit values (Algorithm 3), ``8l + 2``.

    Per bit: P1 encrypts the ``Gamma`` mask and counts three
    exponentiations for the ``d``/``Gamma``/marker/``L`` bookkeeping (the
    negation of ``max_i``, the marker's cube and the power of the one
    ``L`` entry); P2 decrypts the ``L`` entry, raises ``Gamma'_i`` to
    ``alpha`` and encrypts the fresh ``E(0)`` that re-randomizes ``M'_i``;
    P1 strips the ``Gamma`` mask with one more exponentiation.  Constant
    terms: the marker's ``Z = E(0)`` and P2's encryption of alpha.

    Two of the five counted exponentiations per bit are cheap in the
    implementation and counted like the operations they stand for: the
    negation is a modular inverse shared by the chunk, and the cube is two
    multiplications.  The printed algorithm's secure multiplication per bit
    (``W_i``, ``G_i``) is gone, and with it SM's 3 encryptions, 2
    decryptions and 2 exponentiations; so is a second ``L`` entry per bit.
    """
    _require_positive(bit_length, "bit_length")
    per_bit = (
        OperationCounts(encryptions=1, exponentiations=3)     # rhat; d, P, L
        + OperationCounts(encryptions=1, decryptions=1,
                          exponentiations=1)                  # P2: L', M'
        + OperationCounts(exponentiations=1)                  # P1: strip Gamma mask
    )
    constant = OperationCounts(encryptions=2)                 # Z and E(alpha)
    return per_bit * bit_length + constant


def sminn_counts(count: int, bit_length: int) -> OperationCounts:
    """Secure Minimum of ``n`` values: ``n - 1`` SMIN invocations."""
    _require_positive(count, "count")
    return smin_counts(bit_length) * max(count - 1, 0)


def sbor_counts() -> OperationCounts:
    """Secure Bit-OR: one SM plus one homomorphic subtraction."""
    return sm_counts() + OperationCounts(exponentiations=1)


# ---------------------------------------------------------------------------
# Query-protocol formulas (Section 4)
# ---------------------------------------------------------------------------

def sknn_basic_counts(n_records: int, dimensions: int, k: int,
                      batched: bool = False) -> OperationCounts:
    """SkNN_b (Algorithm 5): ``O(n * m + k)`` operations.

    The distance phase dominates: one SSED per record.  C2 additionally
    decrypts the ``n`` distances, and the delivery phase costs one encryption
    and one decryption per returned attribute.

    Args:
        n_records: table size ``n``.
        dimensions: attribute count ``m``.
        k: neighbors returned.
        batched: ``False`` (default) models the paper's textbook protocol
            (used by the paper-scale projections); ``True`` models this
            repository's implementation, whose distance scan is the fused
            SSED round (:func:`ssed_scan_counts`) — with or without warm
            pools; which operations pools move offline is
            :func:`sknn_basic_split_counts`.
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    _require_positive(k, "k")
    if batched:
        distance_phase = ssed_scan_counts(n_records, dimensions)
    else:
        distance_phase = ssed_counts(dimensions) * n_records
    selection_phase = OperationCounts(decryptions=n_records)
    delivery_phase = OperationCounts(encryptions=k * dimensions,
                                     decryptions=k * dimensions)
    return distance_phase + selection_phase + delivery_phase


def sknn_basic_split_counts(n_records: int, dimensions: int,
                            k: int) -> OfflineOnlineCounts:
    """Offline/online split of a warm-pool SkNN_b query.

    Offline (pool refills): every encryption of the query — ``n*m`` scan
    masks, ``n`` square-sum re-encryptions and ``k*m`` delivery masks, one
    obfuscator exponentiation each.  Online: the
    ``n*m`` masked-difference and ``n + k*m`` distance/delivery decryptions,
    plus the ``n*m`` unmasking and ``m`` query-negation exponentiations.
    The sum equals ``sknn_basic_counts(..., batched=True)``.
    """
    counts = sknn_basic_counts(n_records, dimensions, k, batched=True)
    return OfflineOnlineCounts(
        offline=OperationCounts(encryptions=counts.encryptions),
        online=OperationCounts(decryptions=counts.decryptions,
                               exponentiations=counts.exponentiations),
    )


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
        "delivery": OperationCounts(encryptions=k * dimensions,
                                    decryptions=k * dimensions),
    }


def sknn_secure_breakdown(n_records: int, dimensions: int, k: int,
                          bit_length: int,
                          textbook: bool = False) -> dict[str, OperationCounts]:
    """Per-phase operation counts of SkNN_m (Algorithm 6).

    Returns a dictionary with one entry per phase so that the SMIN_n share of
    the total (the paper reports 69.7%-75%) can be reproduced, plus the total
    under the key ``"total"``.

    Args:
        n_records, dimensions, k, bit_length: the query's shape.
        textbook: ``False`` (default) models this repository's
            implementation; ``True`` models the printed protocol — SSED per
            record, the printed SMIN (one SM per bit), extraction by ``n*m``
            SMs and elimination by ``n*l`` SBORs per iteration after the
            first — the counterpart of ``sknn_basic_counts(batched=False)``,
            against which Figure 2(f) compares it.
    """
    _require_positive(n_records, "n_records")
    _require_positive(dimensions, "dimensions")
    _require_positive(k, "k")
    _require_positive(bit_length, "bit_length")
    if textbook:
        return _with_total(_textbook_secure_phases(
            n_records, dimensions, k, bit_length))

    later = max(k - 1, 0)
    distance_phase = ssed_scan_counts(n_records, dimensions)
    sbd_phase = sbd_counts(bit_length) * n_records
    # Iteration 1 selects over the l distance bits; every later one over
    # l + 1, the elimination flag prepended.
    sminn_phase = (sminn_counts(n_records, bit_length)
                   + sminn_counts(n_records, bit_length + 1) * later)

    # Per iteration: recompose E(d_min) (l exponentiations, then l + 1),
    # negate and randomize the n differences (2 exponentiations each), C2
    # decrypts n values and encrypts the n indicator bits; in iterations
    # 2..k each E(d_i) gains its flag scaled by 2**l (n exponentiations).
    localisation_per_iteration = OperationCounts(
        encryptions=n_records,
        decryptions=n_records,
        exponentiations=2 * n_records,
    )
    localisation_phase = localisation_per_iteration * k + OperationCounts(
        exponentiations=bit_length + (bit_length + 1 + n_records) * later)

    # Per iteration: C1 masks all n * m attributes and strips the forwarded
    # row with n * m exponentiations; C2 re-randomizes its m ciphertexts.
    extraction_phase = OperationCounts(
        encryptions=n_records * dimensions + dimensions,
        exponentiations=n_records * dimensions) * k
    # Elimination adds each indicator into its record's flag: n homomorphic
    # additions per iteration, no counted operation and no round.
    elimination_phase = OperationCounts()
    delivery_phase = OperationCounts(encryptions=k * dimensions,
                                     decryptions=k * dimensions)

    return _with_total({
        "ssed": distance_phase,
        "sbd": sbd_phase,
        "sminn": sminn_phase,
        "localisation": localisation_phase,
        "extraction": extraction_phase,
        "elimination": elimination_phase,
        "delivery": delivery_phase,
    })


def _with_total(phases: dict[str, OperationCounts]
                ) -> dict[str, OperationCounts]:
    """``phases`` plus their sum under ``"total"``."""
    total = OperationCounts()
    for counts in phases.values():
        total = total + counts
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
