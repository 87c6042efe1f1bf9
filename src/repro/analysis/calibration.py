"""Calibrated runtime prediction for paper-scale parameters.

The paper's evaluation runs SkNN_b on up to 10,000 records and SkNN_m for tens
of minutes per query on a C implementation.  A pure-Python re-implementation
cannot rerun every such configuration in a reasonable benchmark budget, so the
benchmark harness combines two sources of numbers:

1. *Measured* runs at reduced scale (small ``n``, small key sizes), which
   validate correctness and the constant factors, and
2. *Projected* runs at the paper's scale, obtained by multiplying the exact
   operation counts of :mod:`repro.analysis.cost_model` by per-operation
   timings measured on this machine at the requested key size — Paillier's
   for most operations, the derived DGK key's (:mod:`repro.crypto.dgk`) for
   the DGK share a :class:`~repro.analysis.cost_model.ProtocolCost` names.

The projection preserves exactly what the paper's figures are about — how the
cost *scales* with ``n``, ``m``, ``k``, ``l`` and ``K`` — because those curves
are determined by the operation counts, while the per-operation constant only
moves the curves up or down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Iterable

from repro.analysis.cost_model import OperationCounts, ProtocolCost
from repro.crypto.paillier import PaillierKeyPair, generate_keypair
from repro.exceptions import ConfigurationError

__all__ = ["PaillierTimings", "Calibrator"]


@dataclass(frozen=True)
class PaillierTimings:
    """Measured per-operation wall-clock costs at one key size (seconds).

    The ``dgk_`` fields time the DGK key derived from the Paillier one, in
    the columns the counters file DGK operations under: a re-randomized
    encryption, a zero test (a decryption) and a power with an exponent
    below ``u`` (an exponentiation).
    """

    key_size: int
    encryption_seconds: float
    decryption_seconds: float
    exponentiation_seconds: float
    dgk_encryption_seconds: float
    dgk_decryption_seconds: float
    dgk_exponentiation_seconds: float

    def predict_seconds(self, cost: OperationCounts | ProtocolCost) -> float:
        """Predicted runtime for a protocol's operations.

        A :class:`ProtocolCost`'s DGK share (``c1_dgk + c2_dgk``) is priced
        at the DGK costs and the rest of its total at Paillier's; plain
        :class:`OperationCounts` are all priced at Paillier's.
        """
        if not isinstance(cost, ProtocolCost):
            return self._paillier_seconds(cost)
        dgk = cost.c1_dgk + cost.c2_dgk
        return (self._paillier_seconds(cost.total + dgk * -1)
                + dgk.encryptions * self.dgk_encryption_seconds
                + dgk.decryptions * self.dgk_decryption_seconds
                + dgk.exponentiations * self.dgk_exponentiation_seconds)

    def _paillier_seconds(self, counts: OperationCounts) -> float:
        return (
            counts.encryptions * self.encryption_seconds
            + counts.decryptions * self.decryption_seconds
            + counts.exponentiations * self.exponentiation_seconds
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dictionary view for reporting."""
        return {
            "key_size": self.key_size,
            "encryption_seconds": self.encryption_seconds,
            "decryption_seconds": self.decryption_seconds,
            "exponentiation_seconds": self.exponentiation_seconds,
            "dgk_encryption_seconds": self.dgk_encryption_seconds,
            "dgk_decryption_seconds": self.dgk_decryption_seconds,
            "dgk_exponentiation_seconds": self.dgk_exponentiation_seconds,
        }


class Calibrator:
    """Measures Paillier and DGK per-operation costs and caches them per key
    size."""

    def __init__(self, samples: int = 20, rng_seed: int = 2014) -> None:
        """Create a calibrator.

        Args:
            samples: number of operations timed per primitive; the median of
                individual timings is robust against scheduler noise.
            rng_seed: seed for the deterministic key generation used during
                calibration (keys do not affect timing materially).
        """
        if samples < 3:
            raise ConfigurationError("samples must be at least 3")
        self.samples = samples
        self.rng_seed = rng_seed
        self._cache: dict[int, PaillierTimings] = {}
        self._keypairs: dict[int, PaillierKeyPair] = {}

    # -- measurement ---------------------------------------------------------------
    def keypair_for(self, key_size: int) -> PaillierKeyPair:
        """A cached key pair of the requested size (reused across calls)."""
        if key_size not in self._keypairs:
            self._keypairs[key_size] = generate_keypair(
                key_size, Random(self.rng_seed + key_size)
            )
        return self._keypairs[key_size]

    def timings_for(self, key_size: int) -> PaillierTimings:
        """Measure (or return cached) per-operation timings at ``key_size`` bits."""
        if key_size in self._cache:
            return self._cache[key_size]

        keypair = self.keypair_for(key_size)
        public_key, private_key = keypair.public_key, keypair.private_key
        rng = Random(self.rng_seed)
        plaintexts = [rng.randrange(1, 2**32) for _ in range(self.samples)]

        encryption, ciphertexts = _timed(public_key.encrypt, plaintexts)
        decryption, _ = _timed(private_key.decrypt, ciphertexts)
        exponents = [rng.randrange(1, public_key.n) for _ in ciphertexts]
        exponentiation, _ = _timed(lambda pair: pair[0] * pair[1],
                                   zip(ciphertexts, exponents))

        dgk = private_key.dgk()
        dgk_public = dgk.public_key
        dgk_public.obfuscators(1, rng)  # builds the fixed-base table once
        dgk_encryption, dgk_ciphertexts = _timed(
            lambda value: dgk_public.encrypt_batch([value], rng)[0],
            plaintexts)
        dgk_zero_test, _ = _timed(lambda c: dgk.is_zero_batch([c]),
                                  dgk_ciphertexts)
        # below 4 the scheme skips the backend call; SMIN's are above
        dgk_exponents = [rng.randrange(4, dgk_public.u)
                         for _ in dgk_ciphertexts]
        dgk_exponentiation, _ = _timed(
            lambda pair: dgk_public.scalar_mul_batch([pair[0]], [pair[1]]),
            zip(dgk_ciphertexts, dgk_exponents))

        timings = PaillierTimings(
            key_size=key_size,
            encryption_seconds=encryption,
            decryption_seconds=decryption,
            exponentiation_seconds=exponentiation,
            dgk_encryption_seconds=dgk_encryption,
            dgk_decryption_seconds=dgk_zero_test,
            dgk_exponentiation_seconds=dgk_exponentiation,
        )
        self._cache[key_size] = timings
        return timings

    # -- prediction ------------------------------------------------------------------
    def predict_seconds(self, cost: OperationCounts | ProtocolCost,
                        key_size: int) -> float:
        """Project the runtime of a protocol at the given key size (see
        :meth:`PaillierTimings.predict_seconds`)."""
        return self.timings_for(key_size).predict_seconds(cost)

    def key_size_slowdown(self, small: int = 512, large: int = 1024) -> float:
        """Measured cost ratio between two key sizes (the paper reports ~7x)."""
        small_timings = self.timings_for(small)
        large_timings = self.timings_for(large)
        small_total = (
            small_timings.encryption_seconds
            + small_timings.decryption_seconds
            + small_timings.exponentiation_seconds
        )
        large_total = (
            large_timings.encryption_seconds
            + large_timings.decryption_seconds
            + large_timings.exponentiation_seconds
        )
        if small_total == 0:
            raise ConfigurationError("calibration produced zero timings")
        return large_total / small_total


def _timed(operation: Callable[[Any], Any],
           inputs: Iterable[Any]) -> tuple[float, list[Any]]:
    """Median wall time of ``operation`` over ``inputs``, one call each,
    and its results in order."""
    times, results = [], []
    for value in inputs:
        started = time.perf_counter()
        results.append(operation(value))
        times.append(time.perf_counter() - started)
    return _median(times), results


def _median(values: list[float]) -> float:
    """Median of a non-empty list of floats."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
