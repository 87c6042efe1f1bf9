"""Secure Bit-OR (SBOR) protocol.

SBOR (Section 3 of the paper): P1 holds encryptions of two bits ``o_1`` and
``o_2``; with the help of P2 it computes ``Epk(o_1 OR o_2)`` using the
identity ``o_1 OR o_2 = o_1 + o_2 - o_1 AND o_2``, where the AND of two bits
is their product and is computed with one Secure Multiplication.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round
from repro.protocols.sm import SecureMultiplication

__all__ = ["SecureBitOr"]


class SecureBitOr(TwoPartyProtocol):
    """Two-party secure OR of two encrypted bits."""

    name = "SBOR"

    def __init__(self, setting) -> None:
        super().__init__(setting)
        self._sm = SecureMultiplication(setting)

    @traced_round("run")
    def run(self, enc_bit_a: Ciphertext, enc_bit_b: Ciphertext) -> Ciphertext:
        """Compute ``Epk(o_1 OR o_2)`` from ``Epk(o_1)`` and ``Epk(o_2)``.

        The one-pair case of :meth:`run_batch`.  The inputs must encrypt
        bits (0 or 1); the protocol does not — and by design cannot — check
        this, exactly as in the paper.
        """
        return self.run_batch([(enc_bit_a, enc_bit_b)])[0]

    @traced_round("run_batch", sized=True)
    def run_batch(self, pairs: Sequence[tuple[Ciphertext, Ciphertext]]
                  ) -> list[Ciphertext]:
        """OR over many bit pairs (one batched SM round).

        The protocol's one implementation — :meth:`run` is the one-pair
        batch.  (The printed SkNN_m eliminates by OR-ing the indicator into
        all ``n * l`` distance bits; :mod:`repro.core.sknn_secure` uses a
        flag bit instead and does not call SBOR.)
        """
        if not pairs:
            return []
        enc_ands = self._sm.run_batch(pairs)
        # E(o1 + o2) * E(o1*o2)^{N-1}  ==  E(o1 + o2 - o1*o2)
        sums = self.pk.add_batch([a for a, _ in pairs], [b for _, b in pairs])
        return self.pk.add_batch(sums, self.neg_batch(enc_ands))
