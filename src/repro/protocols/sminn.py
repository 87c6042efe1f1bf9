"""Secure Minimum out of n numbers (SMIN_n) — Algorithm 4 of the paper.

P1 holds ``n`` encryptions ``E(d_1), ..., E(d_n)`` of ``L``-bit values; P2
holds the secret key.  The protocol outputs ``E(min(d_1, ..., d_n))`` to P1
without revealing any ``d_i`` (or which index attains the minimum) to either
party.

The paper computes the result with a binary tournament (a balanced execution
tree processed bottom-up, Figure 1): in every round surviving values are
paired and each pair is reduced with one SMIN invocation, so the tree has
``ceil(log2 n)`` levels and ``n - 1`` SMIN calls in total.  SMIN compares the
encrypted integers (see :mod:`repro.protocols.smin`), so no value is
bit-decomposed; encrypted bit vectors are still accepted and recomposed
first.  An alternative "sequential chain" topology (fold the list left to
right) performs the same ``n - 1`` SMIN calls but cannot be parallelized; it
is provided for the ablation benchmark that motivates the paper's choice.
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round
from repro.protocols.smin import SecureMinimum

__all__ = ["SecureMinimumOfN"]

Topology = Literal["tournament", "chain"]


class SecureMinimumOfN(TwoPartyProtocol):
    """Two-party secure minimum of ``n`` encrypted integers."""

    name = "SMINn"

    def __init__(self, setting, topology: Topology = "tournament") -> None:
        """Create an SMIN_n instance.

        Args:
            setting: the two-party environment.
            topology: ``"tournament"`` for the paper's binary execution tree
                (Algorithm 4) or ``"chain"`` for a sequential left fold; both
                perform exactly ``n - 1`` SMIN invocations.
        """
        super().__init__(setting)
        if topology not in ("tournament", "chain"):
            raise ValueError(f"unknown SMINn topology: {topology!r}")
        self.topology = topology
        self._smin = SecureMinimum(setting)

    @traced_round("run", sized=True)
    def run(self, encrypted_values: Sequence[Ciphertext | Sequence[Ciphertext]],
            bit_length: int | None = None) -> Ciphertext:
        """Compute ``E(min(d_1, ..., d_n))``.

        Args:
            encrypted_values: ``n`` operands of one bit length ``L``:
                ``E(d_i)``, or encrypted bit vectors (MSB first), see
                :meth:`SecureMinimum.encrypted_integers`.
            bit_length: ``L`` with every ``d_i < 2**L``; implied by bit
                vectors.

        Returns:
            ``E`` of the global minimum, known only to P1.
        """
        self.require(len(encrypted_values) > 0, "need at least one value")
        values, bit_length = self._smin.encrypted_integers(encrypted_values,
                                                           bit_length)
        if self.topology == "chain":
            return self._run_chain(values, bit_length)
        return self._run_tournament(values, bit_length)

    # -- topologies ------------------------------------------------------------
    def _run_tournament(self, values: list[Ciphertext],
                        bit_length: int) -> Ciphertext:
        """The paper's bottom-up binary execution tree (Figure 1).

        All pairs of a tree level are independent, so each level executes as
        one batched SMIN call (:meth:`SecureMinimum.run_batch`): the same
        ``n - 1`` SMIN invocations overall, grouped into ``ceil(log2 n)``
        levels of two vectorized rounds each instead of ``n - 1`` sequential
        calls.  When a precomputation engine is attached to the setting,
        every level draws its masks and zeros off the owning party's pool
        through the shared SMIN instance.
        """
        survivors = list(values)
        while len(survivors) > 1:
            # Pair adjacent survivors; an odd one out advances unchanged.
            pairs = [(survivors[j], survivors[j + 1])
                     for j in range(0, len(survivors) - 1, 2)]
            next_round = self._smin.run_batch(pairs, bit_length)
            if len(survivors) % 2 == 1:
                next_round.append(survivors[-1])
            survivors = next_round
        return survivors[0]

    def _run_chain(self, values: list[Ciphertext],
                   bit_length: int) -> Ciphertext:
        """Sequential left fold — same work, maximal depth (ablation only)."""
        current = values[0]
        for value in values[1:]:
            current = self._smin.run(current, value, bit_length)
        return current

    # -- analytics ---------------------------------------------------------------
    @staticmethod
    def tree_depth(count: int) -> int:
        """Depth of the tournament tree, i.e. ``ceil(log2 n)``."""
        if count <= 1:
            return 0
        depth = 0
        remaining = count
        while remaining > 1:
            remaining = (remaining + 1) // 2
            depth += 1
        return depth
