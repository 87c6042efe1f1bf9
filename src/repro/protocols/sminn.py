"""Secure Minimum out of n numbers (SMIN_n) — Algorithm 4 of the paper.

P1 holds ``n`` encrypted bit vectors ``[d_1], ..., [d_n]``; P2 holds the
secret key.  The protocol outputs ``[min(d_1, ..., d_n)]`` to P1 without
revealing any ``d_i`` (or which index attains the minimum) to either party.

The paper computes the result with a binary tournament (a balanced execution
tree processed bottom-up, Figure 1): in every round surviving values are
paired and each pair is reduced with one SMIN invocation, so the tree has
``ceil(log2 n)`` levels and ``n - 1`` SMIN calls in total.  An alternative
"sequential chain" topology (fold the list left to right) performs the same
``n - 1`` SMIN calls but cannot be parallelized; it is provided for the
ablation benchmark that motivates the paper's choice.
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round
from repro.protocols.smin import SecureMinimum

__all__ = ["SecureMinimumOfN"]

Topology = Literal["tournament", "chain"]


class SecureMinimumOfN(TwoPartyProtocol):
    """Two-party secure minimum of ``n`` encrypted bit-decomposed values."""

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
    def run(self, encrypted_values: Sequence[Sequence[Ciphertext]]
            ) -> list[Ciphertext]:
        """Compute ``[min(d_1, ..., d_n)]`` from the encrypted bit vectors.

        Args:
            encrypted_values: sequence of ``n`` encrypted bit vectors, each of
                the same length ``l`` (MSB first).

        Returns:
            The encrypted bit vector of the global minimum, known only to P1.
        """
        self.require(len(encrypted_values) > 0, "need at least one value")
        lengths = {len(bits) for bits in encrypted_values}
        self.require(len(lengths) == 1, "all bit vectors must share one length")

        if self.topology == "chain":
            return self._run_chain(encrypted_values)
        return self._run_tournament(encrypted_values)

    # -- topologies ------------------------------------------------------------
    def _run_tournament(self, encrypted_values: Sequence[Sequence[Ciphertext]]
                        ) -> list[Ciphertext]:
        """The paper's bottom-up binary execution tree (Figure 1).

        All pairs of a tree level are independent, so each level executes as
        one batched SMIN round (:meth:`SecureMinimum.run_batch`): the same
        ``n - 1`` SMIN invocations overall, grouped into ``ceil(log2 n)``
        vectorized message exchanges instead of ``n - 1`` sequential ones.
        When a precomputation engine is attached to the setting, every level
        encrypts its ``rhat``/``Z``/``alpha`` material off the owning
        party's pool through the shared SMIN instance.
        """
        survivors: list[list[Ciphertext]] = [list(bits) for bits in encrypted_values]
        while len(survivors) > 1:
            # Pair adjacent survivors; an odd one out advances unchanged.
            pairs = [(survivors[j], survivors[j + 1])
                     for j in range(0, len(survivors) - 1, 2)]
            next_round = self._smin.run_batch(pairs)
            if len(survivors) % 2 == 1:
                next_round.append(survivors[-1])
            survivors = next_round
        return survivors[0]

    def _run_chain(self, encrypted_values: Sequence[Sequence[Ciphertext]]
                   ) -> list[Ciphertext]:
        """Sequential left fold — same work, maximal depth (ablation only)."""
        current = list(encrypted_values[0])
        for bits in encrypted_values[1:]:
            current = self._smin.run(current, list(bits))
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
