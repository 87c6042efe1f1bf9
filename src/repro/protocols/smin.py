"""Secure Minimum (SMIN) — Algorithm 3's functionality, on encrypted integers.

P1 holds ``E(a)`` and ``E(b)`` with ``0 <= a, b < 2**L``; P2 holds the secret
key.  The protocol outputs ``E(min(a, b))`` to P1 while hiding ``a``, ``b``
*and which of the two is the minimum* from both parties.

The printed Algorithm 3 compares *bit vectors*, so SkNN_m had to
bit-decompose every distance (SBD, ``l`` rounds) before it could select one.
This implementation compares the integers themselves: the two-party DGK
comparison as improved by Veugen ["Improving the DGK comparison protocol",
IEEE WIFS 2012], followed by the masked compare-and-select of Bost, Popa, Tu
and Goldwasser ["Machine learning classification over encrypted data", NDSS
2015].  Algorithm 3's random functionality stays: P1's secret coin ``F``
orders each pair as ``(x, y)``, so the comparison bit P2 learns is uniform.
The values, the candidates and ``E(t)`` are Paillier ciphertexts; the
bitwise part — P2's bits of ``z``, P1's entries and the top bit — runs under
the DGK key pair derived from the Paillier one (:mod:`repro.crypto.dgk`),
whose plaintexts live mod a small prime ``u`` and travel as plain ints,
written ``[m]`` below.  Per pair, in two rounds:

1. P1 sends ``E(z) = E(x) * E(y)^-1 * E(2**L + r)`` with ``r`` uniform in
   ``[0, N - 2**(L+1))``, so ``z`` never wraps.  P2 decrypts ``z`` and
   returns fresh DGK encryptions ``[z_L], ..., [z_0]`` of its low bits (MSB
   first).  Since ``x - y + 2**L`` lies in ``[1, 2**(L+1))``, its bit ``L``
   is ``[x >= y]``, and with ``zhat = z mod 2**L``, ``rhat = r mod 2**L``::

       [x >= y] = z_L xor r_L xor [zhat < rhat]

2. P1 compares ``zhat`` (bit by bit, encrypted) with its own ``rhat`` by
   DGK's additive marker: P1 draws a coin ``s`` in ``{+1, -1}`` and forms,
   for every bit ``i`` (MSB first),

       c_i = s + zhat_i - rhat_i + 3 * sum_{j above i} (zhat_j xor rhat_j)

   (``[zhat_j xor rhat_j]`` is ``[zhat_j]`` or ``[1 - zhat_j]`` as
   ``rhat_j`` says: ``[zhat_j]^(+-3) * g^(3 rhat_j)`` carries the weight).
   ``c_i`` is 0 exactly at the first bit ``t`` where the two differ when
   ``zhat_t - rhat_t = -s``, and of absolute value at most ``3L + 2 < u``
   — never 0 mod ``u`` — everywhere else.  P1 sends, per pair,

   * the ``L`` entries ``[c_i]^(r'_i) * h^(rho_i)``, ``r'_i`` uniform in
     ``[1, u)``, permuted: 0 at ``t`` when ``zhat_t - rhat_t = -s``,
     uniform in ``Z_u*`` elsewhere;
   * ``[z_L xor c]`` with ``c = r_L xor [s = -1]``: ``[z_L]^(+-1)`` times
     ``g^c``, under its own ``h^rho``;
   * ``E(x + rho_x)`` and ``E(y + rho_y)`` under fresh masks: ``rho_y =
     N - s`` with ``s`` uniform in ``[1, 2**(L + sigma)]`` and ``rho_x =
     rho_y + delta`` with ``delta`` uniform in ``[0, 2**(L + 1 +
     sigma))``, two encryptions.

   P2 zero-tests every entry (one half-size power each), sets ``delta' =
   [some entry is 0]``, reads the top bit and sets ``t = (z_L xor c) xor
   delta'``.  For ``x != y`` that is ``[x >= y]`` whatever ``s`` was
   (``s = -1`` tests ``zhat > rhat``, the complement, and ``c`` flips it
   back); on a tie no entry is 0 and ``t = [s = +1]``, either candidate
   being the minimum.  P2 returns the candidate ``t`` selects (``y`` for
   ``t = 1``) times a fresh ``E(0)``, and ``E(t)``.
3. P1 strips the selected mask: ``E(min) = E(v) * E(-rho_x) *
   E(t)^(rho_x - rho_y)``, one power with the short exponent ``delta``.

What each party sees.  P2 sees ``z``, statistically uniform (below);
``z_L xor c``, uniform through ``r_L`` and ``s``; and ``delta'`` and ``t``,
uniform for distinct values through ``s`` and ``F``.  On a tie ``delta' =
0`` — the same tie leak as the bit-level ``alpha``.  P2 decrypts neither
candidate, but could: ``y - s`` and ``(x - y) + delta`` (their
difference) are each within ``2**-sigma`` of a distribution that depends
on neither value, as every mask C1 later strips with a power.  P1 sees only
ciphertexts: Paillier ones and DGK ones (semantically secure under DGK's
subgroup assumption).  P2 also holds the factorizations, so it can read
``c * g^(-m) mod n`` — the ``<h>`` part — of every DGK value it tests; an
entry built only from P2's own bit encryptions would let it test guesses of
``rhat``.  So every ciphertext P2 decrypts or zero-tests carries its own
fresh P1 factor: the mask's encryption in ``E(z)`` and one DGK
re-randomizer ``h^rho`` per entry and on the top bit.

Domain.  The mask on ``E(z)`` hides ``L + 1`` bits statistically: ``2**(L
+ 1 + sigma) <= N`` with ``sigma = 40`` (``L <= 86`` at K=128, ``L <= 470``
at K=512; :meth:`SecureMinimum.domain_fits`; ``sigma`` is
:data:`~repro.protocols.base.STATISTICAL_SECURITY`, the width of every
short mask).  DGK's ``3L + 2 < u`` holds by construction (``u > 3K``).

Per pair P1 pays ``L + 4`` encryptions — the mask (one ``take_masks``
batch per chunk of round 1), ``L + 1`` DGK re-randomizers and the two
selection masks (one batch of each per chunk of round 2; on a daemon their
factors are computed while P1 waits on P2, see
:class:`~repro.crypto.precompute.QueryLookahead`) — and ``2L + 2``
exponentiations: the negation of ``y``, the ``L - 1`` weights ``+-3``, the
``L`` entry powers and the ``+-1`` (all DGK, exponents below ``u``), and
the final strip, of ``L + 1 + sigma`` bits.  P2 pays one decryption, ``L`` zero
tests and one bit decryption (``L + 2`` decryptions), and ``L + 1`` DGK and
two Paillier encryptions.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.dgk import DGKPublicKey
from repro.crypto.paillier import Ciphertext
from repro.protocols.base import (MASK_SBD, MASK_SHORT, STATISTICAL_SECURITY,
                                  TwoPartyProtocol, mask_range, traced_round)
from repro.protocols.encoding import recompose_from_encrypted_bits

__all__ = ["SecureMinimum", "STATISTICAL_SECURITY"]


class SecureMinimum(TwoPartyProtocol):
    """Two-party secure minimum of two encrypted integers."""

    name = "SMIN"

    P2_STEPS = {
        "SMIN.batch_masked_differences": "_p2_bits_of_masked_differences",
        "SMIN.batch_comparisons": "_p2_select_minimums",
    }

    @staticmethod
    def domain_fits(bit_length: int, key_size: int) -> bool:
        """Whether ``L``-bit values can be compared under a ``K``-bit key:
        ``2**(L + 1 + sigma) <= N`` for every ``K``-bit ``N``, i.e. ``L +
        sigma + 2 <= K``.  DGK's ``3L + 2 < u`` then holds by construction
        (``u > 3K``)."""
        return bit_length + STATISTICAL_SECURITY + 2 <= key_size

    @traced_round("run")
    def run(self, enc_u: Ciphertext | Sequence[Ciphertext],
            enc_v: Ciphertext | Sequence[Ciphertext],
            bit_length: int | None = None) -> Ciphertext:
        """Compute ``E(min(u, v))`` — the one-pair case of :meth:`run_batch`.

        Args:
            enc_u, enc_v: ``E(u)`` and ``E(v)``, or their encrypted bit
                vectors (see :meth:`encrypted_integers`).
            bit_length: ``L`` with ``u, v < 2**L``; implied by bit vectors.
        """
        return self.run_batch([(enc_u, enc_v)], bit_length)[0]

    def encrypted_integers(self,
                           operands: Sequence[Ciphertext | Sequence[Ciphertext]],
                           bit_length: int | None = None
                           ) -> tuple[list[Ciphertext], int]:
        """``E(value)`` for every operand, and the operands' bit length ``L``.

        An operand is either ``E(value)`` — then ``bit_length`` must give
        ``L`` — or an encrypted bit vector (MSB first), which is recomposed
        here with ``L`` its length, so bit vectors and integers run the one
        comparison.
        """
        vectors = [operand for operand in operands
                   if not isinstance(operand, Ciphertext)]
        if not vectors:
            self.require(bit_length is not None and bit_length > 0,
                         "integer operands need a positive bit length")
            return list(operands), bit_length
        lengths = {len(bits) for bits in vectors}
        self.require(len(vectors) == len(operands) and len(lengths) == 1,
                     "all bit vectors must share one length")
        length = lengths.pop()
        self.require(length > 0, "bit vectors must be non-empty")
        self.require(bit_length in (None, length),
                     "bit length disagrees with the bit vectors")
        return [recompose_from_encrypted_bits(bits) for bits in operands], length

    def require_rows(self, rows: Any, what: str, dgk_key: DGKPublicKey,
                     dgk_width: int, ciphertexts: int = 0,
                     rows_expected: int | None = None) -> None:
        """Shape check of a batch from the peer: a non-empty list (of
        ``rows_expected`` rows when given) of rows of ``dgk_width`` values
        in ``dgk_key``'s range, then ``ciphertexts`` Paillier ciphertexts —
        before anything in it is tested or used."""
        valid = dgk_key.valid
        self.require(
            isinstance(rows, list) and rows
            and rows_expected in (None, len(rows))
            and all(isinstance(row, list)
                    and len(row) == dgk_width + ciphertexts
                    and all(valid(value) for value in row[:dgk_width])
                    and all(isinstance(cipher, Ciphertext)
                            for cipher in row[dgk_width:])
                    for row in rows),
            f"malformed {what}")

    @traced_round("run_batch", sized=True)
    def run_batch(self, pairs: Sequence[tuple[Ciphertext | Sequence[Ciphertext],
                                              Ciphertext | Sequence[Ciphertext]]],
                  bit_length: int | None = None) -> list[Ciphertext]:
        """Compute ``E(min(u_i, v_i))`` for a whole vector of pairs.

        The protocol's one implementation (:meth:`run` is the one-pair
        batch; per-pair operation counts do not depend on the batch size):
        two rounds, each through
        :meth:`~repro.protocols.base.TwoPartyProtocol.run_pipelined`, so
        four messages per round once the batch has
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` pairs, two below.
        Each pair keeps its own coins, masks and permutation.  SMIN_n's
        tournament levels call this with all pairs of a level.

        Args:
            pairs: ``(u, v)`` operands, all of one bit length ``L``.
            bit_length: ``L``; implied when the operands are bit vectors.

        Returns:
            ``E(min(u_i, v_i))`` per pair, in input order.
        """
        if not pairs:
            return []
        values, bit_length = self.encrypted_integers(
            [operand for pair in pairs for operand in pair], bit_length)
        self.require(self.domain_fits(bit_length, self.pk.key_size),
                     f"{bit_length}-bit values need 2^(L+1+{STATISTICAL_SECURITY})"
                     f" <= N for the mask, K={self.pk.key_size}")
        n = self.pk.n
        top = 1 << bit_length
        spread = min(1 << (bit_length + 1 + STATISTICAL_SECURITY), n)
        dgk = self.p1.dgk_key

        # ---- P1: every pair's coin F orders it as (x, y) ---------------------
        tasks = [(values[2 * index], values[2 * index + 1])
                 if self.p1.rng.getrandbits(1)
                 else (values[2 * index + 1], values[2 * index])
                 for index in range(len(pairs))]

        def mask_differences(chunk):
            # ---- P1, round 1: E(z) = E(x - y + 2^L + r) -----------------------
            masks = self.take_masks(len(chunk), MASK_SBD,
                                    bits=bit_length + 1)
            differences = self.pk.add_batch(
                [x for x, _ in chunk], self.neg_batch([y for _, y in chunk]))
            masked = self.pk.add_batch(differences, [c for _, c in masks])
            return ([bit_length, [self.add_plain(cipher, top)
                                  for cipher in masked]],
                    [r for r, _ in masks])

        def collect_bits(chunk, masks, reply):
            self.require_rows(reply, "difference-bits reply", dgk,
                              bit_length + 1, rows_expected=len(chunk))
            return list(zip(masks, reply))

        def build_comparisons(chunk):
            # ---- P1, round 2: entries and [z_L xor c] ------------------------
            width = bit_length + 1
            zeros = self.p1.dgk_encrypt_batch([0] * (len(chunk) * width))
            # rho_y short, rho_x = rho_y + delta: the strip's rho_x - rho_y
            # is the short delta (L + 1 + sigma bits)
            lower, upper = mask_range(MASK_SHORT, n, bits=bit_length)
            rhos = []
            for _ in chunk:
                rho_y = self.p1.rng.randrange(lower, upper)
                rhos += [(rho_y + self.p1.rng.randrange(spread)) % n, rho_y]
            candidates = self.pk.add_batch(
                [operand for _, _, x, y in chunk for operand in (x, y)],
                self.p1.encrypt_batch(rhos))
            markers, offsets, exponents, flips = [], [], [], []
            permutations = []
            for mask, bits, _, _ in chunk:
                sign = 1 if self.p1.rng.getrandbits(1) else -1
                rhat = [mask >> (bit_length - 1 - position) & 1
                        for position in range(bit_length)]
                # [3 (zhat_j xor rhat_j)] = [zhat_j]^(+-3) g^(3 rhat_j) for
                # every bit above the last, and their sums above each bit
                weights = dgk.add_plain_batch(
                    dgk.scalar_mul_batch(bits[1:bit_length],
                                         [3 - 6 * r for r in rhat[:-1]]),
                    [3 * r for r in rhat[:-1]])
                markers.extend(dgk.add_batch(bits[1:],
                                             dgk.prefix_sums(weights)))
                # c_i = s + zhat_i - rhat_i + 3 sum_{j above i} (...)
                offsets.extend(sign - r for r in rhat)
                exponents.extend(self.p1.rng.randrange(1, dgk.u)
                                 for _ in range(bit_length))
                permutation = list(range(bit_length))
                self.p1.rng.shuffle(permutation)
                permutations.append(permutation)
                flips.append((mask >> bit_length & 1) ^ (sign < 0))
            # every entry and every top bit under a re-randomizer of its own
            entries = dgk.add_batch(
                dgk.scalar_mul_batch(dgk.add_plain_batch(markers, offsets),
                                     exponents),
                [zero for index, zero in enumerate(zeros)
                 if index % width < bit_length])
            # [z_L xor c] = [z_L]^(1 - 2c) g^c
            top_bits = dgk.add_batch(
                dgk.add_plain_batch(
                    dgk.scalar_mul_batch([bits[0] for _, bits, _, _ in chunk],
                                         [1 - 2 * flip for flip in flips]),
                    flips),
                zeros[bit_length::width])
            payload = []
            for index, permutation in enumerate(permutations):
                row = entries[index * bit_length:(index + 1) * bit_length]
                payload.append([row[j] for j in permutation]
                               + [top_bits[index]]
                               + candidates[2 * index:2 * index + 2])
            return payload, list(zip(rhos[::2], rhos[1::2]))

        def strip_selections(chunk, selection_masks, reply):
            # ---- P1, step 3: E(min) = E(v) E(-rho_x) E(t)^(rho_x - rho_y) ----
            self.require(
                self.require_cipher_rows(reply, "selected-minimum reply",
                                         len(chunk)) == 2,
                "malformed selected-minimum reply")
            corrections = self.pk.scalar_mul_batch(
                [enc_t for _, enc_t in reply],
                [(rho_x - rho_y) % n for rho_x, rho_y in selection_masks])
            return [self.add_plain(cipher, -rho_x) for cipher, (rho_x, _)
                    in zip(self.pk.add_batch([v for v, _ in reply],
                                             corrections), selection_masks)]

        # ---- P2 answers each round between the two, once per chunk ----------
        compared = self.run_pipelined(
            tasks, "SMIN.batch_masked_differences",
            "SMIN.batch_difference_bits", mask_differences, collect_bits)
        return self.run_pipelined(
            [pair + task for pair, task in zip(compared, tasks)],
            "SMIN.batch_comparisons", "SMIN.batch_selected_minimums",
            build_comparisons, strip_selections)

    # -- P2 side -------------------------------------------------------------
    def _p2_bits_of_masked_differences(self) -> None:
        """Round 1: decrypt each masked difference ``z`` and return fresh DGK
        encryptions of its ``L + 1`` low bits, MSB first.

        The frame is ``[L, [E(z), ...]]``; ``L`` is checked against the key
        (:meth:`domain_fits`, and ``3L + 2 < u``) before anything is
        decrypted.
        """
        frame = self.p2.receive(expected_tag="SMIN.batch_masked_differences")
        dgk = self.p2.dgk_private_key
        self.require(isinstance(frame, list) and len(frame) == 2
                     and type(frame[0]) is int and frame[0] > 0
                     and self.domain_fits(frame[0], self.pk.key_size)
                     and 3 * frame[0] + 2 < dgk.public_key.u
                     and isinstance(frame[1], list) and frame[1],
                     "malformed masked-difference batch")
        bit_length, masked = frame
        self.require_cipher_list(masked, len(masked),
                                 "masked-difference batch")
        values = self.p2.decrypt_residue_batch(masked)
        bits = self.p2.dgk_encrypt_batch(
            [value >> shift & 1 for value in values
             for shift in range(bit_length, -1, -1)])
        width = bit_length + 1
        self.p2.send([bits[start:start + width]
                      for start in range(0, len(bits), width)],
                     tag="SMIN.batch_difference_bits")

    def _p2_select_minimums(self) -> None:
        """Round 2: decide each pair's ``t`` and return the candidate it
        selects, times a fresh ``E(0)``, with ``E(t)``.

        A row is the ``L`` permuted entries and ``[z_L xor c]`` (DGK values)
        and the two masked candidates; every row of the batch has one width
        and every DGK value is range-checked before anything is tested.  The
        entries are zero-tested, the top bit decrypted; the candidates never
        are.
        """
        rows = self.p2.receive(expected_tag="SMIN.batch_comparisons")
        dgk = self.p2.dgk_private_key
        width = (len(rows[0]) if isinstance(rows, list) and rows
                 and isinstance(rows[0], list) else 0)
        tested = width - 2
        self.require(tested >= 2 and 3 * (tested - 1) + 2 < dgk.public_key.u,
                     "malformed comparison batch")
        self.require_rows(rows, "comparison batch", dgk.public_key, tested,
                          ciphertexts=2)
        zeros = dgk.is_zero_batch(
            [value for row in rows for value in row[:tested - 1]])
        tops = dgk.decrypt_batch([row[tested - 1] for row in rows])
        choices = []
        for index, top in enumerate(tops):
            self.require(top in (0, 1), "malformed comparison batch")
            choices.append(top ^ int(any(
                zeros[index * (tested - 1):(index + 1) * (tested - 1)])))
        fresh = self.p2.encrypt_batch(choices + [0] * len(rows))
        selected = self.pk.add_batch(
            [row[tested + choice] for row, choice in zip(rows, choices)],
            fresh[len(rows):])
        self.p2.send([[cipher, enc_t] for cipher, enc_t
                      in zip(selected, fresh[:len(rows)])],
                     tag="SMIN.batch_selected_minimums")
