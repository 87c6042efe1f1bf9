"""Ablation benchmarks for design choices called out in DESIGN.md.

* **CRT decryption** — Paillier decryption via the Chinese Remainder Theorem
  vs. the textbook formula (the paper's C implementation would use CRT; this
  quantifies how much the choice matters).
* **SMIN_n topology** — the paper's binary tournament (Algorithm 4) vs. a
  sequential chain of SMINs: the same number of SMIN calls, but the tournament
  halves the number of *sequential rounds*, which matters once the two clouds
  are separated by real network latency.
"""

from __future__ import annotations

from random import Random

import pytest

from benchmarks.conftest import MEASURED_KEY_BITS
from repro.crypto.paillier import generate_keypair
from repro.network.party import TwoPartySetting
from repro.protocols.encoding import encrypt_bits
from repro.protocols.sminn import SecureMinimumOfN


@pytest.mark.parametrize("use_crt", [True, False])
def test_ablation_crt_decryption(benchmark, use_crt):
    """CRT-accelerated vs. naive Paillier decryption at 512-bit keys."""
    keypair = generate_keypair(512, Random(31337))
    ciphertext = keypair.public_key.encrypt(123456789)
    benchmark.extra_info.update({"ablation": "crt_decryption", "use_crt": use_crt,
                                 "key_size": 512})
    benchmark(lambda: keypair.private_key.raw_decrypt(ciphertext.value,
                                                      use_crt=use_crt))


@pytest.mark.parametrize("topology", ["tournament", "chain"])
def test_ablation_sminn_topology(benchmark, measured_keypair, topology):
    """Tournament vs. chain SMIN_n over 8 values (same work, different depth)."""
    setting = TwoPartySetting.create(measured_keypair, rng=Random(606))
    values = [13, 4, 55, 9, 22, 4, 61, 30]
    encrypted = [encrypt_bits(setting.public_key, v, 6) for v in values]
    protocol = SecureMinimumOfN(setting, topology=topology)
    benchmark.extra_info.update({
        "ablation": "sminn_topology", "topology": topology, "n": len(values),
        "l": 6, "key_size": MEASURED_KEY_BITS,
        "sequential_rounds": (SecureMinimumOfN.tree_depth(len(values))
                              if topology == "tournament" else len(values) - 1),
    })
    benchmark.pedantic(lambda: protocol.run(encrypted), rounds=1, iterations=1)

