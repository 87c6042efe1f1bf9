"""repro — Secure k-Nearest Neighbor query over encrypted data (SkNN).

A from-scratch Python reproduction of *"Secure k-Nearest Neighbor Query over
Encrypted Data in Outsourced Environments"* (Elmehdwi, Samanthula & Jiang,
ICDE 2014).  The package contains:

* :mod:`repro.crypto` — Paillier cryptosystem and number theory;
* :mod:`repro.network` — the simulated federated cloud (channels, parties);
* :mod:`repro.protocols` — the secure sub-protocols SM, SSED, SBD, SMIN,
  SMIN_n, SBOR of Section 3;
* :mod:`repro.db` — schemas, tables, encrypted tables, datasets, plaintext kNN;
* :mod:`repro.core` — the SkNN_b and SkNN_m query protocols and the
  end-to-end :class:`SkNNSystem`;
* :mod:`repro.baselines` — plaintext kNN and the ASPE comparator;
* :mod:`repro.analysis` — the analytic cost model and calibrated projections
  used to regenerate the paper's figures;
* :mod:`repro.service` — the multi-client serving layer: sharded encrypted
  storage, batched query scheduling and precomputed ciphertext randomness;
* :mod:`repro.transport` — the distributed runtime: C1 and C2 as separate
  OS processes exchanging length-prefixed TCP frames (party daemons, wire
  codec, local supervisor, remote query clients).

Quickstart::

    from repro import SkNNSystem
    from repro.db import heart_disease_table, heart_disease_example_query

    table = heart_disease_table(include_diagnosis=False)
    system = SkNNSystem.setup(table, key_size=256, mode="secure")
    print(system.query(heart_disease_example_query(), k=2))
"""

from repro.core import (
    DataOwner,
    FederatedCloud,
    ParallelSkNNBasic,
    QueryAnswer,
    QueryClient,
    SkNNBasic,
    SkNNSecure,
    SkNNSystem,
)
from repro.crypto import (
    PrecomputeConfig,
    PrecomputeEngine,
    generate_keypair,
)
from repro.db import Schema, Table
from repro.service import QueryServer, ShardedCloud

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "SkNNSystem",
    "SkNNBasic",
    "SkNNSecure",
    "ParallelSkNNBasic",
    "DataOwner",
    "QueryClient",
    "QueryAnswer",
    "FederatedCloud",
    "QueryServer",
    "ShardedCloud",
    "PrecomputeConfig",
    "PrecomputeEngine",
    "generate_keypair",
    "Schema",
    "Table",
]
