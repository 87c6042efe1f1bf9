"""Core SkNN protocols and roles: the paper's primary contribution.

* :class:`DataOwner` (Alice), :class:`QueryClient` (Bob)
* :class:`CloudC1`, :class:`CloudC2`, :class:`FederatedCloud`
* :class:`SkNNBasic` — Algorithm 5 (efficient, leaks distances / access patterns)
* :class:`SkNNSecure` — Algorithm 6 (fully secure)
* :class:`ParallelSkNNBasic` — Section 5.3 parallel variant (the one-shard
  case of the in-process scan plan, :class:`~repro.core.parallel.ShardedCloud`)
* :class:`SkNNSystem` — end-to-end orchestration
"""

from repro.core.cloud import CloudC1, CloudC2, FederatedCloud
from repro.core.parallel import ParallelSkNNBasic
from repro.core.roles import ClientCostReport, DataOwner, QueryClient, ResultShares
from repro.core.sknn_base import SkNNProtocol, SkNNRunReport
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.core.system import QueryAnswer, SkNNSystem

__all__ = [
    "DataOwner",
    "QueryClient",
    "ResultShares",
    "ClientCostReport",
    "CloudC1",
    "CloudC2",
    "FederatedCloud",
    "SkNNProtocol",
    "SkNNRunReport",
    "SkNNBasic",
    "SkNNSecure",
    "ParallelSkNNBasic",
    "QueryAnswer",
    "SkNNSystem",
]
