"""Network substrate: channels, parties, traffic statistics, latency models.

The paper's two non-colluding clouds are modeled as two party objects that
exchange all data through a counted in-memory channel, preserving the protocol
transcript while remaining testable inside one process.
"""

from repro.network.channel import DuplexChannel, Message, message_wire_size
from repro.network.latency import (
    FixedLatency,
    LatencyModel,
    ZeroLatency,
)
from repro.network.party import (
    DecryptorParty,
    EvaluatorParty,
    Party,
    TwoPartySetting,
)
from repro.network.stats import ProtocolRunStats, TrafficStats

__all__ = [
    "DuplexChannel",
    "Message",
    "message_wire_size",
    "LatencyModel",
    "ZeroLatency",
    "FixedLatency",
    "Party",
    "EvaluatorParty",
    "DecryptorParty",
    "TwoPartySetting",
    "TrafficStats",
    "ProtocolRunStats",
]
