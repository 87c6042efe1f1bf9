"""Latency and bandwidth models for the simulated federated cloud.

The paper runs both cloud parties on a single machine, so network delay does
not appear in its measurements.  Real deployments of the protocol pay one
round-trip per interactive step, and the number of rounds differs hugely
between SkNN_b and SkNN_m.  To let users explore that dimension, the channel
accepts a :class:`LatencyModel` that converts the recorded traffic into a
simulated network delay, which the benchmark harness can add to (or keep
separate from) the computation time.

The default model is :class:`ZeroLatency`, matching the paper's single-machine
setup.
"""

from __future__ import annotations

from dataclasses import dataclass


class LatencyModel:
    """Interface: convert a message of ``payload_bytes`` into seconds of delay."""

    def delay_for_message(self, payload_bytes: int) -> float:
        """Return the one-way delay in seconds for a message of this size."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroLatency(LatencyModel):
    """No network delay — both clouds co-located (the paper's setting)."""

    def delay_for_message(self, payload_bytes: int) -> float:
        return 0.0


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant per-message delay regardless of size (pure RTT/2 model)."""

    seconds_per_message: float = 0.001

    def delay_for_message(self, payload_bytes: int) -> float:
        return self.seconds_per_message
