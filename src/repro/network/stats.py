"""Traffic and protocol statistics collected by the network substrate.

The paper's evaluation reports computation time only, but reproducing the
protocols faithfully also requires accounting for *what* is exchanged between
the two clouds: the number of messages, the number of ciphertexts, and the
total payload size.  These statistics also let tests verify the complexity
analysis of Section 4.4 (e.g. SM exchanges exactly three ciphertexts).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


@dataclass
class TrafficStats:
    """Accumulated statistics for one direction of a channel.

    Besides the four aggregate counters, traffic is attributed per message
    *tag* (``SM.batch_masked_operands``, ``transport.query``, ...) so operators
    can see which protocol round dominates the wire.  The aggregate
    :meth:`snapshot` keeps its original four-key shape —
    :meth:`ProtocolRunStats.from_cost_rows` subtracts those dictionaries —
    and the per-tag view is a separate :meth:`per_tag_snapshot`.
    """

    messages: int = 0
    ciphertexts: int = 0
    plaintext_items: int = 0
    bytes_transferred: int = 0
    tag_messages: dict[str, int] = field(default_factory=dict)
    tag_bytes: dict[str, int] = field(default_factory=dict)

    def record(self, ciphertexts: int, plaintext_items: int,
               payload_bytes: int, tag: str = "") -> None:
        """Record one message with the given composition."""
        self.messages += 1
        self.ciphertexts += ciphertexts
        self.plaintext_items += plaintext_items
        self.bytes_transferred += payload_bytes
        self.tag_messages[tag] = self.tag_messages.get(tag, 0) + 1
        self.tag_bytes[tag] = self.tag_bytes.get(tag, 0) + payload_bytes

    def reset(self) -> None:
        """Zero all counters."""
        self.messages = 0
        self.ciphertexts = 0
        self.plaintext_items = 0
        self.bytes_transferred = 0
        self.tag_messages = {}
        self.tag_bytes = {}

    def snapshot(self) -> dict[str, int]:
        """Return the aggregate counters as a plain dictionary."""
        return {
            "messages": self.messages,
            "ciphertexts": self.ciphertexts,
            "plaintext_items": self.plaintext_items,
            "bytes_transferred": self.bytes_transferred,
        }

    def per_tag_snapshot(self) -> dict[str, dict[str, int]]:
        """``{tag: {"messages": m, "bytes": b}}``, sorted by tag."""
        return {
            tag: {"messages": self.tag_messages[tag],
                  "bytes": self.tag_bytes.get(tag, 0)}
            for tag in sorted(self.tag_messages)
        }

    def merged_with(self, other: "TrafficStats") -> "TrafficStats":
        """Return a new object with the element-wise sum of two stats."""
        tag_messages = dict(self.tag_messages)
        for tag, count in other.tag_messages.items():
            tag_messages[tag] = tag_messages.get(tag, 0) + count
        tag_bytes = dict(self.tag_bytes)
        for tag, count in other.tag_bytes.items():
            tag_bytes[tag] = tag_bytes.get(tag, 0) + count
        return TrafficStats(
            messages=self.messages + other.messages,
            ciphertexts=self.ciphertexts + other.ciphertexts,
            plaintext_items=self.plaintext_items + other.plaintext_items,
            bytes_transferred=self.bytes_transferred + other.bytes_transferred,
            tag_messages=tag_messages,
            tag_bytes=tag_bytes,
        )


@dataclass
class ProtocolRunStats:
    """Statistics of one end-to-end protocol execution.

    Combines the crypto-operation counts of both parties with the channel
    traffic, plus the wall-clock time measured by the runner.  The counts
    are a projection of the run's cost-ledger rows
    (:meth:`from_cost_rows`), so they cannot disagree with the report's
    ``cost_breakdown``.
    """

    protocol: str = ""
    wall_time_seconds: float = 0.0
    c1_encryptions: int = 0
    c1_exponentiations: int = 0
    c1_homomorphic_additions: int = 0
    c2_encryptions: int = 0
    c2_decryptions: int = 0
    c2_exponentiations: int = 0
    messages: int = 0
    ciphertexts_exchanged: int = 0
    bytes_transferred: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_encryptions(self) -> int:
        """Total encryptions across both clouds."""
        return self.c1_encryptions + self.c2_encryptions

    @property
    def total_exponentiations(self) -> int:
        """Total ciphertext exponentiations across both clouds."""
        return self.c1_exponentiations + self.c2_exponentiations

    @property
    def total_decryptions(self) -> int:
        """Total decryptions (only C2 can decrypt)."""
        return self.c2_decryptions

    @classmethod
    def from_cost_rows(cls, protocol: str, wall_time_seconds: float,
                       rows: Iterable[Mapping[str, Any]],
                       traffic_before: Mapping[str, int],
                       traffic_after: Mapping[str, int]
                       ) -> "ProtocolRunStats":
        """One run's stats, projected from its cost-ledger rows.

        ``rows`` are the ledger's ``{"phase", "party", "seconds", "ops"}``
        rollup (:meth:`add_cost_rows`): the ops of party ``"C2"`` fill the
        ``c2_*`` fields, those of every other party — ``"C1"``, a
        shard's ``"C1-shard{i}"`` — the ``c1_*`` fields; only the holder of
        ``sk`` decrypts, so a decryption is C2's whatever scope saw it.
        Traffic is the difference of two :meth:`TrafficStats.snapshot`
        dictionaries of the run's channel.
        """
        stats = cls(
            protocol=protocol,
            wall_time_seconds=wall_time_seconds,
            messages=traffic_after["messages"] - traffic_before["messages"],
            ciphertexts_exchanged=(traffic_after["ciphertexts"]
                                   - traffic_before["ciphertexts"]),
            bytes_transferred=(traffic_after["bytes_transferred"]
                               - traffic_before["bytes_transferred"]),
        )
        stats.add_cost_rows(rows)
        return stats

    def add_cost_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Add the ops of cost-ledger rows by the rule of
        :meth:`from_cost_rows` — a run's own rows, or the ones a remote C2
        measured over the same run.  C2's homomorphic additions have no
        column and ride in ``extra``."""
        for row in rows:
            ops = row["ops"]
            self.c2_decryptions += int(ops.get("decryptions", 0))
            if row["party"] == "C2":
                self.c2_encryptions += int(ops.get("encryptions", 0))
                self.c2_exponentiations += int(ops.get("exponentiations", 0))
                additions = int(ops.get("homomorphic_additions", 0))
                if additions:
                    self.extra["c2_homomorphic_additions"] = (
                        self.extra.get("c2_homomorphic_additions", 0)
                        + additions)
            else:
                self.c1_encryptions += int(ops.get("encryptions", 0))
                self.c1_exponentiations += int(
                    ops.get("exponentiations", 0))
                self.c1_homomorphic_additions += int(
                    ops.get("homomorphic_additions", 0))

    def absorb(self, other: "ProtocolRunStats") -> None:
        """Add another run's counters, traffic and extras to this run's —
        work done on its behalf elsewhere (a shard daemon's scan); the label
        and wall time stay this run's own."""
        for name in ("c1_encryptions", "c1_exponentiations",
                     "c1_homomorphic_additions", "c2_encryptions",
                     "c2_decryptions", "c2_exponentiations", "messages",
                     "ciphertexts_exchanged", "bytes_transferred"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    def as_payload(self) -> dict[str, object]:
        """Lossless field-by-field dictionary (the wire form of the stats),
        ``extra`` copied."""
        payload = {each.name: getattr(self, each.name)
                   for each in dataclasses.fields(self)}
        payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_payload(cls, data: dict[str, object]) -> "ProtocolRunStats":
        """Rebuild from :meth:`as_payload` output (e.g. off the wire)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in fields})
