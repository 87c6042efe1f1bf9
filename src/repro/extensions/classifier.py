"""Secure kNN classification over encrypted data.

The paper points out (Section 2.1.1) that a protocol which finds the exact
k nearest neighbors of an encrypted query "can also be used in other relevant
data mining tasks such as secure clustering, classification, and outlier
detection".  This module implements the most direct of those: a **secure kNN
classifier**.

The training table contains feature columns plus one label column.  The label
column is excluded from the distance computation (exactly as the paper's
Example 1 excludes the diagnosis column ``num`` from the query) but is
returned, still under encryption, with each neighbor; after reconstructing the
k neighbors locally, the query user takes a majority vote over their labels.
Neither cloud learns the features, the labels, the query, or — with the
``"secure"`` mode — which records voted.

Usage::

    from repro.db import heart_disease_table
    from repro.extensions import SecureKNNClassifier

    classifier = SecureKNNClassifier(heart_disease_table(), label_column="num",
                                     key_size=256, mode="basic")
    predicted = classifier.classify_with_details(
        [58, 1, 4, 133, 196, 1, 2, 1, 6], k=3).label
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Literal, Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure, check_query_domain
from repro.db.schema import Schema
from repro.db.table import Record, Table
from repro.exceptions import ConfigurationError, QueryError

__all__ = ["ClassificationResult", "SecureKNNClassifier"]

Mode = Literal["basic", "secure"]


@dataclass
class ClassificationResult:
    """Outcome of one secure classification query.

    Attributes:
        label: the majority label among the k nearest neighbors.
        votes: label -> number of neighbors carrying that label.
        neighbors: the k neighbor records (feature values + label, in the
            classifier's internal feature-first column order).
    """

    label: int
    votes: dict[int, int]
    neighbors: list[tuple[int, ...]]

    @property
    def confidence(self) -> float:
        """Fraction of neighbors that voted for the winning label."""
        total = sum(self.votes.values())
        return self.votes[self.label] / total if total else 0.0


class SecureKNNClassifier:
    """kNN classification where the training data stays encrypted in the cloud."""

    def __init__(self, table: Table, label_column: str, key_size: int = 256,
                 mode: Mode = "basic", rng: Random | None = None,
                 distance_bits: int | None = None) -> None:
        """Create (and outsource) a secure kNN classifier.

        Args:
            table: training data; one column holds the class label.
            label_column: name of the label column.
            key_size: Paillier key size in bits.
            mode: ``"basic"`` (SkNN_b — faster, leaks access patterns) or
                ``"secure"`` (SkNN_m — hides access patterns).
            rng: optional deterministic randomness source (tests only).
            distance_bits: override for the distance-domain parameter ``l``
                (defaults to the value derived from the feature columns).
        """
        if mode not in ("basic", "secure"):
            raise ConfigurationError(f"unknown classifier mode {mode!r}")
        if label_column not in table.schema.names:
            raise ConfigurationError(f"unknown label column {label_column!r}")
        if table.dimensions < 2:
            raise ConfigurationError(
                "classification needs at least one feature column and a label"
            )
        self.mode = mode
        self.label_column = label_column
        self._reordered = _move_label_last(table, label_column)
        self.feature_count = self._reordered.dimensions - 1

        self._feature_schema = Schema(self._reordered.schema.attributes[:-1])
        self.distance_bits = (distance_bits if distance_bits is not None
                              else self._feature_schema.distance_bit_length())

        owner = DataOwner(self._reordered, key_size=key_size, rng=rng)
        self._cloud: FederatedCloud = FederatedCloud.deploy(owner.keypair, rng=rng)
        self._cloud.c1.host_database(owner.encrypt_database())
        self._client = QueryClient(owner.public_key, self.feature_count, rng=rng)

        if mode == "basic":
            self._protocol = SkNNBasic(self._cloud,
                                       feature_dimensions=self.feature_count)
        else:
            self._protocol = SkNNSecure(self._cloud,
                                        distance_bits=self.distance_bits,
                                        feature_dimensions=self.feature_count)

    # -- queries ------------------------------------------------------------------
    def classify_with_details(self, features: Sequence[int],
                              k: int) -> ClassificationResult:
        """Classify and also return the vote counts and neighbor records."""
        if len(features) != self.feature_count:
            raise QueryError(
                f"query has {len(features)} features, classifier expects "
                f"{self.feature_count}"
            )
        check_query_domain(self._feature_schema, features)
        encrypted_query = self._client.encrypt_query(list(features))
        shares = self._protocol.run(encrypted_query, k)
        neighbors = self._client.reconstruct(shares)
        labels = [record[-1] for record in neighbors]
        votes = Counter(labels)
        # Majority vote; ties broken toward the label of the closest neighbor
        # (neighbors are returned in non-decreasing distance order).
        best_count = max(votes.values())
        winning = next(label for label in labels if votes[label] == best_count)
        return ClassificationResult(label=winning, votes=dict(votes),
                                    neighbors=neighbors)


def _move_label_last(table: Table, label_column: str) -> Table:
    """Return a copy of ``table`` with the label column moved to the end.

    The SkNN protocols compute distances over the *leading* attributes, so the
    classifier internally reorders columns to (features..., label).
    """
    label_index = table.schema.index_of(label_column)
    attributes = list(table.schema.attributes)
    reordered_attributes = (attributes[:label_index] + attributes[label_index + 1:]
                            + [attributes[label_index]])
    reordered_schema = Schema(tuple(reordered_attributes))
    reordered = Table(reordered_schema)
    for record in table:
        values = list(record.values)
        reordered_values = (values[:label_index] + values[label_index + 1:]
                            + [values[label_index]])
        reordered.insert(Record(record.record_id, tuple(reordered_values)))
    return reordered
