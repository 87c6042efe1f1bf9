"""Tests for the secure kNN classifier extension."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from repro.db.datasets import heart_disease_table
from repro.db.knn import LinearScanKNN
from repro.db.schema import Schema
from repro.db.table import Table
from repro.exceptions import ConfigurationError, QueryError
from repro.extensions import SecureKNNClassifier


def make_labeled_table() -> Table:
    """A small two-class dataset: label 0 near the origin, label 1 far away."""
    schema = Schema.from_names(["x", "y", "label"], maximum=31)
    rows = [
        [1, 1, 0], [2, 1, 0], [1, 3, 0], [3, 2, 0], [2, 3, 0],
        [20, 20, 1], [21, 19, 1], [19, 21, 1], [22, 22, 1], [20, 23, 1],
    ]
    return Table.from_rows(schema, rows)


def plaintext_knn_vote(table: Table, label_index: int, features, k: int) -> int:
    """Plaintext oracle: majority label of the k nearest records."""
    feature_rows = [record.values[:label_index] + record.values[label_index + 1:]
                    for record in table]
    schema = Schema.uniform(len(features), maximum=2**20)
    feature_table = Table.from_rows(schema, feature_rows)
    neighbors = LinearScanKNN(feature_table).query(list(features), k)
    labels = [table.records[int(result.record_id[1:]) - 1].values[label_index]
              for result in neighbors]
    return Counter(labels).most_common(1)[0][0]


class TestSecureKNNClassifierBasicMode:
    def test_classifies_both_clusters_correctly(self):
        table = make_labeled_table()
        classifier = SecureKNNClassifier(table, label_column="label",
                                         key_size=128, mode="basic",
                                         rng=Random(1))
        assert classifier.classify_with_details([2, 2], k=3).label == 0
        assert classifier.classify_with_details([20, 21], k=3).label == 1

    def test_matches_plaintext_vote(self):
        table = make_labeled_table()
        classifier = SecureKNNClassifier(table, label_column="label",
                                         key_size=128, mode="basic",
                                         rng=Random(2))
        for features in ([5, 5], [15, 15], [1, 30]):
            expected = plaintext_knn_vote(table, 2, features, 3)
            assert classifier.classify_with_details(
                features, k=3).label == expected

    def test_details_contain_votes_and_confidence(self):
        table = make_labeled_table()
        classifier = SecureKNNClassifier(table, label_column="label",
                                         key_size=128, mode="basic",
                                         rng=Random(3))
        result = classifier.classify_with_details([2, 2], k=5)
        assert result.label == 0
        assert result.votes == {0: 5}
        assert result.confidence == 1.0
        assert len(result.neighbors) == 5

    def test_label_column_can_be_anywhere(self):
        """The label need not be the last column of the user's table."""
        schema = Schema.from_names(["label", "x", "y"], maximum=31)
        rows = [[0, 1, 1], [0, 2, 2], [1, 20, 20], [1, 21, 21]]
        table = Table.from_rows(schema, rows)
        classifier = SecureKNNClassifier(table, label_column="label",
                                         key_size=128, mode="basic",
                                         rng=Random(4))
        assert classifier.classify_with_details([1, 2], k=3).label == 0
        assert classifier.classify_with_details([20, 20], k=3).label == 1

    def test_heart_disease_example_classification(self):
        """Classify the Example 1 patient by the diagnosis of its neighbors."""
        table = heart_disease_table(include_diagnosis=True)
        classifier = SecureKNNClassifier(table, label_column="num",
                                         key_size=128, mode="basic",
                                         rng=Random(5))
        # The 2 nearest records are t4 and t5, both with num = 3.
        result = classifier.classify_with_details(
            [58, 1, 4, 133, 196, 1, 2, 1, 6], k=2)
        assert result.label == 3
        assert result.votes == {3: 2}


class TestSecureKNNClassifierSecureMode:
    def test_secure_mode_matches_basic_mode(self):
        table = make_labeled_table()
        basic = SecureKNNClassifier(table, label_column="label", key_size=128,
                                    mode="basic", rng=Random(6))
        secure = SecureKNNClassifier(table, label_column="label", key_size=128,
                                     mode="secure", rng=Random(7))
        for features in ([2, 2], [21, 20]):
            assert basic.classify_with_details(features, k=3).label \
                == secure.classify_with_details(features, k=3).label


class TestClassifierValidation:
    def test_unknown_label_column_rejected(self):
        with pytest.raises(ConfigurationError):
            SecureKNNClassifier(make_labeled_table(), label_column="missing",
                                key_size=128)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SecureKNNClassifier(make_labeled_table(), label_column="label",
                                key_size=128, mode="paranoid")

    def test_single_column_table_rejected(self):
        table = Table.from_rows(Schema.from_names(["label"], maximum=3), [[1], [2]])
        with pytest.raises(ConfigurationError):
            SecureKNNClassifier(table, label_column="label", key_size=128)

    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_out_of_schema_features_refused_before_encryption(self, mode):
        classifier = SecureKNNClassifier(make_labeled_table(),
                                         label_column="label", key_size=128,
                                         mode=mode, rng=Random(9))
        encrypted = []
        classifier._client.encrypt_query = encrypted.append
        with pytest.raises(QueryError, match="outside the schema"):
            classifier.classify_with_details([1, 32], k=2)
        assert encrypted == []

    def test_feature_arity_checked(self):
        classifier = SecureKNNClassifier(make_labeled_table(),
                                         label_column="label", key_size=128,
                                         rng=Random(8))
        with pytest.raises(QueryError):
            classifier.classify_with_details([1, 2, 3], k=2)
