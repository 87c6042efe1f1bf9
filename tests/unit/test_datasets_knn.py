"""Unit tests for the datasets module and the plaintext kNN engines."""

from __future__ import annotations

from random import Random

import pytest

from repro.db.datasets import (
    heart_disease_example_query,
    heart_disease_schema,
    heart_disease_table,
    max_attribute_value_for_distance_bits,
    synthetic_clustered,
    synthetic_uniform,
)
from repro.db.knn import KDTreeKNN, LinearScanKNN, squared_euclidean
from repro.exceptions import DatabaseError, QueryError


class TestHeartDiseaseDataset:
    def test_table_matches_paper_table_1(self):
        table = heart_disease_table()
        assert len(table) == 6
        assert table.get("t1").values == (63, 1, 1, 145, 233, 1, 3, 0, 6, 0)
        assert table.get("t6").values == (77, 1, 4, 125, 304, 0, 1, 3, 3, 4)

    def test_schema_matches_paper_table_2(self):
        schema = heart_disease_schema()
        assert schema.names == ("age", "sex", "cp", "trestbps", "chol", "fbs",
                                "slope", "ca", "thal", "num")
        assert schema.attributes[schema.index_of("sex")].maximum == 1

    def test_query_has_nine_attributes(self):
        assert len(heart_disease_example_query()) == 9
        assert heart_disease_example_query()[0] == 58

    def test_without_diagnosis_column(self):
        table = heart_disease_table(include_diagnosis=False)
        assert table.dimensions == 9
        assert table.get("t4").values == (59, 1, 4, 144, 200, 1, 2, 2, 6)

    def test_paper_example_1_nearest_neighbors(self):
        """Example 1: for k=2 the nearest records to Q are t4 and t5."""
        table = heart_disease_table(include_diagnosis=False)
        engine = LinearScanKNN(table)
        neighbors = engine.query(heart_disease_example_query(), 2)
        assert {result.record_id for result in neighbors} == {"t4", "t5"}


class TestSyntheticDatasets:
    def test_uniform_shape(self):
        table = synthetic_uniform(n_records=30, dimensions=5, distance_bits=10,
                                  seed=1)
        assert len(table) == 30
        assert table.dimensions == 5

    def test_uniform_is_seeded(self):
        first = synthetic_uniform(10, 3, 8, seed=7)
        second = synthetic_uniform(10, 3, 8, seed=7)
        assert first.row_values() == second.row_values()

    def test_uniform_different_seeds_differ(self):
        first = synthetic_uniform(10, 3, 8, seed=1)
        second = synthetic_uniform(10, 3, 8, seed=2)
        assert first.row_values() != second.row_values()

    def test_distances_fit_distance_bits(self):
        distance_bits = 9
        table = synthetic_uniform(20, 4, distance_bits, seed=3)
        limit = 1 << distance_bits
        rows = table.row_values()
        for left in rows:
            for right in rows:
                assert squared_euclidean(left, right) < limit

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(DatabaseError):
            synthetic_uniform(0, 3, 8)
        with pytest.raises(DatabaseError):
            max_attribute_value_for_distance_bits(0, 8)
        with pytest.raises(DatabaseError):
            max_attribute_value_for_distance_bits(3, 0)

    def test_synthetic_schema(self):
        table = synthetic_uniform(20, 6, distance_bits=10, seed=3)
        bound = max_attribute_value_for_distance_bits(6, 10)
        assert table.schema.dimensions == 6
        assert all(attribute.minimum == 0 and attribute.maximum == bound
                   for attribute in table.schema.attributes)
        assert table.schema.distance_bit_length() <= 10

    def test_max_attribute_value_bound(self):
        for dimensions in (1, 3, 10):
            for bits in (4, 8, 16):
                value = max_attribute_value_for_distance_bits(dimensions, bits)
                assert dimensions * value * value < (1 << bits) or value == 1

    def test_clustered_dataset(self):
        table = synthetic_clustered(40, 3, 12, clusters=3, seed=5)
        assert len(table) == 40
        with pytest.raises(DatabaseError):
            synthetic_clustered(10, 3, 12, clusters=0)


class TestPlaintextKNN:
    def make_table(self):
        return synthetic_uniform(50, 3, 12, seed=11)

    def test_linear_scan_known_small_case(self):
        from repro.db.schema import Schema
        from repro.db.table import Table
        schema = Schema.from_names(["x", "y"], maximum=10)
        table = Table.from_rows(schema, [[0, 0], [5, 5], [1, 1], [9, 9]])
        engine = LinearScanKNN(table)
        results = engine.query([0, 0], 2)
        assert [r.record_id for r in results] == ["t1", "t3"]
        assert [r.squared_distance for r in results] == [0, 2]

    def test_kdtree_matches_linear_scan(self):
        table = self.make_table()
        linear = LinearScanKNN(table)
        tree = KDTreeKNN(table)
        rng = Random(4)
        for _ in range(10):
            query = [rng.randrange(0, 30) for _ in range(3)]
            for k in (1, 3, 7):
                linear_ids = [r.record_id for r in linear.query(query, k)]
                tree_ids = [r.record_id for r in tree.query(query, k)]
                assert linear_ids == tree_ids

    def test_tie_breaking_by_record_order(self):
        from repro.db.schema import Schema
        from repro.db.table import Table
        schema = Schema.from_names(["x"], maximum=10)
        table = Table.from_rows(schema, [[4], [6], [6], [4]])
        engine = LinearScanKNN(table)
        results = engine.query([5], 3)
        assert [r.record_id for r in results] == ["t1", "t2", "t3"]

    def test_k_equal_to_table_size(self):
        table = self.make_table()
        results = LinearScanKNN(table).query([0, 0, 0], len(table))
        assert len(results) == len(table)

    def test_invalid_queries_rejected(self):
        table = self.make_table()
        engine = LinearScanKNN(table)
        with pytest.raises(QueryError):
            engine.query([0, 0, 0], 0)
        with pytest.raises(QueryError):
            engine.query([0, 0, 0], len(table) + 1)
        with pytest.raises(QueryError):
            engine.query([0, 0], 1)
        with pytest.raises(QueryError):
            engine.query([0, 0, 0], "3")

    def test_empty_table_rejected(self):
        from repro.db.schema import Schema
        from repro.db.table import Table
        table = Table(Schema.from_names(["x"]))
        with pytest.raises(QueryError):
            LinearScanKNN(table).query([1], 1)

    def test_squared_euclidean_dimension_check(self):
        with pytest.raises(QueryError):
            squared_euclidean([1, 2], [1])

    def test_neighbor_result_exposes_record_id(self):
        table = self.make_table()
        result = LinearScanKNN(table).query([0, 0, 0], 1)[0]
        assert result.record_id == result.record.record_id
