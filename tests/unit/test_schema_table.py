"""Unit tests for the schema and table substrate."""

from __future__ import annotations

import pytest

from repro.db.schema import Attribute, Schema
from repro.db.table import Record, Table
from repro.exceptions import DatabaseError, SchemaError


class TestAttribute:
    def test_basic_construction(self):
        attribute = Attribute("age", "age in years", 0, 150)
        assert (attribute.minimum, attribute.maximum) == (0, 150)

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_rejects_inverted_range(self):
        with pytest.raises(SchemaError):
            Attribute("x", minimum=10, maximum=5)

    def test_rejects_negative_minimum(self):
        with pytest.raises(SchemaError):
            Attribute("x", minimum=-1, maximum=5)

    def test_validate_accepts_in_range(self):
        Attribute("x", minimum=0, maximum=10).validate(5)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(SchemaError):
            Attribute("x", minimum=0, maximum=10).validate(11)

    def test_validate_rejects_non_int(self):
        with pytest.raises(SchemaError):
            Attribute("x").validate("5")
        with pytest.raises(SchemaError):
            Attribute("x").validate(True)


class TestSchema:
    def test_from_names(self):
        schema = Schema.from_names(["a", "b", "c"], minimum=0, maximum=9)
        assert schema.dimensions == 3
        assert schema.names == ("a", "b", "c")

    def test_uniform(self):
        schema = Schema.uniform(4, maximum=15)
        assert schema.dimensions == 4
        assert all(a.maximum == 15 for a in schema)

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema.from_names(["a", "a"])

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_attribute_index(self):
        schema = Schema.from_names(["x", "y"])
        assert schema.index_of("y") == 1
        with pytest.raises(SchemaError):
            schema.index_of("z")

    def test_validate_record(self):
        schema = Schema.from_names(["x", "y"], maximum=10)
        schema.validate_record([1, 2])
        with pytest.raises(SchemaError):
            schema.validate_record([1])
        with pytest.raises(SchemaError):
            schema.validate_record([1, 11])

    def test_max_squared_distance_and_bit_length(self):
        schema = Schema.uniform(2, maximum=3)
        assert schema.max_squared_distance() == 2 * 9
        assert schema.distance_bit_length() == 5  # 18 needs 5 bits

    def test_len_and_iter(self):
        schema = Schema.from_names(["a", "b"])
        assert len(schema) == 2
        assert [a.name for a in schema] == ["a", "b"]


class TestRecord:
    def test_rejects_empty_id(self):
        with pytest.raises(SchemaError):
            Record("", (1, 2))

    def test_as_dict(self):
        schema = Schema.from_names(["x", "y"])
        record = Record("t1", (3, 4))
        assert record.as_dict(schema) == {"x": 3, "y": 4}

    def test_as_dict_arity_mismatch(self):
        schema = Schema.from_names(["x", "y", "z"])
        with pytest.raises(SchemaError):
            Record("t1", (3, 4)).as_dict(schema)

    def test_len(self):
        assert len(Record("t1", (1, 2, 3))) == 3


class TestTable:
    def make_table(self) -> Table:
        schema = Schema.from_names(["x", "y"], maximum=100)
        return Table.from_rows(schema, [[1, 2], [3, 4], [5, 6]])

    def test_from_rows_generates_paper_style_ids(self):
        table = self.make_table()
        assert [record.record_id for record in table] == ["t1", "t2", "t3"]

    def test_insert_validates_schema(self):
        table = self.make_table()
        with pytest.raises(SchemaError):
            table.insert(Record("t9", (1, 999)))

    def test_duplicate_id_rejected(self):
        table = self.make_table()
        with pytest.raises(DatabaseError):
            table.insert(Record("t1", (0, 0)))

    def test_get_unknown_id(self):
        with pytest.raises(DatabaseError):
            self.make_table().get("missing")

    def test_contains_len_iter(self):
        table = self.make_table()
        assert "t2" in table
        assert "t9" not in table
        assert len(table) == 3
        assert len(list(table)) == 3

    def test_row_values(self):
        assert self.make_table().row_values() == [(1, 2), (3, 4), (5, 6)]

    def test_squared_distance(self):
        table = self.make_table()
        assert table.squared_distance("t1", [1, 2]) == 0
        assert table.squared_distance("t2", [0, 0]) == 25
        with pytest.raises(DatabaseError):
            table.squared_distance("t1", [1, 2, 3])

    def test_describe_mentions_shape(self):
        description = self.make_table().describe()
        assert "3 records" in description
        assert "2 attributes" in description
