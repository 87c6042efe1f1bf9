"""Database substrate: schemas, tables, encrypted tables, datasets, plaintext kNN."""

from repro.db.datasets import (
    heart_disease_example_query,
    heart_disease_schema,
    heart_disease_table,
    synthetic_clustered,
    synthetic_uniform,
)
from repro.db.encrypted_table import EncryptedRecord, EncryptedTable
from repro.db.knn import KDTreeKNN, LinearScanKNN, NeighborResult, squared_euclidean
from repro.db.schema import Attribute, Schema
from repro.db.table import Record, Table

__all__ = [
    "Attribute",
    "Schema",
    "Record",
    "Table",
    "EncryptedRecord",
    "EncryptedTable",
    "NeighborResult",
    "LinearScanKNN",
    "KDTreeKNN",
    "squared_euclidean",
    "heart_disease_schema",
    "heart_disease_table",
    "heart_disease_example_query",
    "synthetic_uniform",
    "synthetic_clustered",
]
