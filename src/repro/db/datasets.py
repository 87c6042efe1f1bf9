"""Datasets: the paper's heart-disease running example and synthetic workloads.

Two data sources appear in the paper:

* **Tables 1 and 2** — six sample records of the UCI heart-disease dataset
  used as the running example (Example 1): the physician Bob queries with a
  patient record and expects records ``t4`` and ``t5`` as the 2 nearest
  neighbors.  The sample, together with the attribute metadata, is embedded
  here verbatim.
* **Section 5 synthetic data** — the evaluation uses "randomly generated
  synthetic datasets depending on the parameter values in consideration":
  ``n`` records with ``m`` attributes whose values (and hence distances) lie
  in ``[0, 2**l)``.  :func:`synthetic_uniform` reproduces that generator with
  an explicit seed so experiments are repeatable.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from repro.db.schema import Attribute, Schema
from repro.db.table import Table
from repro.exceptions import DatabaseError

__all__ = [
    "heart_disease_schema",
    "heart_disease_table",
    "heart_disease_example_query",
    "synthetic_uniform",
    "synthetic_clustered",
    "max_attribute_value_for_distance_bits",
]

#: Table 1 of the paper (record-id column omitted; ids become t1..t6).
_HEART_DISEASE_ROWS: tuple[tuple[int, ...], ...] = (
    (63, 1, 1, 145, 233, 1, 3, 0, 6, 0),
    (56, 1, 3, 130, 256, 1, 2, 1, 6, 2),
    (57, 0, 3, 140, 241, 0, 2, 0, 7, 1),
    (59, 1, 4, 144, 200, 1, 2, 2, 6, 3),
    (55, 0, 4, 128, 205, 0, 2, 1, 7, 3),
    (77, 1, 4, 125, 304, 0, 1, 3, 3, 4),
)

#: The query of Example 1 (patient medical information).  It has 9 attributes
#: because the physician does not supply the diagnosis column ``num``.
_HEART_DISEASE_QUERY: tuple[int, ...] = (58, 1, 4, 133, 196, 1, 2, 1, 6)


def heart_disease_schema(include_diagnosis: bool = True) -> Schema:
    """Schema of the heart-disease sample (Table 2 of the paper).

    Args:
        include_diagnosis: when ``False`` the trailing ``num`` column is
            dropped, matching the 9-attribute query of Example 1.
    """
    attributes = [
        Attribute("age", "age in years", 0, 150),
        Attribute("sex", "1=male, 0=female", 0, 1),
        Attribute("cp", "chest pain type (1-4)", 0, 4),
        Attribute("trestbps", "resting blood pressure (mm Hg)", 0, 300),
        Attribute("chol", "serum cholesterol in mg/dl", 0, 700),
        Attribute("fbs", "fasting blood sugar > 120 mg/dl", 0, 1),
        Attribute("slope", "slope of the peak exercise ST segment", 0, 3),
        Attribute("ca", "number of major vessels colored by flourosopy", 0, 3),
        Attribute("thal", "3=normal, 6=fixed defect, 7=reversible defect", 0, 7),
    ]
    if include_diagnosis:
        attributes.append(Attribute("num", "diagnosis of heart disease (0-4)", 0, 4))
    return Schema(tuple(attributes))


def heart_disease_table(include_diagnosis: bool = True) -> Table:
    """The six sample records of Table 1 as a :class:`~repro.db.table.Table`."""
    schema = heart_disease_schema(include_diagnosis)
    if include_diagnosis:
        rows: Sequence[Sequence[int]] = _HEART_DISEASE_ROWS
    else:
        rows = [row[:-1] for row in _HEART_DISEASE_ROWS]
    return Table.from_rows(schema, rows)


def heart_disease_example_query() -> tuple[int, ...]:
    """The Example 1 query record ``Q = <58, 1, 4, 133, 196, 1, 2, 1, 6>``."""
    return _HEART_DISEASE_QUERY


def max_attribute_value_for_distance_bits(dimensions: int, distance_bits: int) -> int:
    """Largest attribute value keeping all squared distances below ``2**l``.

    The paper assumes "all attribute values and their Euclidean distances lie
    in ``[0, 2**l)``".  For ``m`` attributes with values in ``[0, V]`` the
    worst-case squared distance is ``m * V**2``, so we pick the largest ``V``
    with ``m * V**2 < 2**l``.
    """
    if dimensions <= 0:
        raise DatabaseError("dimensions must be positive")
    if distance_bits <= 0:
        raise DatabaseError("distance bit length must be positive")
    limit = 1 << distance_bits
    value = int(((limit - 1) / dimensions) ** 0.5)
    while dimensions * value * value >= limit and value > 0:
        value -= 1
    return max(value, 1)


def synthetic_uniform(n_records: int, dimensions: int, distance_bits: int,
                      seed: int = 0) -> Table:
    """Uniform synthetic dataset matching the paper's evaluation workloads.

    Args:
        n_records: number of records ``n``.
        dimensions: number of attributes ``m``.
        distance_bits: the experiment's ``l``; attribute values are drawn so
            every squared Euclidean distance fits in ``[0, 2**l)``.
        seed: RNG seed for repeatability.

    Returns:
        A plaintext :class:`~repro.db.table.Table` ready to be encrypted.
    """
    if n_records <= 0:
        raise DatabaseError("n_records must be positive")
    rng = Random(seed)
    max_value = max_attribute_value_for_distance_bits(dimensions, distance_bits)
    schema = Schema.uniform(dimensions, maximum=max_value)
    rows = [
        [rng.randint(0, max_value) for _ in range(dimensions)]
        for _ in range(n_records)
    ]
    return Table.from_rows(schema, rows)


def synthetic_clustered(n_records: int, dimensions: int, distance_bits: int,
                        clusters: int = 4, spread: float = 0.05,
                        seed: int = 0) -> Table:
    """Clustered synthetic dataset (Gaussian blobs around random centers).

    Not used by the paper's evaluation, but useful for the example
    applications: kNN behaves very differently on clustered data, and the
    secure protocols are oblivious to the distribution — which this dataset
    lets users confirm empirically.
    """
    if clusters <= 0:
        raise DatabaseError("clusters must be positive")
    rng = Random(seed)
    max_value = max_attribute_value_for_distance_bits(dimensions, distance_bits)
    schema = Schema.uniform(dimensions, maximum=max_value)
    centers = [
        [rng.randint(0, max_value) for _ in range(dimensions)]
        for _ in range(clusters)
    ]
    sigma = max(max_value * spread, 1.0)
    rows = []
    for _ in range(n_records):
        center = centers[rng.randrange(clusters)]
        row = []
        for coordinate in center:
            value = int(round(rng.gauss(coordinate, sigma)))
            row.append(min(max(value, 0), max_value))
        rows.append(row)
    return Table.from_rows(schema, rows)
