"""Relational schema definitions for the database substrate.

The paper operates on a single relational table ``T`` with ``n`` records and
``m`` numeric attributes (plus an identifying ``record-id``).  This module
models that: a :class:`Attribute` describes one column (name, description,
value range) and a :class:`Schema` is an ordered collection of attributes
with validation helpers.

Attribute ranges matter for two reasons:

* the protocol parameter ``l`` (bit length of the squared Euclidean distance
  domain) is derived from the attribute ranges and the dimensionality, and
* the data owner must reject out-of-range values before encryption, because
  the protocols assume all values and distances lie in ``[0, 2**l)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import SchemaError

__all__ = ["Attribute", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """Description of one numeric column of the table.

    Attributes:
        name: column name (unique within a schema).
        description: human-readable description (Table 2 of the paper).
        minimum: smallest allowed value (inclusive).
        maximum: largest allowed value (inclusive).
    """

    name: str
    description: str = ""
    minimum: int = 0
    maximum: int = 2**31 - 1

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.minimum > self.maximum:
            raise SchemaError(
                f"attribute {self.name!r}: minimum {self.minimum} exceeds "
                f"maximum {self.maximum}"
            )
        if self.minimum < 0:
            raise SchemaError(
                f"attribute {self.name!r}: negative values are not supported by "
                "the SkNN protocols (shift the domain before encrypting)"
            )

    def validate(self, value: int) -> None:
        """Raise :class:`SchemaError` if ``value`` is outside the range."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(
                f"attribute {self.name!r}: expected int, got {type(value).__name__}"
            )
        if value < self.minimum or value > self.maximum:
            raise SchemaError(
                f"attribute {self.name!r}: value {value} outside "
                f"[{self.minimum}, {self.maximum}]"
            )


@dataclass(frozen=True)
class Schema:
    """Ordered collection of attributes describing the table layout."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        if not names:
            raise SchemaError("schema must contain at least one attribute")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_names(cls, names: Sequence[str], minimum: int = 0,
                   maximum: int = 2**31 - 1) -> "Schema":
        """Build a schema from bare column names with a shared value range."""
        return cls(tuple(Attribute(name, minimum=minimum, maximum=maximum)
                         for name in names))

    @classmethod
    def uniform(cls, dimensions: int, maximum: int, prefix: str = "attr") -> "Schema":
        """Build an ``m``-attribute schema with range ``[0, maximum]``.

        Used by the synthetic workloads of Section 5, which only specify the
        number of attributes ``m`` and the domain size.
        """
        return cls.from_names([f"{prefix}{i}" for i in range(dimensions)],
                              minimum=0, maximum=maximum)

    # -- accessors ------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(attribute.name for attribute in self.attributes)

    @property
    def dimensions(self) -> int:
        """Number of attributes (the paper's ``m``)."""
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterable[Attribute]:
        return iter(self.attributes)

    def index_of(self, name: str) -> int:
        """Position of an attribute within a record vector."""
        for index, candidate in enumerate(self.attributes):
            if candidate.name == name:
                return index
        raise SchemaError(f"unknown attribute {name!r}")

    # -- validation and protocol parameters --------------------------------------
    def validate_record(self, values: Sequence[int]) -> None:
        """Validate one record (attribute count and per-attribute ranges)."""
        if len(values) != self.dimensions:
            raise SchemaError(
                f"record has {len(values)} values but schema has "
                f"{self.dimensions} attributes"
            )
        for attribute, value in zip(self.attributes, values):
            attribute.validate(value)

    def attribute_bit_length(self) -> int:
        """``a``: bits that hold every attribute value, ``[0, 2**a)``.

        The width C1's masks are sized from: SkNN_m's extracted record
        values are ``a``-bit, SSED's differences ``a + 1``-bit (signed).
        """
        return max(max(attribute.maximum.bit_length()
                       for attribute in self.attributes), 1)

    def max_squared_distance(self, dimensions: int | None = None) -> int:
        """Largest possible squared Euclidean distance between two records,
        over the leading ``dimensions`` attributes (all by default)."""
        return sum((attribute.maximum - attribute.minimum) ** 2
                   for attribute in self.attributes[:dimensions])

    def distance_bit_length(self, dimensions: int | None = None) -> int:
        """The paper's parameter ``l``: bits needed for any squared distance.

        Chosen as the bit length of the maximum squared distance so every
        distance fits in ``[0, 2**l)`` — over the leading ``dimensions``
        attributes when given (the distance skips trailing label columns).
        """
        return max(self.max_squared_distance(dimensions).bit_length(), 1)
