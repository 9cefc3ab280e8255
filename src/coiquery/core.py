"""Weak orders, rank domains, and bias assignments.

This module holds the small set of domain types every analysis in the
package shares: finite attribute domains and their Cartesian rank
domains, weak orders (ranked lists with ties) over opaque tuple keys,
bias functions mapping keys to exact rational offsets, and the ordered
attribute rules (first match wins, times a scale) that assign a bias to
every rank-domain element.

Conventions
-----------
* Ranks are 1-based.  A tie block occupying list positions ``i..j``
  assigns rank ``i`` to every member (the position of the block's first
  member), so a weak order without ties ranks its keys ``1..n`` exactly.
* A second, dense numbering — the *block index* — counts blocks
  ``1..#blocks`` and is available via ``WeakOrder.block_index_map`` for
  callers that need consecutive numbers instead of positions.
* Absent keys have no rank: lookups either raise ``KeyError`` or return
  a caller-supplied "omitted" rank strictly greater than the number of
  ranked keys.
* All numeric state is stored as ``fractions.Fraction``; callers may
  pass ints, floats, decimal strings, or Fractions and get exact
  arithmetic back.  Floats convert to their exact binary value.

Everything here is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

__all__ = [
    "AttributeDomain",
    "BiasConfig",
    "BiasFunction",
    "BiasRule",
    "ConfigurationError",
    "DomainError",
    "InfeasibleQueryError",
    "Key",
    "QueryAnalysisError",
    "Rank",
    "RankDomain",
    "Relation",
    "SearchBudgetError",
    "WeakOrder",
    "as_fraction",
    "assign_bias",
    "build_rank_domain",
]

# Opaque identifier for a ranked tuple (or rank-domain element).
Key = str

# 1-based position in a ranking; values above the universe size denote
# omitted tuples.
Rank = int


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #


class QueryAnalysisError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigurationError(QueryAnalysisError, ValueError):
    """Invalid configuration: malformed input artifact, bad schema, or
    out-of-range settings supplied by the caller."""


class DomainError(QueryAnalysisError, ValueError):
    """A numeric argument lies outside its mathematical domain."""


class InfeasibleQueryError(QueryAnalysisError):
    """No ranking satisfies the given constraint query."""


class SearchBudgetError(QueryAnalysisError):
    """A bounded search ran out of its node budget before it could answer."""


# Largest decimal exponent ``as_fraction`` expands: CPython's default
# int/str digit limit.  ``Fraction("1e10000000")`` would take seconds.
_MAX_EXPONENT = 4300


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Convert ``value`` to an exact ``Fraction``.

    Decimal strings such as ``"0.1"`` become exact decimals; floats
    convert to their exact binary expansion.  Booleans, and decimal
    strings whose exponent exceeds ``±4300``, are rejected.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a rational value")
        if isinstance(value, str):
            _, marker, exponent = value.upper().partition("E")
            if marker and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond ±{_MAX_EXPONENT}")
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(f"not a rational value: {value!r}") from exc


# --------------------------------------------------------------------------- #
# Attribute and rank domains
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AttributeDomain:
    """A named, totally ordered finite domain of attribute values.

    The value order given at construction is authoritative and fixed;
    categorical domains keep their source order.
    """

    name: str
    values: tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise ConfigurationError("attribute name must be nonempty")
        if not self.values:
            raise ConfigurationError(f"attribute {self.name!r} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError(f"attribute {self.name!r} has duplicate values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RankDomain:
    """The Cartesian product of attribute domains, enumerated once.

    Elements are listed in lexicographic order of the attribute value
    sequences and keyed ``"e1" .. "e{m}"`` in that order.  Two calls to
    :func:`build_rank_domain` with equal inputs enumerate identically.
    """

    attributes: tuple[AttributeDomain, ...]
    elements: tuple[tuple[object, ...], ...]

    @property
    def size(self) -> int:
        """Number of elements (the product of attribute cardinalities)."""
        return len(self.elements)

    def keys(self) -> tuple[Key, ...]:
        return tuple(f"e{i}" for i in range(1, self.size + 1))

    def __len__(self) -> int:
        return self.size


def build_rank_domain(attributes: Iterable[AttributeDomain]) -> RankDomain:
    """Enumerate the product of ``attributes`` as a :class:`RankDomain`.

    Raises:
        ConfigurationError: if no attributes are given (empty attribute
            domains are rejected at ``AttributeDomain`` construction).
    """
    attrs = tuple(attributes)
    if not attrs:
        raise ConfigurationError("rank domain needs at least one attribute")
    elements = tuple(itertools.product(*(a.values for a in attrs)))
    return RankDomain(attributes=attrs, elements=elements)


# --------------------------------------------------------------------------- #
# Weak orders
# --------------------------------------------------------------------------- #


class Relation(Enum):
    """Pairwise relation of two keys inside one weak order."""

    PRECEDES = "precedes"
    TIED = "tied"
    FOLLOWS = "follows"
    ABSENT = "absent"


@dataclass(frozen=True, eq=False)
class WeakOrder:
    """A ranked list with ties over opaque keys.

    ``blocks`` is the ordered sequence of tie blocks, best to worst.
    Within-block key order is preserved for deterministic iteration but
    carries no ranking meaning: two weak orders are equal iff their
    block sequences agree as sets.

    Construction does not validate; build via :meth:`from_lists` when
    the input is untrusted.
    """

    blocks: tuple[tuple[Key, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))

    # -- constructors -------------------------------------------------------

    @classmethod
    def of(cls, *blocks: Iterable[Key]) -> "WeakOrder":
        """Build from blocks given as separate iterables."""
        return cls(tuple(tuple(b) for b in blocks))

    @classmethod
    def total(cls, keys: Iterable[Key]) -> "WeakOrder":
        """Total order (no ties) over ``keys`` in the given sequence."""
        return cls(tuple((k,) for k in keys))

    @classmethod
    def from_lists(cls, data: object) -> "WeakOrder":
        """Parse the JSON shape ``[["e3"], ["e2", "e1"], ...]``.

        Raises:
            ConfigurationError: on a malformed shape or invariant
                violation (duplicate key, empty block).
        """
        if not isinstance(data, (list, tuple)):
            raise ConfigurationError("weak order must be a list of lists of keys")
        blocks: list[tuple[Key, ...]] = []
        seen: set[Key] = set()
        violation: str | None = None
        for index, block in enumerate(data, start=1):
            if not isinstance(block, (list, tuple)):
                raise ConfigurationError("weak order blocks must be lists of strings")
            block = tuple(block)
            if not block and violation is None:
                violation = f"block {index} is empty"
            for key in block:
                if not isinstance(key, str):
                    raise ConfigurationError("weak order blocks must be lists of strings")
                if key in seen and violation is None:
                    violation = f"duplicate key {key!r}"
                seen.add(key)
            blocks.append(block)
        if violation is not None:
            raise ConfigurationError(f"invalid weak order: {violation}")
        return cls(tuple(blocks))

    def as_lists(self) -> list[list[Key]]:
        """JSON-ready ``[[key, ...], ...]`` form."""
        return [list(b) for b in self.blocks]

    # -- lookups ------------------------------------------------------------

    @cached_property
    def _rank_by_key(self) -> dict[Key, int]:
        ranks: dict[Key, int] = {}
        position = 1
        for block in self.blocks:
            for key in block:
                ranks[key] = position
            position += len(block)
        return ranks

    @cached_property
    def _block_index_by_key(self) -> dict[Key, int]:
        return {
            key: index
            for index, block in enumerate(self.blocks, start=1)
            for key in block
        }

    @cached_property
    def key_set(self) -> frozenset[Key]:
        return frozenset(self._rank_by_key)

    def keys(self) -> tuple[Key, ...]:
        """All keys, best block first, preserving within-block order."""
        return tuple(k for block in self.blocks for k in block)

    def rank_of(self, key: Key, omitted: Rank | None = None) -> Rank:
        """Rank of ``key``; ``omitted`` for absent keys (else KeyError)."""
        rank = self._rank_by_key.get(key)
        if rank is not None:
            return rank
        if omitted is not None:
            return omitted
        raise KeyError(key)

    def block_index_map(self) -> dict[Key, int]:
        """Key → dense block index, e.g. ``(1, 2, 2, 3)`` after tying the
        middle two keys of a four-key total order."""
        return dict(self._block_index_by_key)

    def relation(self, a: Key, b: Key) -> Relation:
        ranks = self._rank_by_key
        if a not in ranks or b not in ranks:
            return Relation.ABSENT
        if self._block_index_by_key[a] == self._block_index_by_key[b]:
            return Relation.TIED
        return Relation.PRECEDES if ranks[a] < ranks[b] else Relation.FOLLOWS

    def __len__(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __contains__(self, key: object) -> bool:
        return key in self._rank_by_key

    # -- identity -----------------------------------------------------------

    @cached_property
    def _canonical(self) -> tuple[frozenset[Key], ...]:
        return tuple(frozenset(b) for b in self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeakOrder):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:
        rendered = " < ".join("~".join(block) for block in self.blocks)
        return f"WeakOrder[{rendered}]"


# --------------------------------------------------------------------------- #
# Bias functions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class BiasFunction:
    """Per-key rational bias offsets with a declared feasible range.

    ``entries`` maps keys to bias values; keys without an entry take
    ``default``.  The range ``[lower, upper]`` is the set of bias values
    the analysis treats as possible; when not supplied it is computed
    from the stored values (and the default).  Explicit bounds must
    cover every stored entry but may deliberately exclude the default,
    which only applies to keys outside the analyzed universe.  Each value
    becomes a ``Fraction`` once; entries are range-checked as integers.
    """

    entries: Mapping[Key, Fraction]
    default: Fraction = Fraction(0)
    lower: Fraction | None = None
    upper: Fraction | None = None

    def __post_init__(self) -> None:
        entries = {k: as_fraction(v) for k, v in self.entries.items()}
        default = as_fraction(self.default)
        observed = [*entries.values(), default]
        lower = min(observed) if self.lower is None else as_fraction(self.lower)
        upper = max(observed) if self.upper is None else as_fraction(self.upper)
        if lower > upper:
            raise ConfigurationError(f"bias range is empty: [{lower}, {upper}]")
        (lo_n, lo_d), (up_n, up_d) = lower.as_integer_ratio(), upper.as_integer_ratio()
        for key, value in entries.items():
            n, d = value.numerator, value.denominator
            if n * lo_d < lo_n * d or n * up_d > up_n * d:
                raise ConfigurationError(
                    f"bias for {key!r} ({value}) outside range [{lower}, {upper}]"
                )
        if not entries and not lower <= default <= upper:
            raise ConfigurationError(
                f"default bias {default} outside range [{lower}, {upper}]"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def zero(cls) -> "BiasFunction":
        return cls(entries={})

    def __call__(self, key: Key) -> Fraction:
        return self.entries.get(key, self.default)

    def distinct_values(self, keys: Iterable[Key] | None = None) -> frozenset[Fraction]:
        """Distinct bias values over ``keys`` (default: stored entries,
        or just the default when nothing is stored)."""
        if keys is not None:
            return frozenset(self(k) for k in keys)
        if self.entries:
            return frozenset(self.entries.values())
        return frozenset((self.default,))

    def as_jsonable(self) -> dict[str, object]:
        return {
            "entries": {k: float(v) for k, v in sorted(self.entries.items())},
            "default": float(self.default),
            "lower": float(self.lower),
            "upper": float(self.upper),
        }

    @classmethod
    def from_jsonable(cls, data: object) -> "BiasFunction":
        if not isinstance(data, dict):
            raise ConfigurationError("bias must be an object")
        raw_entries = data.get("entries", {})
        if not isinstance(raw_entries, dict):
            raise ConfigurationError("bias entries must be an object")
        return cls(
            entries={str(k): v for k, v in raw_entries.items()},
            default=data.get("default", 0),
            lower=data.get("lower"),
            upper=data.get("upper"),
        )

    def __repr__(self) -> str:
        return (
            f"BiasFunction({len(self.entries)} entries, "
            f"range [{self.lower}, {self.upper}])"
        )


# --------------------------------------------------------------------------- #
# Attribute bias rules
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BiasRule:
    """One first-match rule: a conjunction of attribute = value tests."""

    conditions: tuple[tuple[str, object], ...]
    bias: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "bias", as_fraction(self.bias))

    def matches(self, attributes: dict[str, object]) -> bool:
        return all(attributes.get(name) == value for name, value in self.conditions)

    @classmethod
    def from_jsonable(cls, data: dict) -> "BiasRule":
        try:
            when = data.get("when", {})
            return cls(tuple(sorted(when.items())), as_fraction(data["bias"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(f"malformed bias rule: {exc}") from exc


@dataclass(frozen=True)
class BiasConfig:
    """Ordered bias rules plus a global scale factor."""

    rules: tuple[BiasRule, ...]
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "scale", as_fraction(self.scale))

    @classmethod
    def from_jsonable(cls, data: dict) -> "BiasConfig":
        rules = data.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ConfigurationError("bias rules must be a list")
        return cls(
            tuple(BiasRule.from_jsonable(r) for r in rules),
            as_fraction(data.get("scale", 1)),
        )


def assign_bias(config: BiasConfig, domain: RankDomain) -> BiasFunction:
    """Evaluate the rules over every rank-domain element.

    Each element takes the first matching rule's value times the
    configured scale, or an explicit zero when nothing matches.  The
    returned range bounds are tight: both are achieved by some element.
    """
    names = [attribute.name for attribute in domain.attributes]
    known = set(names)
    for rule in config.rules:
        for name, _ in rule.conditions:
            if name not in known:
                raise ConfigurationError(
                    f"bias rule references unknown attribute {name!r}"
                )
    entries: dict[str, Fraction] = {}
    for key, element in zip(domain.keys(), domain.elements):
        attributes = dict(zip(names, element))
        value = Fraction(0)
        for rule in config.rules:
            if rule.matches(attributes):
                value = rule.bias * config.scale
                break
        entries[key] = value
    return BiasFunction(
        entries,
        lower=min(entries.values()),
        upper=max(entries.values()),
    )
