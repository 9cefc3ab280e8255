"""Weak orders, bias functions, and the error hierarchy.

This module holds the small set of domain types every analysis in the
package shares: weak orders (ranked lists with ties) over opaque tuple
keys, and bias functions mapping keys to exact rational offsets.  The
config's attribute form (``attributes`` plus ``bias_rules``) is read by
``cli.load_config``, which turns it into a universe size and a
``BiasFunction``.

Conventions
-----------
* Ranks are 1-based.  A tie block occupying list positions ``i..j``
  assigns rank ``i`` to every member (the position of the block's first
  member), so a weak order without ties ranks its keys ``1..n`` exactly.
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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

__all__ = [
    "BiasFunction",
    "ConfigurationError",
    "DomainError",
    "InfeasibleQueryError",
    "Key",
    "QueryAnalysisError",
    "Rank",
    "SearchBudgetError",
    "WeakOrder",
    "as_fraction",
]

# Opaque identifier for a ranked tuple.
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
# Weak orders
# --------------------------------------------------------------------------- #


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
