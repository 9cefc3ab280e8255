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
* A bias value is held as an ``int`` when integral, else as a reduced
  ``fractions.Fraction``.  Callers may pass ints, ``Decimal``s (``cli``'s
  JSON numbers), decimal strings, Fractions or floats; floats convert to
  their exact binary value, the rest to the decimal they spell.

Everything here is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
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


# Largest decimal exponent ``as_fraction`` expands, and most digits it
# reads from a ``Decimal``: CPython's default int/str digit limit, which
# ``json`` applies to integers.  ``Fraction("1e10000000")`` takes seconds.
_MAX_EXPONENT = 4300


def _as_written(value: object) -> str:
    """``value`` for an error message: a ``Decimal`` as JSON spells it."""
    return str(value) if type(value) is Decimal else repr(value)


def as_fraction(value: int | float | str | Decimal | Fraction) -> Fraction:
    """Convert ``value`` to an exact ``Fraction``.

    Decimal strings such as ``"0.1"`` and ``Decimal``s become exact
    decimals; floats convert to their exact binary expansion.  Booleans,
    decimals whose exponent exceeds ``±4300`` and ``Decimal``s of more
    than 4300 digits are rejected.
    """
    if type(value) is int:  # the common JSON case: nothing to check
        return Fraction(value)
    if type(value) is Fraction:
        return value
    # ``str`` holds every digit and costs a seventh of ``as_tuple``.
    if type(value) is Decimal and len(str(value)) > _MAX_EXPONENT:
        if len(value.as_tuple().digits) > _MAX_EXPONENT:
            raise ConfigurationError(f"a number of more than {_MAX_EXPONENT} digits")
    try:
        if type(value) is Decimal:  # a JSON number with a fraction or an exponent
            if abs(value.adjusted()) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond ±{_MAX_EXPONENT}")
            return Fraction(*value.as_integer_ratio())
        if type(value) is float:  # exact, without ``Fraction``'s ABC checks
            return Fraction(*value.as_integer_ratio())
        if isinstance(value, bool):
            raise TypeError("a boolean is not a rational value")
        if isinstance(value, str):
            _, marker, exponent = value.upper().partition("E")
            if marker and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond ±{_MAX_EXPONENT}")
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(f"not a rational value: {_as_written(value)}") from exc


def _exact(value: int | float | str | Decimal | Fraction) -> int | Fraction:
    """``as_fraction(value)``, as an ``int`` when integral: bias values' form."""
    value = value if type(value) is int else as_fraction(value)
    return value.numerator if value.denominator == 1 else value


def _over_common_denominator(
    values: Iterable[int | Fraction],
) -> tuple[list[int], int]:
    """``values`` over their least common denominator: (numerators, denominator)."""
    ratios = [value.as_integer_ratio() for value in values]
    denominator = lcm(*(d for _, d in ratios))
    return [n * (denominator // d) for n, d in ratios], denominator


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
        if type(self.blocks) is not tuple or {*map(type, self.blocks)} - {tuple}:
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
        # Checked in bulk; a defect or a subclass falls through to the scan.
        if {*map(type, data)} <= {list, tuple}:
            data = tuple(map(tuple, data))
            keys = [*chain.from_iterable(data)]
            if {*map(type, keys)} <= {str} and all(data) and len({*keys}) == len(keys):
                return cls(data)
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
        return tuple(chain.from_iterable(self.blocks))

    def rank_of(self, key: Key) -> Rank:
        """Rank of ``key`` (KeyError when absent)."""
        return self._rank_by_key[key]

    def __len__(self) -> int:
        return sum(len(b) for b in self.blocks)

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
    is converted once, to an ``int`` when integral and else to a reduced
    ``Fraction``; ``min``/``max`` and one pass over the Fractions find extremes.
    """

    entries: Mapping[Key, int | Fraction]
    default: int | Fraction = 0
    lower: int | Fraction | None = None
    upper: int | Fraction | None = None

    def __post_init__(self) -> None:
        if {*map(type, self.entries.values())} <= {int}:  # all ints: copied as they are
            entries = dict(self.entries)
            fractions: list[Fraction] = []
            integers = entries.values()
        else:
            entries = {
                k: v if type(v) is int else _exact(v) for k, v in self.entries.items()
            }
            values = entries.values()
            fractions = [v for v in values if type(v) is not int]
            integers = [v for v in values if type(v) is int] if fractions else values
        default = _exact(self.default)
        low = min(integers, default=next(iter(fractions), default))
        high = max(integers, default=low)
        (lo_n, lo_d), (up_n, up_d) = low.as_integer_ratio(), high.as_integer_ratio()
        for value in fractions:
            n, d = value.as_integer_ratio()
            if n * lo_d < lo_n * d:
                low, lo_n, lo_d = value, n, d
            elif n * up_d > up_n * d:
                high, up_n, up_d = value, n, d
        lower = min(low, default) if self.lower is None else _exact(self.lower)
        upper = max(high, default) if self.upper is None else _exact(self.upper)
        if lower > upper:
            raise ConfigurationError(f"bias range is empty: [{lower}, {upper}]")
        if entries and not lower <= low <= high <= upper:
            key = next(k for k, v in entries.items() if not lower <= v <= upper)
            raise ConfigurationError(
                f"bias for {key!r} ({entries[key]}) outside range [{lower}, {upper}]"
            )
        if not entries and not lower <= default <= upper:
            raise ConfigurationError(
                f"default bias {default} outside range [{lower}, {upper}]"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __call__(self, key: Key) -> int | Fraction:
        return self.entries.get(key, self.default)

    def distinct_values(
        self, keys: Iterable[Key] | None = None
    ) -> frozenset[int | Fraction]:
        """Distinct bias values over ``keys`` (default: stored entries,
        or just the default when nothing is stored)."""
        if keys is not None:
            return frozenset(self(k) for k in keys)
        if self.entries:
            return frozenset(self.entries.values())
        return frozenset((self.default,))

    def __repr__(self) -> str:
        return (
            f"BiasFunction({len(self.entries)} entries, "
            f"range [{self.lower}, {self.upper}])"
        )
