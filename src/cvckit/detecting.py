"""Detecting families: subset collections whose sums pin down any function
from the universe into {0, ..., d-1}.

The hardness reduction over the natural parameter only needs the property
itself.  The family built here is the singletons, whose sums read each
value directly; the size of the family is not a goal here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .core import CapExceededError, GraphFormatError, _content_lines, _ints

DEFAULT_CHECK_CAP = 10**8


@dataclass(frozen=True)
class DetectingFamily:
    universe_size: int
    d: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for s in self.sets:
            for x in s:
                if not 1 <= x <= self.universe_size:
                    raise GraphFormatError(f"index {x} outside universe 1..{self.universe_size}")


def is_detecting(
    universe_size: int,
    family: Sequence[Iterable[int]],
    d: int,
    *,
    check_cap: int = DEFAULT_CHECK_CAP,
) -> bool:
    """True iff the vector of subset sums determines every function
    universe -> {0..d-1}; equivalently, no two distinct functions share all
    subset sums.  A family holding {x} for every x detects, since its sum
    is f(x).  Any other family must pass the cap on d^(2|U|); then it
    detects at d = 1, and for d >= 2 it is enumerated."""
    if d < 1 or universe_size < 0:
        raise ValueError("need d >= 1 and a non-negative universe")
    sets = [sorted(set(s)) for s in family]
    outside = [x for s in sets for x in s if not 1 <= x <= universe_size]
    if outside:
        raise GraphFormatError(f"index {outside[0]} outside universe 1..{universe_size}")
    if len({s[0] for s in sets if len(s) == 1}) == universe_size:  # every index is in 1..u
        return True
    # d^(2U) > cap, without building d^(2U): for d >= 2, d^b > cap at b = cap.bit_length()
    if d ** min(2 * universe_size, check_cap.bit_length()) > check_cap:
        raise CapExceededError("detecting-family check too large for the configured cap")
    if d == 1:  # only the zero function exists; enumerating it would build a u-tuple
        return True
    seen: set[tuple[int, ...]] = set()
    for values in product(range(d), repeat=universe_size):
        sig = tuple(sum(values[x - 1] for x in s) for s in sets)
        if sig in seen:
            return False
        seen.add(sig)
    return True


def build_family(universe_size: int, d: int, mode: str = "singleton") -> DetectingFamily:
    """Construct a detecting family: one set {x} per element.

    greedy: the family reached from the singletons by dropping one set or
    merging two while the property holds.  For d >= 2 neither move keeps
    it: without {x}, two functions that differ only at x share every sum;
    with {a, b} in place of {a} and {b}, swapping the values 0 and 1
    between a and b keeps every sum.  So greedy is the singleton family
    too, except at d = 1, where every family detects and it has no set.
    """
    if mode not in ("singleton", "greedy"):
        raise ValueError(f"unknown mode '{mode}'")
    sets = tuple(frozenset({x}) for x in range(1, universe_size + 1))
    if mode == "greedy":
        if d < 1 or universe_size < 0:
            raise ValueError("need d >= 1 and a non-negative universe")
        if d == 1:
            sets = ()
    return DetectingFamily(universe_size, d, sets)


def parse_family(text: str) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(_ints(parts, lineno, "index")) for lineno, parts in _content_lines(text))


def format_family(family: DetectingFamily) -> str:
    return "\n".join(" ".join(map(str, sorted(s))) for s in family.sets) + "\n"
