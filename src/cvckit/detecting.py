"""Detecting families: subset collections whose sums pin down any function
from the universe into {0, ..., d-1}.

The hardness reduction over the natural parameter only needs the property
itself, which is cheap to verify exhaustively at desk scale; the size of
the family is not a goal here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .core import CapExceededError, GraphFormatError, _content_lines

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
    subset sums.  Exhaustive, guarded by the cap on d^(2|U|)."""
    if d < 1 or universe_size < 0:
        raise ValueError("need d >= 1 and a non-negative universe")
    if d ** (2 * universe_size) > check_cap:
        raise CapExceededError("detecting-family check too large for the configured cap")
    sets = [sorted(set(s)) for s in family]
    outside = [x for s in sets for x in s if not 1 <= x <= universe_size]
    if outside:
        raise GraphFormatError(f"index {outside[0]} outside universe 1..{universe_size}")
    seen: set[tuple[int, ...]] = set()
    for values in product(range(d), repeat=universe_size):
        sig = tuple(sum(values[x - 1] for x in s) for s in sets)
        if sig in seen:
            return False
        seen.add(sig)
    return True


def build_family(universe_size: int, d: int, mode: str = "singleton") -> DetectingFamily:
    """Construct a verified detecting family.

    singleton: one set per element (sums reveal each value directly).
    greedy: start from the singletons, drop every set whose removal keeps
    the property, then try pairwise merges; never larger than the
    singleton family and always re-verified.
    """
    singletons = [frozenset({x}) for x in range(1, universe_size + 1)]
    if mode == "singleton":
        return DetectingFamily(universe_size, d, tuple(singletons))
    if mode != "greedy":
        raise ValueError(f"unknown mode '{mode}'")
    family = list(singletons)
    kept: list[frozenset[int]] = []
    for i in range(len(family)):
        trial = kept + family[i + 1 :]
        if is_detecting(universe_size, trial, d):
            continue
        kept.append(family[i])
    family = kept
    merged = True
    while merged:
        merged = False
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                trial = [s for t, s in enumerate(family) if t not in (i, j)]
                trial.append(family[i] | family[j])
                if is_detecting(universe_size, trial, d):
                    family = sorted(trial, key=sorted)
                    merged = True
                    break
            if merged:
                break
    result = DetectingFamily(universe_size, d, tuple(family))
    assert is_detecting(universe_size, result.sets, d)
    return result


def parse_family(text: str) -> tuple[frozenset[int], ...]:
    sets = []
    for lineno, parts in _content_lines(text):
        try:
            sets.append(frozenset(int(x) for x in parts))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer index") from None
    return tuple(sets)


def format_family(family: DetectingFamily) -> str:
    return "\n".join(" ".join(map(str, sorted(s))) for s in family.sets) + "\n"
