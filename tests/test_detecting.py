import random
import tracemalloc
from itertools import product

import pytest

from cvckit.core import CapExceededError, GraphFormatError
from cvckit.detecting import (
    DetectingFamily,
    build_family,
    format_family,
    is_detecting,
    parse_family,
)


def test_two_singletons_detect():
    assert is_detecting(2, [{1}, {2}], 2)


def test_index_outside_universe_is_a_format_error():
    for index in (0, 2, -1):
        with pytest.raises(GraphFormatError, match=f"index {index} outside universe 1..1"):
            is_detecting(1, [{index}], 2)


def test_single_pair_fails():
    # f=(1,0) and g=(0,1) share the sum over {1,2}
    assert not is_detecting(2, [{1, 2}], 2)


def test_all_singletons_always_detect():
    for u in range(1, 5):
        for d in range(2, 5):
            assert is_detecting(u, [{x} for x in range(1, u + 1)], d)


def test_is_detecting_matches_pairwise_definition():
    # cross-check the signature-set implementation against the literal
    # two-function definition on tiny universes
    for u, d in [(2, 2), (3, 2), (2, 3)]:
        for mask in range(1, 2 ** (2**u - 1)):
            subsets = [
                frozenset(x + 1 for x in range(u) if (s >> x) & 1)
                for s in range(1, 2**u)
            ]
            family = [subsets[i] for i in range(len(subsets)) if (mask >> i) & 1]
            expected = True
            funcs = list(product(range(d), repeat=u))
            for i in range(len(funcs)):
                for j in range(i + 1, len(funcs)):
                    if all(
                        sum(funcs[i][x - 1] for x in s) == sum(funcs[j][x - 1] for x in s)
                        for s in family
                    ):
                        expected = False
            assert is_detecting(u, family, d) == expected


def test_cap_refusal():
    with pytest.raises(CapExceededError):
        is_detecting(30, [{1}], 4, check_cap=10**6)


def test_build_singleton_mode():
    fam = build_family(3, 2, "singleton")
    assert fam.sets == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_build_universe_one():
    for mode in ("singleton", "greedy"):
        fam = build_family(1, 4, mode)
        assert fam.sets == (frozenset({1}),)


def test_greedy_verified_and_no_larger():
    for u in range(1, 5):
        for d in range(2, 5):
            greedy = build_family(u, d, "greedy")
            single = build_family(u, d, "singleton")
            assert len(greedy.sets) <= len(single.sets)
            assert is_detecting(u, greedy.sets, d)


def test_greedy_output_is_removal_minimal():
    for u in range(1, 4):
        for d in (2, 4):
            fam = build_family(u, d, "greedy")
            for i in range(len(fam.sets)):
                reduced = [s for t, s in enumerate(fam.sets) if t != i]
                assert not is_detecting(u, reduced, d)


def test_family_file_roundtrip():
    fam = DetectingFamily(3, 4, (frozenset({1}), frozenset({2, 3})))
    assert parse_family(format_family(fam)) == fam.sets


def test_greedy_is_the_singleton_family():
    # no drop or merge keeps the property at d >= 2, so greedy never shrinks
    # the singletons, also where an exhaustive check is above the cap
    for u in range(13):
        for d in range(2, 5):
            assert build_family(u, d, "greedy") == build_family(u, d, "singleton")
        assert build_family(u, 1, "greedy").sets == ()


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown mode"):
        build_family(3, 2, "compact")
    for u, d in [(3, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="need d >= 1"):
            build_family(u, d, "greedy")


def _enumerated(u, family, d):
    sums = {tuple(sum(f[x - 1] for x in s) for s in family) for f in product(range(d), repeat=u)}
    return len(sums) == d**u


def test_is_detecting_matches_enumeration_on_random_families():
    rng = random.Random(13)
    for _ in range(300):
        u, d = rng.randint(1, 5), rng.randint(1, 3)
        family = [{x for x in range(1, u + 1) if rng.random() < 0.5} for _ in range(rng.randint(0, u + 1))]
        if rng.random() < 0.5:
            family += [{x} for x in range(1, u + 1)]
            rng.shuffle(family)
        assert is_detecting(u, family, d) == _enumerated(u, family, d)


def test_singleton_family_detects_above_the_cap():
    family = [{x} for x in range(30, 0, -1)] + [{1, 2}]
    assert is_detecting(30, family, 4, check_cap=10**6)
    with pytest.raises(CapExceededError):
        is_detecting(30, family[1:], 4, check_cap=10**6)


def test_cap_refusal_does_not_build_the_power():
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            is_detecting(10**7, [{1}], 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_cap_refuses_exactly_when_the_power_exceeds_it():
    family = [set()]  # no singleton, so the cap applies
    for universe, d, cap in product(range(1, 5), range(1, 5), (-1, 0, 1, 15, 16, 17, 4095, 4096, 10**8)):
        if d ** (2 * universe) > cap:
            with pytest.raises(CapExceededError):
                is_detecting(universe, family, d, check_cap=cap)
        else:
            assert is_detecting(universe, family, d, check_cap=cap) == (d == 1)
