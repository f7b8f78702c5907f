"""Polynomial set families: generation, verification, trimming."""

import hashlib
import json
import pathlib
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest
from conftest import (
    pairwise_first_overlap,
    s0_checks_oracle,
    scalar_family_sets,
    verify_family_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersens import families
from hypersens.errors import BadParameter
from hypersens.families import (
    MAX_UNIVERSE,
    FamilyCheck,
    SetFamily,
    first_overlap,
    generate_family,
    trim_sets,
    verify_family,
)
from hypersens.gf import make_field, prime_power
from hypersens.witnesses import build_s0_witness


def test_two_constant_polynomials_over_gf2():
    fam = generate_family(make_field(2, 1), 1, 1)
    assert fam.sets == ((1, 2), (3, 4))
    assert not set(fam.sets[0]) & set(fam.sets[1])


def test_gf3_family_brute_force_pair_check():
    fam = generate_family(make_field(3, 1), 2, 1)
    assert len(fam.sets) == 9
    for s in fam.sets:
        assert len(s) == 3 and all(1 <= e <= 9 for e in s)
    for a, b in combinations(fam.sets, 2):
        assert len(set(a) & set(b)) <= 1


@pytest.mark.parametrize(
    "p,m,d,ell",
    [
        (2, 1, 1, 1),
        (3, 1, 2, 1),
        (2, 2, 2, 1),
        (5, 1, 2, 1),
        (3, 1, 2, 2),
        (2, 1, 2, 3),
        (3, 1, 3, 2),  # 729 sets
        (7, 1, 2, 1),
    ],
)
def test_family_size_is_q_to_d_ell(p, m, d, ell):
    field = make_field(p, m)
    fam = generate_family(field, d, ell)
    assert len(fam.sets) == field.order ** (d * ell)
    assert verify_family(fam).ok
    # distinct polynomial tuples yield distinct sets
    assert len(set(fam.sets)) == len(fam.sets)


_FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27, 256)
# members the scalar oracle encodes in one example
_ORACLE_MEMBERS = 1 << 12


@settings(deadline=None)
@given(st.data())
def test_generate_family_matches_scalar_oracle(data):
    q = data.draw(st.sampled_from(_FIELD_ORDERS), label="q")
    d = data.draw(st.integers(1, min(q, 3)), label="d")
    ell = data.draw(
        st.integers(1, 3).filter(lambda e: q ** (e + 1) <= MAX_UNIVERSE), label="ell"
    )
    total = q ** (d * ell)
    most = min(total, _ORACLE_MEMBERS // q)
    limits = st.sampled_from([0, 1]) | st.integers(0, most)
    if total <= most:
        limits |= st.none()
    limit = data.draw(limits, label="limit")
    field = make_field(*prime_power(q))
    fam = generate_family(field, d, ell, limit)
    assert fam.sets == scalar_family_sets(field, d, ell, limit)
    assert all(type(e) is int for s in fam.sets for e in s)


def test_limit_yields_a_deterministic_prefix():
    field = make_field(3, 1)
    full = generate_family(field, 2, 1)
    part = generate_family(field, 2, 1, limit=4)
    assert part.sets == full.sets[:4]
    # a limit beyond the family size is a harmless cap
    assert generate_family(field, 2, 1, limit=500).sets == full.sets


def test_verify_flags_duplicates_and_sizes():
    fam = generate_family(make_field(3, 1), 2, 1)
    dup = replace(fam, sets=fam.sets + (fam.sets[0],))
    check = verify_family(dup)
    assert not check.ok
    assert check.violation == f"sets #0 and #{len(fam.sets)} intersect in 3 >= d = 2"
    short = replace(fam, sets=(fam.sets[0][:2],) + fam.sets[1:])
    check = verify_family(short)
    assert not check.ok and "size" in check.violation


def test_verify_checks_every_element_of_an_unsorted_set():
    # 42 is neither the first nor the last element of set #0
    fam = SetFamily(
        q=3, d=1, ell=1, universe=9, sets=((1, 42, 2), (4, 5, 6)), set_size=3
    )
    assert verify_family(fam) == FamilyCheck(False, "set #0 leaves [1, 9]")


_CHECK_CASES = {
    "valid": ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    "ragged-sizes": ((1, 2, 3), (4, 5), (6, 7, 8)),
    "out-of-range-vertex": ((1, 2, 3), (4, 5, 6), (7, 8, 12)),
    "repeated-vertex": ((1, 2, 3), (4, 4, 5)),
    "unsorted-set": ((3, 1, 2), (6, 42, 5)),
    "planted-overlap": ((1, 2, 3), (4, 5, 6), (7, 8, 2)),
    # a short set before an out-of-range one: the family check names the
    # size, the witness check every range first
    "short-then-outside": ((1, 2), (3, 4, 42)),
    "below-one": ((0, 1, 2), (3, 4, 5)),
}


@pytest.mark.parametrize("sets", _CHECK_CASES.values(), ids=_CHECK_CASES.keys())
def test_incidence_checks_match_the_per_set_oracles(sets):
    fam = SetFamily(q=3, d=1, ell=1, universe=9, sets=sets, set_size=3)
    assert verify_family(fam) == verify_family_oracle(fam)
    try:
        s0_checks_oracle(sets, 10, 1, 3)
    except BadParameter as error:
        with pytest.raises(BadParameter) as raised:
            build_s0_witness(sets, 10, 2, 1, 3)
        assert str(raised.value) == str(error)
    else:
        assert build_s0_witness(sets, 10, 2, 1, 3)[1] == len(sets)


@settings(deadline=None)
@given(
    sets=st.lists(st.lists(st.integers(-1, 12), max_size=4), max_size=8),
    d=st.integers(0, 3),
    i=st.integers(0, 3),
)
def test_checks_match_the_per_set_oracles(sets, d, i):
    sets = tuple(map(tuple, sets))
    fam = SetFamily(q=3, d=d, ell=1, universe=9, sets=sets, set_size=3)
    assert verify_family(fam) == verify_family_oracle(fam)
    try:
        s0_checks_oracle(sets, 10, i, 3)
    except BadParameter as error:
        with pytest.raises(BadParameter, match=re.escape(str(error))):
            build_s0_witness(sets, 10, 2, i, 3)
    else:
        assert build_s0_witness(sets, 10, 2, i, 3)[1] == len(sets)


def test_verify_names_the_first_pair_by_a_then_b():
    # #1/#2 is the first offending pair met when scanning by the later set,
    # but #0/#3 comes first in (a, b) order
    fam = SetFamily(
        q=4,
        d=1,
        ell=1,
        universe=16,
        sets=((1, 2, 3), (4, 5, 6), (4, 7, 8), (1, 9, 10)),
        set_size=3,
    )
    check = verify_family(fam)
    assert not check.ok
    assert check.violation == "sets #0 and #3 intersect in 1 >= d = 1"


_SETS = st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=12)


@given(sets=_SETS, bound=st.integers(-1, 6))
@example(sets=[], bound=0)
@example(sets=[], bound=1)
@example(sets=[[1, 2, 3]], bound=0)
@example(sets=[[1, 2, 3]], bound=1)
@example(sets=[[1, 2], [3, 4], [5, 6]], bound=0)  # disjoint: only bound <= 0 hits
@example(sets=[[1, 2], [3, 4], [5, 6]], bound=1)
@example(sets=[[1, 2, 3], [4, 5, 6], [1, 2, 3]], bound=3)  # duplicate sets
@example(sets=[[1, 2, 3], [4, 5, 6], [1, 2, 3]], bound=4)
@example(sets=[[1, 1, 2], [1, 2, 2]], bound=2)  # repeats count once
@example(sets=[[0, 1, 2], [3, 4, 5], [3, 6, 7], [0, 8, 9]], bound=1)
# many small sets over a tiny universe: the bound-subset index
@example(sets=[list(p) for p in combinations(range(5), 2)] * 2, bound=2)
@example(sets=[list(p) for p in combinations(range(6), 3)], bound=2)
@example(sets=[list(p) for p in combinations(range(6), 3)], bound=3)
# a few large sets: the element-holder index
@example(sets=[list(range(0, 40)), list(range(38, 80)), list(range(79, 120))], bound=2)
@example(sets=[list(range(0, 40)), list(range(40, 80)), list(range(1, 121, 3))], bound=3)
# bound-subsets too widely spread for one int64 sort key: a lexsort
@example(sets=[[e << 40 for e in p] for p in combinations(range(6), 3)], bound=2)
@example(sets=[[e << 40 for e in p] for p in combinations(range(6), 3)], bound=3)
def test_first_overlap_matches_pairwise_oracle(sets, bound):
    assert first_overlap(sets, bound) == pairwise_first_overlap(sets, bound)


def test_set_elements_must_share_an_int64_key_with_the_set_index():
    with pytest.raises(BadParameter, match="set elements must fit in int64"):
        first_overlap([[1, 2**63]], 1)
    # 2 sets times a span of 2^62 + 1 values reach 2^63
    too_wide = r"the elements of 2 sets span 4611686018427387905 values"
    with pytest.raises(BadParameter, match=too_wide):
        first_overlap([[0], [2**62]], 1)
    assert first_overlap([[0], [2**61], [0, 2**61]], 1) == (0, 2, 1)


@settings(deadline=None)
@given(sets=_SETS, bound=st.integers(1, 6), cap=st.integers(1, 12))
def test_holder_slabs_match_pairwise_oracle(sets, bound, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_PAIR_SLAB", cap)
        assert first_overlap(sets, bound) == pairwise_first_overlap(sets, bound)


def test_holder_slabs_find_a_smaller_a_in_a_later_slab(monkeypatch):
    # with one pair a slab, (1, 3) is found in the slab of b = 3 and the
    # first pair (0, 5) only in the later slab of b = 5
    sets = [[0, 9], [1, 2], [3, 4], [1, 2], [5, 6], [0, 9]]
    monkeypatch.setattr(families, "_PAIR_SLAB", 1)
    monkeypatch.setattr(families, "_first_overlap_by_subsets", None)
    assert first_overlap(sets, 2) == (0, 5, 2) == pairwise_first_overlap(sets, 2)


def test_holder_slabs_bound_the_peak_memory():
    # the full GF(32), d = 2 family: 1,024 sets of 32 elements, each element
    # held by 32 sets, so the holders index makes 1,024 * C(32, 2) = 507,904
    # pairs; made in one pass they peak at about 9.6 MB, in slabs at 4.1 MB
    fam = generate_family(make_field(2, 5), 2, 1)
    tracemalloc.start()
    try:
        check = verify_family(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.ok
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "sets,bound,index",
    [
        ([list(p) for p in combinations(range(6), 3)], 2, "subsets"),
        ([list(range(0, 40)), list(range(38, 80)), list(range(79, 120))], 2, "holders"),
        (trim_sets(generate_family(make_field(2, 2), 2, 3), 4).sets, 2, "subsets"),
        (generate_family(make_field(2, 8), 2, 1, 150).sets, 2, "holders"),
    ],
    ids=["triples-of-6", "three-runs", "gf4-witness-family", "gf256-prefix"],
)
def test_first_overlap_builds_the_cheaper_index(monkeypatch, sets, bound, index):
    built = []
    for name in ("holders", "subsets"):
        inner = getattr(families, f"_first_overlap_by_{name}")
        monkeypatch.setattr(
            families,
            f"_first_overlap_by_{name}",
            lambda *args, name=name, inner=inner: built.append(name) or inner(*args),
        )
    assert first_overlap(sets, bound) == pairwise_first_overlap(sets, bound)
    assert built == [index]


def test_first_overlap_finds_a_planted_late_overlap():
    # a 600-set prefix of the v = 300, k = 3 witness family, where no two
    # sets share 2 elements, then set #598 planted with 2 elements of #417
    sets = list(trim_sets(generate_family(make_field(2, 2), 2, 3), 4).sets[:600])
    assert first_overlap(sets, 2) is None
    fresh = [e for e in sets[598] if e not in sets[417]]
    sets[598] = tuple(sorted(sets[417][:2] + tuple(fresh[:2])))
    found = first_overlap(sets, 2)
    assert found is not None and found[1] == 598
    assert found == pairwise_first_overlap(sets, 2)


def test_first_overlap_matches_oracle_on_generated_families():
    field = make_field(5, 1)
    for d in (1, 2, 3):
        fam = generate_family(field, d, 1, limit=60)
        for sets in (fam.sets, trim_sets(fam, 3).sets, fam.sets + fam.sets[:1]):
            for bound in range(0, 7):
                assert first_overlap(sets, bound) == pairwise_first_overlap(
                    sets, bound
                )


def test_verify_flags_count_overflow():
    # five distinct pairs obey the d = 2 intersection bound but 5 > q^(d*ell) = 4
    crowded = SetFamily(
        q=2,
        d=2,
        ell=1,
        universe=4,
        sets=((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
        set_size=2,
    )
    check = verify_family(crowded)
    assert not check.ok and "exceeds" in check.violation


def test_trim_keeps_smallest_elements():
    fam = generate_family(make_field(5, 1), 2, 1)
    trimmed = trim_sets(fam, 3)
    assert all(len(s) == 3 for s in trimmed.sets)
    assert verify_family(trimmed).ok
    for before, after in zip(fam.sets, trimmed.sets):
        assert after == before[:3]
    assert trim_sets(fam, 5).sets == fam.sets  # target == q is a no-op
    with pytest.raises(BadParameter, match="target 6 exceeds set size 5"):
        trim_sets(fam, 6)
    assert trim_sets(fam, 0).sets == ((),) * len(fam.sets)
    with pytest.raises(BadParameter, match="need target >= 0, got -1"):
        trim_sets(fam, -1)


def test_trim_never_increases_intersections():
    fam = generate_family(make_field(2, 2), 2, 1)
    base = {
        (a, b): len(set(fam.sets[a]) & set(fam.sets[b]))
        for a, b in combinations(range(len(fam.sets)), 2)
    }
    for target in (3, 2):
        trimmed = trim_sets(fam, target)
        for (a, b), inter in base.items():
            assert len(set(trimmed.sets[a]) & set(trimmed.sets[b])) <= inter


def test_parameter_validation():
    field = make_field(3, 1)
    with pytest.raises(BadParameter, match="need 1 <= d <= q, got d=0, q=3"):
        generate_family(field, 0, 1)
    with pytest.raises(BadParameter, match="need 1 <= d <= q, got d=4, q=3"):
        generate_family(field, 4, 1)
    with pytest.raises(BadParameter, match="need ell >= 1, got 0"):
        generate_family(field, 2, 0)
    with pytest.raises(BadParameter, match=r"universe 1024\^4 exceeds"):
        generate_family(make_field(2, 10), 1, 3)  # 2^40 universe


_GOLDEN_FAMILIES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "families.json").read_text()
)


@pytest.mark.parametrize("call", sorted(_GOLDEN_FAMILIES))
def test_family_digest_is_golden(call):
    """Set digests of small families over prime and extension fields up to
    GF(256), pinned from the coefficient-vector arithmetic."""
    q, d, ell, limit = map(int, re.findall(r"\d+", call))
    fam = generate_family(make_field(*prime_power(q)), d, ell, limit)
    blob = json.dumps([list(s) for s in fam.sets]).encode()
    assert {
        "sets": len(fam.sets),
        "sha256": hashlib.sha256(blob).hexdigest(),
    } == _GOLDEN_FAMILIES[call]
