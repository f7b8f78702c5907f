"""Bitset hypergraphs, colex ranking and boundary counts."""

import math
from itertools import combinations

import numpy as np
import pytest
from conftest import (
    ascending_bits_oracle,
    or_ranks_oracle,
    relabel_oracle,
    subset_table,
)
from hypothesis import given
from hypothesis import strategies as st

from hypersens import hypergraphs
from hypersens.errors import BadParameter, TooLarge
from hypersens.hypergraphs import (
    Hypergraph,
    bits_of_ranks,
    boundary_count,
    colex_ranks,
    degrees,
    edge_permutation,
    edges_of_bits,
    rank_subset,
    ranks_of_bits,
    unrank_subset,
)
from hypersens.rng import SplitMix64


def test_rank_examples():
    assert rank_subset({0, 1}, 2) == 0
    assert rank_subset({0, 2}, 2) == 1
    assert rank_subset({1, 2}, 2) == 2


@pytest.mark.parametrize("v,k", [(v, k) for v in range(2, 13) for k in range(1, 5) if k <= v])
def test_rank_bijection_exhaustive(v, k):
    ranks = [rank_subset(s, k) for s in combinations(range(v), k)]
    assert sorted(ranks) == list(range(math.comb(v, k)))
    for r in range(math.comb(v, k)):
        assert rank_subset(unrank_subset(r, v, k), k) == r


@pytest.mark.parametrize("v", range(1, 13))
def test_subset_table_is_colex_order(v):
    for k in range(1, v + 1):
        subs, ranks = subset_table(v, k)
        assert subs == tuple(unrank_subset(r, v, k) for r in range(math.comb(v, k)))
        assert all(ranks[s] == r for r, s in enumerate(subs))


@given(st.sets(st.integers(min_value=0, max_value=40), min_size=3, max_size=3))
def test_unrank_inverts_rank(S):
    r = rank_subset(S, 3)
    assert set(unrank_subset(r, 41, 3)) == S


def test_rank_validation():
    with pytest.raises(BadParameter, match="expected a 2-subset, got 3 vertices"):
        rank_subset({0, 1, 2}, 2)
    with pytest.raises(BadParameter, match=r"negative vertex in \[-1, 2\]"):
        rank_subset([-1, 2], 2)
    with pytest.raises(BadParameter, match=r"repeated vertex in \[2, 2\]"):
        rank_subset([2, 2], 2)
    with pytest.raises(BadParameter, match=r"rank 10 outside \[0, C\(5,2\)\)"):
        unrank_subset(10, 5, 2)


@given(st.lists(st.integers(0, (1 << 20) - 1), max_size=40))
def test_bits_of_ranks_matches_or_oracle(ranks):
    assert bits_of_ranks(ranks) == or_ranks_oracle(ranks)


def test_bits_of_ranks_cases():
    big = 1 << 18
    for ranks in ([], [0], [7, 8], [9, 3, 3, 0], [5, 5, 5], [big, 3, big + 9, big],
                  [big << 4]):
        assert bits_of_ranks(ranks) == or_ranks_oracle(ranks)
    assert bits_of_ranks(iter([300_000, 2])) == (1 << 300_000) | 4
    with pytest.raises(BadParameter, match="negative edge id -1"):
        bits_of_ranks([3, -1])


# widths on both sides of the codec's one-bit loop, up to past 2^22 bits,
# and a lone set bit in the last, partial, 64-bit word of a wide int
_CODEC_WIDTHS = [20, 1 << 12, (1 << 21) + 5, (1 << 22) + 63]
_codec_ranks = st.sampled_from(_CODEC_WIDTHS).flatmap(
    lambda width: st.lists(st.integers(0, width), max_size=80)
) | st.sampled_from(_CODEC_WIDTHS[2:]).flatmap(
    lambda width: st.lists(st.integers(width & ~63, width), min_size=1, max_size=1)
)


@given(_codec_ranks)
def test_ranks_of_bits_matches_oracle_and_round_trips(ranks):
    bits = or_ranks_oracle(ranks)
    assert ranks_of_bits(bits) == ascending_bits_oracle(bits)
    assert bits_of_ranks(ranks_of_bits(bits)) == bits


def test_ranks_of_bits_cases():
    wide = (1 << 20) + 3
    assert ranks_of_bits(0) == []
    assert ranks_of_bits(1 << wide) == [wide]
    # 512 set bits of width 512 is the most work the codec does bit by bit
    for width in (1, 512, 513, wide):
        assert ranks_of_bits((1 << width) - 1) == list(range(width))
    with pytest.raises(BadParameter, match="a bitset must not be negative"):
        ranks_of_bits(-1)


# every C(v, k) here is past the decode dict's 2^18 slots
@pytest.mark.parametrize("v,k", [(120, 3), (300, 3), (60, 4), (40, 5), (800, 2)])
@given(data=st.data())
def test_edges_of_bits_unranks_each_rank_past_the_table(v, k, data):
    ranks = data.draw(st.lists(st.integers(0, math.comb(v, k) - 1), max_size=60))
    edges = edges_of_bits(v, k, bits_of_ranks(ranks))
    assert edges == [unrank_subset(r, v, k) for r in sorted(set(ranks))]
    if edges:
        assert colex_ranks(v, k, np.array(edges)).tolist() == sorted(set(ranks))


@pytest.mark.parametrize("v,k", [(120, 3), (300, 3), (60, 4), (40, 5), (800, 2)])
def test_edges_of_bits_first_and_last_rank_past_the_table(v, k):
    assert edges_of_bits(v, k, 0) == []
    last = math.comb(v, k) - 1
    edges = edges_of_bits(v, k, bits_of_ranks([0, last]))
    assert edges == [tuple(range(k)), tuple(range(v - k, v))]
    assert edges == [unrank_subset(0, v, k), unrank_subset(last, v, k)]
    assert colex_ranks(v, k, np.array(edges)).tolist() == [0, last]


@given(st.lists(st.sets(st.integers(0, 25), min_size=12, max_size=12), max_size=30))
def test_edges_of_bits_past_int64_slot_counts(subsets):
    # C(400, 12) >= 2^63, so the colex table is clipped; these edges on
    # vertices 0..25 have ranks below C(26, 12)
    v, k = 400, 12
    ranks = sorted({rank_subset(S, k) for S in subsets} | {0})
    assert edges_of_bits(v, k, bits_of_ranks(ranks)) == [
        unrank_subset(r, v, k) for r in ranks
    ]


def test_colex_ranks_refuse_ranks_past_int64():
    # C(400, 12) >= 2^63: rows on the vertices 0..25 still rank exactly,
    # and a row on the largest vertices, rank C(400, 12) - 1, is refused
    rows = np.array([tuple(range(12)), tuple(range(14, 26))])
    assert colex_ranks(400, 12, rows).tolist() == [0, rank_subset(rows[1], 12)]
    top = np.array([tuple(range(388, 400))])
    with pytest.raises(TooLarge, match=r"\(v=400, k=12\) .* reach 2\^63"):
        colex_ranks(400, 12, top)


def test_an_edge_past_the_bitset_budget_is_refused_before_any_shift():
    """An edge whose int64 rank is past 2^32 would ask for a bitset of
    gigabytes; from_edges refuses it, naming the budget, and allocates
    nothing of that size on the way."""
    edge = tuple(range(29, 41))
    r = rank_subset(edge, 12)
    assert hypergraphs.MAX_BITSET_BITS == 1 << 32 < r < 1 << 63
    with pytest.raises(TooLarge, match=rf"edge id {r} .* bitset budget of 2\^32 bits"):
        Hypergraph.from_edges(400, 12, [edge, tuple(range(12))])
    with pytest.raises(TooLarge, match="bitset budget"):
        bits_of_ranks([3, 1 << 32])


def test_edges_of_bits_rejects_a_rank_past_the_slots():
    with pytest.raises(BadParameter, match=r"rank 280840 outside \[0, C\(120,3\)\)"):
        edges_of_bits(120, 3, 1 << math.comb(120, 3))
    # small (v, k), before and after rank 0 is decoded
    for _ in range(2):
        with pytest.raises(BadParameter, match=r"rank 10 outside \[0, C\(5,2\)\)"):
            edges_of_bits(5, 2, 1 << 10)
        with pytest.raises(BadParameter, match=r"rank 10 outside \[0, C\(5,2\)\)"):
            edges_of_bits(5, 2, 1 << 12 | 1 << 10 | 1)


@pytest.mark.parametrize("v", range(1, 13))
def test_edges_of_bits_decodes_on_demand(v):
    # each k: every rank alone in a random order (a miss, then a hit), then
    # random batches mixing decoded and new ranks; only ranks asked for are
    # decoded
    rng = SplitMix64(v)
    for k in range(1, v + 1):
        subs = subset_table(v, k)[0]
        hypergraphs._decoded.cache_clear()
        order = rng.permutation(len(subs))
        for count, r in enumerate(order[: len(order) // 2]):
            assert edges_of_bits(v, k, 1 << r) == [subs[r]]
            assert edges_of_bits(v, k, 1 << r) == [subs[r]]
            assert len(hypergraphs._decoded(v, k)[0]) == count + 1
        for _ in range(4):
            bits = rng.bits(len(subs))
            assert edges_of_bits(v, k, bits) == [subs[r] for r in ranks_of_bits(bits)]
        assert edges_of_bits(v, k, (1 << len(subs)) - 1) == list(subs)


def test_boundary_count_examples_and_brute_force():
    assert boundary_count(6, 3, 1, 2) == 9
    assert boundary_count(7, 4, 2, 3) == 18
    assert boundary_count(9, 3, 3, 3) == 0  # i = k leaves no range
    for v, s, i, k in [(6, 3, 1, 2), (7, 4, 2, 3), (8, 4, 1, 3), (9, 5, 2, 4)]:
        S = set(range(s))
        brute = sum(
            1
            for E in combinations(range(v), k)
            if i <= len(S.intersection(E)) <= k - 1
        )
        assert boundary_count(v, s, i, k) == brute


def test_relabel_round_trip_and_count():
    rng = SplitMix64(5)
    for v, k in [(6, 2), (7, 3)]:
        for _ in range(25):
            G = Hypergraph(v, k, rng.bits(math.comb(v, k)))
            sigma = rng.permutation(v)
            inv = [0] * v
            for a, b in enumerate(sigma):
                inv[b] = a
            H = G.relabel(sigma)
            assert H.edge_count == G.edge_count
            assert H.relabel(inv) == G
    with pytest.raises(BadParameter, match="sigma is not a permutation"):
        Hypergraph.empty(4, 2).relabel([0, 0, 1, 2])


@pytest.mark.parametrize("v,k", [(1, 1), (6, 2), (7, 3), (9, 4), (120, 3), (60, 5)])
def test_relabel_matches_the_rank_subset_oracle(v, k):
    # C(120, 3) and C(60, 5) are past the decode dict
    rng = SplitMix64(v * 7 + k)
    for _ in range(10):
        ranks = [rng.below(min(math.comb(v, k), 1 << 20)) for _ in range(rng.below(40))]
        G = Hypergraph(v, k, bits_of_ranks(ranks))
        sigma = rng.permutation(v)
        assert G.relabel(sigma) == relabel_oracle(G, sigma)


@pytest.mark.parametrize("v,k", [(2, 2), (5, 2), (6, 3), (7, 4)])
def test_edge_permutation_moves_each_edge_as_relabel_does(v, k):
    rng = SplitMix64(v * 11 + k)
    for sigma in ([1, 0, *range(2, v)], [*range(1, v), 0], rng.permutation(v)):
        perm = edge_permutation(v, k, sigma)
        assert sorted(perm.tolist()) == list(range(math.comb(v, k)))
        for e in range(math.comb(v, k)):
            G = Hypergraph(v, k, 1 << e)
            assert relabel_oracle(G, sigma).bits == 1 << int(perm[e])


@pytest.mark.parametrize(
    "n, r",
    [(0, 0), (0, 1), (3, 0), (3, 5), (1, 1), (5, 2), (6, 6), (9, 4), (21, 3),
     # the last rows at or below the cache bound, and the first past it
     (4096, 1), (4097, 1), (91, 2), (92, 2), (30, 4)],
)
def test_lex_subsets_match_combinations(n, r):
    """Every r-subset of range(n) in lex order, as combinations gives them;
    results up to LEX_CACHE_ROWS rows are one shared read-only array, larger
    ones a fresh writable array per call."""
    rows = hypergraphs.lex_subsets(n, r)
    assert rows.shape == (math.comb(n, r), r)
    assert list(map(tuple, rows.tolist())) == list(combinations(range(n), r))
    cached = math.comb(n, r) <= hypergraphs.LEX_CACHE_ROWS
    assert (hypergraphs.lex_subsets(n, r) is rows) == cached
    assert rows.flags.writeable != cached


def test_json_round_trips():
    G = Hypergraph.from_edges(5, 2, [(0, 1), (2, 4), (1, 3)])
    assert Hypergraph.from_json(G.to_json()) == G
    assert G.to_json()["edges"][0] == [1, 2]  # serialized 1-based
    H = Hypergraph.from_edges(6, 3, [(0, 1, 2), (3, 4, 5)])
    # the hex form is read, never written
    assert Hypergraph.from_json({"v": 5, "k": 2, "hex": format(G.bits, "x")}) == G
    assert Hypergraph.from_json({"v": 6, "k": 3, "hex": format(H.bits, "x")}) == H


def test_constructor_validation():
    with pytest.raises(BadParameter, match="need 1 <= k <= v, got k=4, v=3"):
        Hypergraph(3, 4, 0)
    with pytest.raises(BadParameter, match="bitset wider than the edge-slot count"):
        Hypergraph(4, 2, 1 << 6)
    with pytest.raises(BadParameter, match=r"edge \(0, 1, 2\) is not a 2-subset"):
        Hypergraph.from_edges(5, 2, [(0, 1, 2)])
    with pytest.raises(BadParameter, match=r"edge \(0, 5\) has a vertex >= 5"):
        Hypergraph.from_edges(5, 2, [(0, 5)])
    with pytest.raises(BadParameter, match=r"repeated vertex in \(2, 2\)"):
        Hypergraph.from_edges(5, 2, [(0, 1), (2, 2)])
    with pytest.raises(BadParameter, match=r"negative vertex in \(-1, 2\)"):
        Hypergraph.from_edges(5, 2, [(-1, 2)])
    assert Hypergraph.from_edges(5, 2, []) == Hypergraph.empty(5, 2)


def test_degrees():
    G = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (0, 3)])
    assert degrees(5, G.edges()) == [3, 1, 1, 1, 0]
