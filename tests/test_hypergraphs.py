"""Bitset hypergraphs, colex ranking and boundary counts."""

import math
from itertools import combinations

import pytest
from conftest import or_ranks_oracle
from hypothesis import given
from hypothesis import strategies as st

from hypersens.errors import (
    EdgeOutOfRange,
    IOutOfRange,
    VertexOutOfRange,
    WrongArity,
)
from hypersens.hypergraphs import (
    Hypergraph,
    bits_of_ranks,
    boundary_count,
    rank_subset,
    subset_table,
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
    with pytest.raises(WrongArity):
        rank_subset({0, 1, 2}, 2)
    with pytest.raises(VertexOutOfRange):
        rank_subset([-1, 2], 2)
    with pytest.raises(VertexOutOfRange):
        rank_subset([2, 2], 2)
    with pytest.raises(EdgeOutOfRange):
        unrank_subset(10, 5, 2)


def test_flip_edge_involution():
    G = Hypergraph.empty(5, 2)
    G1 = G.flip_edge(3)
    assert G1.edge_count == 1
    assert G1.flip_edge(3) == G
    with pytest.raises(EdgeOutOfRange):
        G.flip_edge(10)


def test_flip_block():
    G = Hypergraph.empty(4, 2)
    assert G.flip_block([]) == G
    assert G.flip_block(range(6)) == Hypergraph.complete(4, 2)
    assert G.flip_block([0, 0, 1]) == G.flip_block([0, 1])  # ids applied once


@given(st.lists(st.integers(0, (1 << 20) - 1), max_size=40))
def test_bits_of_ranks_matches_or_oracle(ranks):
    assert bits_of_ranks(ranks) == or_ranks_oracle(ranks)


def test_bits_of_ranks_cases():
    big = 1 << 18
    for ranks in ([], [0], [7, 8], [9, 3, 3, 0], [5, 5, 5], [big, 3, big + 9, big]):
        assert bits_of_ranks(ranks) == or_ranks_oracle(ranks)
    assert bits_of_ranks(iter([300_000, 2])) == (1 << 300_000) | 4
    with pytest.raises(EdgeOutOfRange):
        bits_of_ranks([3, -1])


def test_boundary_count_examples_and_brute_force():
    assert boundary_count(6, (0, 1, 2), 1, 2) == 9
    assert boundary_count(7, (0, 1, 2, 3), 2, 3) == 18
    assert boundary_count(9, (0, 1, 2), 3, 3) == 0  # i = k leaves no range
    for v, s, i, k in [(6, 3, 1, 2), (7, 4, 2, 3), (8, 4, 1, 3), (9, 5, 2, 4)]:
        S = set(range(s))
        brute = sum(
            1
            for E in combinations(range(v), k)
            if i <= len(S.intersection(E)) <= k - 1
        )
        assert boundary_count(v, range(s), i, k) == brute


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
    with pytest.raises(VertexOutOfRange):
        Hypergraph.empty(4, 2).relabel([0, 0, 1, 2])


def test_json_round_trips():
    G = Hypergraph.from_edges(5, 2, [(0, 1), (2, 4), (1, 3)])
    assert Hypergraph.from_json(G.to_json()) == G
    assert Hypergraph.from_json(G.to_json(compact=True)) == G
    assert G.to_json()["edges"][0] == [1, 2]  # serialized 1-based
    H = Hypergraph.from_edges(6, 3, [(0, 1, 2), (3, 4, 5)])
    assert Hypergraph.from_json(H.to_json(compact=True)) == H


def test_constructor_validation():
    with pytest.raises(WrongArity):
        Hypergraph(3, 4, 0)
    with pytest.raises(EdgeOutOfRange):
        Hypergraph(4, 2, 1 << 6)
    with pytest.raises(WrongArity):
        Hypergraph.from_edges(5, 2, [(0, 1, 2)])
    with pytest.raises(VertexOutOfRange):
        Hypergraph.from_edges(5, 2, [(0, 5)])


def test_degrees():
    G = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (0, 3)])
    assert G.degrees() == [3, 1, 1, 1, 0]
