"""Sensitivity engines against independent oracles."""

from itertools import combinations

import numpy as np
import pytest
from conftest import (
    BitsProperty,
    bs_brute,
    flip_all_oracle,
    minimal_blocks_from_table,
    or_property,
    sensitive_tuples_oracle,
    table_property,
)

from hypersens.errors import (
    EvaluatorMismatch,
    NonSensitiveBlock,
    OverlappingBlocks,
    TooLarge,
    ValueIsOne,
)
from hypersens.hypergraphs import Hypergraph, rank_subset
from hypersens.properties import (
    CyclicRubinsteinProperty,
    IsolatedCliqueProperty,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
    RubinsteinProperty,
    rotate_left,
)
from hypersens.rng import SplitMix64
from hypersens.sensitivity import (
    block_sensitivity_exact,
    certify_blocks,
    enumerate_sensitive_tuples,
    minimal_sensitive_blocks,
    sensitivity_at,
    sensitivity_global,
)
from hypersens.witnesses import (
    build_isolated_vertex_witness,
    build_s0_witness,
    build_s1_witness,
)


class TestSensitivityAt:
    def test_isolated_vertex_witness(self):
        f = IsolatedVertexProperty(5)
        report = sensitivity_at(f, build_isolated_vertex_witness(5))
        assert report.s_at_x == 4
        assert report.f_value == 1 and report.polarity == "s1"
        # the sensitive bits are exactly the four edges at the lone vertex
        expected = {rank_subset((u, 4), 2) for u in range(4)}
        assert set(report.sensitive_bits) == expected

    def test_triangle_needs_three_additions(self):
        f = IsolatedTriangleProperty(4)
        assert sensitivity_at(f, 0).s_at_x == 0

    def test_rubinstein_interior_ones(self):
        f = RubinsteinProperty(4)
        x = sum(1 << (b * 4 + 1) for b in range(4))
        report = sensitivity_at(f, x)
        assert report.s_at_x == 8 and report.polarity == "s0"

    def test_every_reported_bit_re_verifies(self):
        f = IsolatedTriangleProperty(5)
        rng = SplitMix64(31)
        for _ in range(50):
            x = rng.bits(f.n)
            report = sensitivity_at(f, x)
            fx = f.value(x)
            for i in range(f.n):
                flips = f.value(x ^ (1 << i)) != fx
                assert flips == (i in report.sensitive_bits)


def _planted_graph_inputs(f, seed, count=12):
    """Relabelled planted witnesses with sparse noise, so that both values
    of f occur: one or two isolated h-sets (an isolated vertex also beside a
    complete graph), then in turn no noise, one flip of an edge inside the
    planted set, one or two random edge flips, or those and one flip of an
    edge at a planted vertex."""
    rng = SplitMix64(seed)
    v, k, h = f.v, f.k, f.h
    out = []
    for trial in range(count):
        sigma = rng.permutation(v)
        planted = list(range(h))
        if h == 1 and trial % 3 == 1:
            G = build_isolated_vertex_witness(v)
            planted = [v - 1]
        else:
            # the h-clique on the lowest vertices (h = 1: the empty graph)
            G = Hypergraph.from_edges(v, k, combinations(range(h), k))
            if trial % 3 == 2 and 2 * h <= v:
                shift = [(u + h) % v for u in range(v)]
                G = Hypergraph(v, k, G.bits | G.relabel(shift).bits)
        bits = G.relabel(sigma).bits
        if trial % 4 >= 2:
            for _ in range(1 + rng.below(2)):
                bits ^= 1 << rng.below(f.n)
        if trial % 2:
            u = planted[rng.below(len(planted))]
            # an edge inside the planted set on every fourth input
            pool = planted if trial % 4 == 1 and h >= k else range(v)
            others = [w for w in pool if w != u]
            edge = {u, *(others.pop(rng.below(len(others))) for _ in range(k - 1))}
            bits ^= 1 << rank_subset(sorted(sigma[w] for w in edge), k)
        out.append(bits)
    return out


def _planted_block_inputs(f, seed, count=40):
    """Random inputs with one block (before a random rotation, for the cyclic
    closure) overwritten by two adjacent ones, and some left as drawn."""
    rng = SplitMix64(seed)
    k, n = f.k, f.n
    out = []
    for trial in range(count):
        x = rng.bits(n) & rng.bits(n)
        if trial % 4:
            b, j = rng.below(k), rng.below(k - 1)
            x = x & ~(((1 << k) - 1) << b * k) | (0b11 << j) << b * k
            x = rotate_left(x, rng.below(n), n)
        out.append(x)
    return out


_ORACLE_CASES = [
    *(IsolatedVertexProperty(v) for v in (4, 7, 12)),
    *(IsolatedTriangleProperty(v) for v in (5, 8, 12)),
    *(IsolatedCliqueProperty(v, 3, 1, 4) for v in (6, 9, 12)),
    *(IsolatedCliqueProperty(v, 3, 2, 4) for v in (6, 9, 12)),
    *(IsolatedCliqueProperty(v, 3, 1, 5) for v in (7, 12)),
    *(IsolatedCliqueProperty(v, 2, 2, 3, allow_i_equal_k=True) for v in (5, 12)),
]


@pytest.mark.parametrize(
    "f", _ORACLE_CASES, ids=lambda f: "-".join(map(str, f.spec_json().values()))
)
def test_witness_guided_flips_match_oracle_graphs(f):
    seen = set()
    for x in _planted_graph_inputs(f, 61 + f.n):
        report = sensitivity_at(f, x)
        assert (report.f_value, report.sensitive_bits) == flip_all_oracle(f, x), x
        seen.add(report.f_value)
    assert seen == {0, 1}


@pytest.mark.parametrize("f", [RubinsteinProperty(4), CyclicRubinsteinProperty(4)],
                         ids=["rubinstein", "cyclic-rubinstein"])
def test_witness_guided_flips_match_oracle_blocks(f):
    seen = set()
    for x in _planted_block_inputs(f, 67):
        report = sensitivity_at(f, x)
        assert (report.f_value, report.sensitive_bits) == flip_all_oracle(f, x), x
        seen.add(report.f_value)
    assert seen == {0, 1}


class _CountingTriangle(IsolatedTriangleProperty):
    def value(self, x):
        self.calls += 1
        return super().value(x)


def test_witness_guided_flips_evaluate_care_bits_only():
    v = 12
    f = _CountingTriangle(v)
    f.calls = 0
    report = sensitivity_at(f, build_s1_witness(v, 2, 1, 3))
    # f(x), then the 3 edges inside the triangle and the 3(v-3) at it
    assert report.s_at_x == 3 * v - 6 and f.calls == 1 + 3 * v - 6
    f.calls = 0
    sensitivity_at(f, 0)
    assert f.calls == 1 + f.n  # f = 0 keeps the full loop


class _DropsCareBit(IsolatedTriangleProperty):
    def witness_term(self, x):
        care, want = super().witness_term(x)
        return care & (care - 1), want


class _WrongWant(IsolatedTriangleProperty):
    def witness_term(self, x):
        care, want = super().witness_term(x)
        return care, want & (want - 1)


class _WrongBlockWant(RubinsteinProperty):
    def witness_term(self, x):
        care, want = super().witness_term(x)
        return care, want ^ care


@pytest.mark.parametrize(
    "f, x",
    [
        (_DropsCareBit(8), build_s1_witness(8, 2, 1, 3)),
        (_WrongWant(8), build_s1_witness(8, 2, 1, 3)),
        (_WrongBlockWant(4), 0b0110 << 8),
    ],
    ids=["care-bit-dropped", "want-missing-an-edge", "want-complemented"],
)
def test_wrong_witness_terms_are_caught(f, x):
    with pytest.raises(EvaluatorMismatch):
        sensitivity_at(f, x)


class TestSensitivityGlobal:
    def test_rubinstein_k4(self):
        assert sensitivity_global(RubinsteinProperty(4)).value == 8

    def test_isolated_vertex_v4(self):
        assert sensitivity_global(IsolatedVertexProperty(4)).value == 3

    def test_constant_zero(self):
        g = sensitivity_global(BitsProperty(6, lambda x: 0))
        assert g.value == 0 and g.s0 == 0 and g.s1 == 0

    def test_tie_break_smallest_input(self):
        g = sensitivity_global(or_property(4))
        assert g.value == 4 and g.argmax == 0

    def test_polarity_bookkeeping(self):
        f = IsolatedTriangleProperty(5)
        g = sensitivity_global(f)
        best = {0: 0, 1: 0}
        for x in range(1 << f.n):
            r = sensitivity_at(f, x)
            best[r.f_value] = max(best[r.f_value], r.s_at_x)
        assert (g.s0, g.s1) == (best[0], best[1])
        assert g.value == max(g.s0, g.s1)

    def test_budget(self):
        with pytest.raises(TooLarge):
            sensitivity_global(BitsProperty(30, lambda x: 0))

    def test_wrong_patterns_are_caught(self):
        cases = [
            # no term for vertex v-1
            (IsolatedVertexProperty(4), IsolatedVertexProperty(4).patterns()[:-1]),
            # the last block's three terms missing
            (RubinsteinProperty(4), RubinsteinProperty(4).patterns()[:-3]),
            # only the unrotated terms of the cyclic closure
            (CyclicRubinsteinProperty(4), RubinsteinProperty(4).patterns()),
            # a spurious 1 at the all-zero input, which no sample hits; it
            # becomes the argmax of s1 with s = 16
            (
                RubinsteinProperty(4),
                RubinsteinProperty(4).patterns() + (((1 << 16) - 1, 0),),
            ),
        ]
        for f, wrong in cases:
            f.patterns = lambda wrong=wrong: wrong
            with pytest.raises(EvaluatorMismatch):
                sensitivity_global(f)


class TestMinimalBlocks:
    def test_or_at_zero_gives_singletons(self):
        blocks = minimal_sensitive_blocks(or_property(5), 0, 3)
        assert blocks == [(i,) for i in range(5)]

    def test_rubinstein_k2_at_zero(self):
        blocks = minimal_sensitive_blocks(RubinsteinProperty(2), 0, 4)
        assert blocks == [(0, 1), (2, 3)]

    def test_triangle_blocks_at_empty_v5(self):
        f = IsolatedTriangleProperty(5)
        blocks = minimal_sensitive_blocks(f, 0, 4)
        expected = sorted(
            tuple(sorted(rank_subset(p, 2) for p in combinations(tri, 2)))
            for tri in combinations(range(5), 3)
        )
        assert blocks == expected
        assert len(blocks) == 10

    def test_supersets_are_pruned(self):
        f = BitsProperty(6, lambda x: int(x & 0b11 != 0))
        blocks = minimal_sensitive_blocks(f, 0, 6)
        assert blocks == [(0,), (1,)]


def _scalar_table(f):
    return np.array([f.value(x) for x in range(1 << f.n)], dtype=np.uint8)


_SCAN_CASES = [
    (RubinsteinProperty(2), 4),
    (RubinsteinProperty(4), 5),
    (CyclicRubinsteinProperty(2), 4),
    (CyclicRubinsteinProperty(4), 8),
    (IsolatedVertexProperty(5), 10),
    (IsolatedVertexProperty(6), 6),
    (IsolatedTriangleProperty(5), 10),
    (IsolatedTriangleProperty(6), 5),
    (IsolatedCliqueProperty(5, 3, 1, 4), 10),
    (IsolatedCliqueProperty(5, 3, 2, 4), 6),
    (table_property(SplitMix64(47).bits(1 << 10), 10), 10),
]


@pytest.mark.parametrize(
    "f, cap", _SCAN_CASES, ids=[f"{f.name}-n{f.n}-cap{c}" for f, c in _SCAN_CASES]
)
def test_minimal_blocks_match_table_oracle(f, cap):
    """The level scan against the truth-table oracle; the table property has
    no patterns, so it exercises the scalar fallback."""
    table = _scalar_table(f)
    rng = SplitMix64(53)
    for x in [0] + [rng.bits(f.n) for _ in range(4)]:
        oracle = [
            b for b in minimal_blocks_from_table(table, x, f.n) if b.bit_count() <= cap
        ]
        expected = sorted(tuple(i for i in range(f.n) if b >> i & 1) for b in oracle)
        assert minimal_sensitive_blocks(f, x, cap) == expected, (f.name, x)


class TestBlockSensitivityExact:
    def test_or_gives_n(self):
        res = block_sensitivity_exact(or_property(6), 0, 6)
        assert res.value == 6 and not res.capped

    def test_rubinstein_k4_quadratic_side(self):
        res = block_sensitivity_exact(RubinsteinProperty(4), 0, 2)
        assert res.value == 8 and res.capped

    def test_triangle_empty_v6(self):
        res = block_sensitivity_exact(IsolatedTriangleProperty(6), 0, 3)
        assert res.value == 4
        assert len(res.certificate.blocks) == 4

    def test_s_le_bs_on_random_inputs(self):
        f = IsolatedTriangleProperty(5)
        rng = SplitMix64(37)
        for _ in range(20):
            x = rng.bits(f.n)
            s = sensitivity_at(f, x).s_at_x
            bs = block_sensitivity_exact(f, x, f.n).value
            assert s <= bs <= f.n

    def test_matches_brute_force_dp(self):
        rng = SplitMix64(41)
        for trial in range(12):
            n = 4 + trial % 5
            f = table_property(rng.bits(1 << n), n)
            x = rng.bits(n)
            assert block_sensitivity_exact(f, x, n).value == bs_brute(f, x)

    def test_certificate_blocks_re_verify(self):
        f = IsolatedTriangleProperty(6)
        res = block_sensitivity_exact(f, 0, 3)
        cert = certify_blocks(f, 0, res.certificate.blocks)
        assert cert.count == res.value


class TestCertifyBlocks:
    def test_empty_certificate(self):
        assert certify_blocks(or_property(4), 0, []).count == 0

    def test_non_sensitive_block_names_index(self):
        f = IsolatedTriangleProperty(5)
        good = [tuple(sorted(rank_subset(p, 2) for p in combinations((0, 1, 2), 2)))]
        bad = good + [(9,)]
        with pytest.raises(NonSensitiveBlock) as exc:
            certify_blocks(f, 0, bad)
        assert exc.value.index == 1

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingBlocks):
            certify_blocks(or_property(4), 0, [(0, 1), (1, 2)])


class TestSensitiveTuples:
    def test_near_clique_witness(self):
        sets = [(0, 1, 2), (3, 4, 5)]
        G, count = build_s0_witness(sets, 7, 2, 1, 3)
        spec = IsolatedCliqueProperty(7, 2, 1, 3)
        tuples = enumerate_sensitive_tuples(spec, G)
        assert count == 2
        adds = [t for t in tuples if t.vertices in {(0, 1, 2), (3, 4, 5)}]
        assert len(adds) == 2
        assert all(t.direction == "add" for t in adds)
        for t in adds:
            flipped = G.flip_edge(t.edge)
            assert spec.value(flipped) == 1

    def test_empty_graph_has_no_tuples(self):
        spec = IsolatedCliqueProperty(6, 2, 1, 3)
        assert enumerate_sensitive_tuples(spec, Hypergraph.empty(6, 2)) == []

    def test_triangle_minus_one_edge(self):
        G = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2)])
        spec = IsolatedCliqueProperty(5, 2, 1, 3)
        tuples = enumerate_sensitive_tuples(spec, G)
        assert len(tuples) == 1
        t = tuples[0]
        assert t.vertices == (0, 1, 2) and t.direction == "add"
        assert t.edge == rank_subset((1, 2), 2)

    def test_remove_direction(self):
        # a full triangle with one pendant edge: removing the pendant isolates it
        G = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (1, 2), (2, 3)])
        spec = IsolatedCliqueProperty(5, 2, 1, 3)
        tuples = enumerate_sensitive_tuples(spec, G)
        removals = [t for t in tuples if t.direction == "remove"]
        assert any(
            t.vertices == (0, 1, 2) and t.edge == rank_subset((2, 3), 2)
            for t in removals
        )

    def test_value_one_rejected(self):
        spec = IsolatedCliqueProperty(5, 2, 1, 3)
        tri = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueIsOne):
            enumerate_sensitive_tuples(spec, tri)

    def test_accepts_triangle_property(self):
        G = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2)])
        tuples = enumerate_sensitive_tuples(IsolatedTriangleProperty(5), G)
        assert len(tuples) == 1


@pytest.mark.parametrize(
    "v, k, i, h",
    [(7, 2, 1, 3), (8, 3, 1, 4), (8, 3, 2, 4), (8, 3, 1, 5), (8, 2, 1, 4)],
)
def test_sensitive_tuples_match_oracle(v, k, i, h):
    """Exactly the h-sets with one defect, at planted near-cliques (an inside
    edge removed, or an edge added at a planted vertex) and at random
    inputs; an input with f = 1 is rejected."""
    f = IsolatedCliqueProperty(v, k, i, h)
    rng = SplitMix64(71 + f.n)
    inputs = _planted_graph_inputs(f, 73 + f.n, count=40)
    inputs += [rng.bits(f.n) & rng.bits(f.n) for _ in range(10)]
    directions = set()
    for x in inputs:
        if f.value(x):
            with pytest.raises(ValueIsOne):
                enumerate_sensitive_tuples(f, x)
            continue
        tuples = enumerate_sensitive_tuples(f, x)
        tuples = [(t.vertices, t.edge, t.direction) for t in tuples]
        assert tuples == sensitive_tuples_oracle(v, k, i, h, x), x
        directions.update(t[2] for t in tuples)
    assert directions == {"add", "remove"}
