"""Sensitivity engines against independent oracles."""

import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import time
from itertools import combinations

import numpy as np
import pytest
from conftest import (
    BitsProperty,
    block_level_oracle,
    bs_brute,
    certify_oracle,
    checked_blocks_oracle,
    defects_oracle,
    digest_oracle,
    flip_all_oracle,
    minimal_blocks_from_table,
    flip_edge,
    graph_orbit_reps,
    isolated_flips_oracle,
    naive_isolated_clique_value,
    or_property,
    sensitive_tuples_oracle,
    table_property,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from hypersens import sensitivity
from hypersens.errors import (
    BadParameter,
    CellBudgetExceeded,
    EvaluatorMismatch,
    NonSensitiveBlock,
    TooLarge,
    ValueIsOne,
)
from hypersens.hypergraphs import (
    Hypergraph,
    bits_of_ranks,
    rank_subset,
    ranks_of_bits,
)
from hypersens.properties import (
    CyclicRubinsteinProperty,
    GraphPropertyBase,
    IsolatedCliqueProperty,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
    RubinsteinProperty,
    rotate_left,
)
from hypersens.rng import SplitMix64
from hypersens.scaling import run_scan
from hypersens.sensitivity import (
    GLOBAL_CHECK_SAMPLES,
    GLOBAL_CHECK_SEED,
    _minimal_blocks_everywhere,
    _next_level,
    _orbit_minima,
    _pack_blocks,
    _relabelling_images,
    block_sensitivity_exact,
    block_sensitivity_global,
    certify_blocks,
    enumerate_sensitive_tuples,
    minimal_sensitive_blocks,
    sensitivity_at,
    sensitivity_global,
    truth_table,
)
from hypersens.witnesses import (
    build_family_witness,
    build_isolated_vertex_witness,
    build_s0_witness,
    build_s1_witness,
    packing_edge_blocks,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_input_digest_matches_the_format_oracle():
    """sha256 of f"{n}:{bits:x}" at odd and even counts of hex digits, at
    random widths, and at a relabelled v = 300 family witness, the wide
    input that certify_blocks and sensitivity_at report on."""
    rng = SplitMix64(24)
    cases = [0, 1, 15, 16, 255, 256, 1 << 64, (1 << 68) - 1]
    cases += [rng.bits(1 + rng.below(1 << 14)) for _ in range(300)]
    # sparse wide bitsets, held with their ranks by the codec
    cases += [
        bits_of_ranks([rng.below(1 << 22) for _ in range(1 + rng.below(60))] + [1 << 21])
        for _ in range(20)
    ]
    for n, bits in enumerate(cases):
        assert sensitivity.input_digest(n, bits) == digest_oracle(n, bits)
    G, _, prop = build_family_witness(300, 3, 6)
    H = G.relabel(rng.permutation(300))
    assert certify_blocks(prop, H, []).digest == digest_oracle(prop.n, H.bits)


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


def _assert_explain_finds_the_first_matched_set(f, x, report):
    """At f(x) = 1, explain's witness is the census's first matched h-set:
    both are the lexicographically first h-set without a defect, and
    sensitivity_at builds the witness term from the census's."""
    if report.f_value:
        assert f.explain(x).witness == f.census(x)[0][0], x


@pytest.mark.parametrize(
    "f", _ORACLE_CASES, ids=lambda f: "-".join(map(str, f.spec_json().values()))
)
def test_witness_guided_flips_match_oracle_graphs(f):
    seen = set()
    for x in _planted_graph_inputs(f, 61 + f.n):
        report = sensitivity_at(f, x)
        assert (report.f_value, report.sensitive_bits) == flip_all_oracle(f, x), x
        _assert_explain_finds_the_first_matched_set(f, x, report)
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
    """A graph property's sensitive bits come from its near-term census, so
    f is evaluated once, at x, on both sides: no flip is evaluated."""
    v = 12
    f = _CountingTriangle(v)
    f.calls = 0
    report = sensitivity_at(f, build_s1_witness(v, 2, 1, 3))
    # the 3 edges inside the triangle and the 3(v-3) at it
    assert report.s_at_x == 3 * v - 6 and f.calls == 1
    f.calls = 0
    zero = sensitivity_at(f, Hypergraph.from_edges(v, 2, [(0, 1), (0, 2)]))
    assert zero.sensitive_bits == (rank_subset((1, 2), 2),) and f.calls == 1


_CENSUS_CASES = [
    IsolatedTriangleProperty(7),
    IsolatedVertexProperty(7),
    *(
        IsolatedCliqueProperty(*shape)
        for shape in [(7, 3, 1, 4), (7, 3, 2, 4), (8, 2, 1, 4), (8, 2, 1, 5),
                      (7, 3, 2, 5), (7, 4, 2, 5), (7, 4, 3, 6)]
    ),
    IsolatedCliqueProperty(6, 3, 3, 4, allow_i_equal_k=True),
]


def _two_cliques(f, seed):
    """Two disjoint complete h-cliques and nothing else, relabelled by a
    seeded permutation: two h-sets without a defect."""
    h, k = f.h, f.k
    edges = [*combinations(range(h), k), *combinations(range(h, 2 * h), k)]
    G = Hypergraph.from_edges(f.v, k, edges)
    return G.relabel(SplitMix64(seed).permutation(f.v)).bits


def _census_inputs(f, seed):
    """The property's witness, the witness with one edge flipped (a present
    edge, or any), the empty graph, two disjoint h-cliques where they fit,
    and random inputs of densities 1/8 to 7/8."""
    rng = SplitMix64(seed)
    w = f.witness()
    inside = ranks_of_bits(w)
    out = [w, 0]
    if 2 * f.h <= f.v:
        out.append(_two_cliques(f, seed))
    out += [w ^ 1 << inside[rng.below(len(inside))] for _ in range(3)]
    out += [w ^ 1 << rng.below(f.n) for _ in range(6)]
    for _ in range(3):
        a, b, c = rng.bits(f.n), rng.bits(f.n), rng.bits(f.n)
        out += [a & b & c, a & b, a, a | b, a | b | c]
    return out


def _naive_flips(f, x):
    """(f(x), sensitive bits) by the unpruned reference evaluator."""
    def value(y):
        return naive_isolated_clique_value(f.v, f.k, f.i, f.h, y)

    fx = value(x)
    return fx, tuple(e for e in range(f.n) if value(x ^ 1 << e) != fx)


@pytest.mark.parametrize(
    "f", _CENSUS_CASES, ids=lambda f: "-".join(map(str, f.spec_json().values()))
)
def test_census_matches_flip_oracles(f):
    seen = set()
    for x in _census_inputs(f, 83 + f.n):
        report = sensitivity_at(f, x)
        got = (report.f_value, report.sensitive_bits)
        assert got == flip_all_oracle(f, x) == _naive_flips(f, x), x
        assert report.s_at_x == len(report.sensitive_bits)
        _assert_explain_finds_the_first_matched_set(f, x, report)
        seen.add(report.f_value)
    assert seen == {0, 1}


@pytest.mark.parametrize(
    "f",
    [
        IsolatedTriangleProperty(40),
        IsolatedVertexProperty(40),
        IsolatedCliqueProperty(40, 3, 1, 4),
        IsolatedCliqueProperty(40, 3, 2, 5),
        IsolatedCliqueProperty(24, 4, 2, 5),
    ],
    ids=lambda f: "-".join(map(str, f.spec_json().values())),
)
def test_census_at_s1_witnesses_checks_every_bit(f):
    sigma = SplitMix64(89 + f.v).permutation(f.v)
    x = Hypergraph(f.v, f.k, f.witness()).relabel(sigma).bits
    report = sensitivity_at(f, x)
    assert (report.f_value, report.sensitive_bits) == flip_all_oracle(f, x)
    assert report.s_at_x == f.witness_term_size()
    _assert_explain_finds_the_first_matched_set(f, x, report)


def test_census_respects_an_expired_deadline():
    f = IsolatedTriangleProperty(8)
    with pytest.raises(CellBudgetExceeded):
        sensitivity_at(f, build_s1_witness(8, 2, 1, 3), deadline=time.monotonic() - 1)


class _DropsCareBit(IsolatedTriangleProperty):
    def _isolation_terms(self, sets):
        terms = super()._isolation_terms(sets)
        return [(care & (care - 1), want) for care, want in terms]


class _WrongWant(IsolatedTriangleProperty):
    def _isolation_terms(self, sets):
        terms = super()._isolation_terms(sets)
        return [(care, want & (want - 1)) for care, want in terms]


@pytest.mark.parametrize(
    "f, x",
    [
        (_DropsCareBit(8), build_s1_witness(8, 2, 1, 3)),
        (_WrongWant(8), build_s1_witness(8, 2, 1, 3)),
    ],
    ids=["care-bit-dropped", "want-missing-an-edge"],
)
def test_wrong_witness_terms_are_caught(f, x):
    with pytest.raises(EvaluatorMismatch, match="witness term"):
        sensitivity_at(f, x)


@pytest.mark.parametrize(
    "f",
    [
        IsolatedTriangleProperty(30),
        IsolatedVertexProperty(12),
        IsolatedCliqueProperty(20, 3, 1, 4),
        IsolatedCliqueProperty(14, 3, 2, 4),
        IsolatedCliqueProperty(12, 3, 2, 5),
    ],
    ids=lambda f: "-".join(map(str, f.spec_json().values())),
)
def test_one_term_is_built_per_matched_set(f, monkeypatch):
    """The census hands over the matched h-sets, not their terms: at an s1
    witness _isolation_terms runs once, for the witness term, and with a
    second matched set once more, for that set alone."""
    calls = []
    build = GraphPropertyBase._isolation_terms

    def counted(self, sets):
        calls.append(len(sets))
        return build(self, sets)

    monkeypatch.setattr(GraphPropertyBase, "_isolation_terms", counted)
    assert sensitivity_at(f, f.witness()).f_value == 1
    assert calls == [1]
    if f.h == 1:
        return  # the isolated-vertex witness has one isolated vertex
    calls.clear()
    assert sensitivity_at(f, _two_cliques(f, 7 + f.n)).f_value == 1
    assert calls == [1, 1]


@pytest.mark.parametrize(
    "f",
    [
        IsolatedTriangleProperty(12),
        IsolatedVertexProperty(12),
        IsolatedCliqueProperty(12, 3, 1, 4),
        IsolatedCliqueProperty(10, 3, 2, 4),
    ],
    ids=lambda f: "-".join(map(str, f.spec_json().values())),
)
def test_one_h_set_search_per_report(f, monkeypatch):
    """A report searches the h-sets once, through f(x), on both sides: at
    f(x) = 1 the witness is the census's first matched set, not a second
    or third search through explain."""
    one = f.witness()
    zero = next(x for x in _census_inputs(f, 5 + f.n) if not f.value(x))
    calls = []
    find = GraphPropertyBase._find

    def counted(self, bits):
        calls.append(bits)
        return find(self, bits)

    monkeypatch.setattr(GraphPropertyBase, "_find", counted)
    assert sensitivity_at(f, one).f_value == 1
    assert calls == [one]
    calls.clear()
    assert sensitivity_at(f, zero).f_value == 0
    assert calls == [zero]


def _dropped_terms():
    """(property, its patterns() with term t dropped) for every term t of two
    graph properties; the sampled inputs and the argmax alone miss several
    of these, the structural check of patterns() catches each."""
    for make in (
        lambda: IsolatedTriangleProperty(5),
        lambda: IsolatedCliqueProperty(5, 2, 1, 4),
    ):
        terms = make().patterns()
        for t in range(len(terms)):
            yield make(), terms[:t] + terms[t + 1 :]


class TestSensitivityGlobal:
    def test_rubinstein_k4(self):
        assert sensitivity_global(RubinsteinProperty(4)).value == 8

    def test_isolated_vertex_v4(self):
        assert sensitivity_global(IsolatedVertexProperty(4)).value == 3

    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_isolated_vertex_smallest_v_match_brute_force(self, v):
        # at v = 2 both vertices share one term, which the structural
        # check of patterns() must accept
        f = IsolatedVertexProperty(v)
        best = max(len(flip_all_oracle(f, x)[1]) for x in range(1 << f.n))
        assert sensitivity_global(f).value == best

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
            *_dropped_terms(),
        ]
        for f, wrong in cases:
            f.patterns = lambda wrong=wrong: wrong
            with pytest.raises(EvaluatorMismatch):
                sensitivity_global(f)

    def test_graph_patterns_of_the_wrong_shape_are_caught(self):
        (care, want), second, *rest = IsolatedTriangleProperty(5).patterns()
        absent = care & ~want  # the edges that must be absent
        outside = ((1 << 10) - 1) & ~care
        cases = [
            # the first term twice, the second dropped
            ((care, want), (care, want), *rest),
            # a care bit missing
            ((care ^ (absent & -absent), want), second, *rest),
            # a want bit moved outside the care
            ((care, want ^ (want & -want) ^ (outside & -outside)), second, *rest),
        ]
        for wrong in cases:
            f = IsolatedTriangleProperty(5)
            f.patterns = lambda wrong=wrong: wrong
            # the structural check's message, not a sampled input's
            with pytest.raises(EvaluatorMismatch, match=r"not C\(5,3\) terms"):
                sensitivity_global(f)


@pytest.mark.parametrize(
    "v, k", [(v, 2) for v in range(1, 6)] + [(v, 3) for v in range(3, 6)]
)
def test_orbit_minima_are_the_isomorphism_class_representatives(v, k):
    reps = _orbit_minima(_relabelling_images(v, k), 1 << math.comb(v, k), None)
    assert reps.tolist() == graph_orbit_reps(v, k)


def test_orbit_counts_are_the_graph_counts():
    # the number of graphs on v unlabelled vertices, OEIS A000088
    counts = [
        len(_orbit_minima(_relabelling_images(v, 2), 1 << math.comb(v, 2), None))
        for v in range(1, 7)
    ]
    assert counts == [1, 2, 4, 11, 34, 156]


def _non_invariant_triangle():
    """IsolatedTriangleProperty(5) whose term of {0, 1, 2} requires the edge
    {3, 4} absent instead of the crossing edge {0, 3}.  Its patterns() pass
    check_patterns(), and the batch table agrees with scalar `value` at
    every sampled input (no other 4-edge care for one term of
    IsolatedVertexProperty(5) does both), but the table changes at 2 inputs
    that form no orbit."""
    f = IsolatedTriangleProperty(5)
    (care, want), *rest = f.patterns()
    care ^= 1 << rank_subset((0, 3)) | 1 << rank_subset((3, 4))
    wrong = ((care, want), *rest)
    f.patterns = lambda: wrong
    return f


@pytest.mark.parametrize("engine", [sensitivity_global, block_sensitivity_global])
def test_a_table_that_breaks_the_vertex_symmetry_is_caught(engine):
    f = _non_invariant_triangle()
    f.check_patterns()
    table = truth_table(f)
    rng = SplitMix64(GLOBAL_CHECK_SEED)
    for _ in range(GLOBAL_CHECK_SAMPLES):
        x = rng.bits(f.n)
        assert table[x] == f.value(x)
    with pytest.raises(
        EvaluatorMismatch,
        match="isolated-triangle is not invariant under relabelling the vertices",
    ):
        engine(f)


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

    @pytest.mark.parametrize("cap", [0, -1, 7])
    def test_max_block_size_outside_1_to_n_is_bad_parameter(self, cap):
        with pytest.raises(BadParameter, match="max_block_size"):
            minimal_sensitive_blocks(or_property(6), 0, cap)


class TestBlockLevels:
    """The colex recurrence of _next_level against the search oracle."""

    @staticmethod
    def _levels(n, top):
        level = np.zeros(1, dtype=np.uint32), np.zeros((1, 0), dtype=np.uint8)
        for size in range(1, top + 1):
            level = _next_level(*level, n)
            yield size, level

    @pytest.mark.parametrize(
        "n, top", [(n, n) for n in range(1, 17)] + [(20, 10)]
    )
    def test_levels_match_search_oracle(self, n, top):
        """Every level of n <= 16, and n = 20 up to size 10, where level 7
        holds C(20, 7) = 77,520 masks, so the rows of levels 8 and up widen
        to uint32."""
        for size, (masks, rows) in self._levels(n, top):
            oracle_masks, oracle_rows = block_level_oracle(n, size)
            assert len(masks) == math.comb(n, size)
            assert np.all(masks[1:] > masks[:-1])
            assert np.all(np.bitwise_count(masks) == size)
            assert np.array_equal(masks, oracle_masks), (n, size)
            assert rows.dtype == oracle_rows.dtype
            assert np.array_equal(rows, oracle_rows), (n, size)
        if n == 20:
            assert rows.dtype == np.uint32

    def test_no_input_bits_has_no_block(self):
        assert minimal_sensitive_blocks(IsolatedVertexProperty(1), 0, 0) == []


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
    # the walk builds every level whole by the colex recurrence on every
    # call, level 6 with C(18, 6) = 18,564 masks; at 0 every 6-set is a
    # minimal block
    (BitsProperty(18, lambda x: int(x.bit_count() >= 6), "at-least-6"), 6),
]


@pytest.mark.parametrize(
    "f, cap", _SCAN_CASES, ids=[f"{f.name}-n{f.n}-cap{c}" for f, c in _SCAN_CASES]
)
def test_minimal_blocks_match_table_oracle(f, cap, monkeypatch):
    """The one-input scan against the truth-table oracle, at every input
    when n <= 10 and otherwise at 0, 4 seeded random inputs and 8 seeded
    inputs of each value of f.  A property with patterns() reads its blocks
    off the terms at a 0-input, with no batch evaluation, and walks the
    levels at a 1-input; the table and BitsProperty cases have no patterns,
    so they walk at both, through the scalar fallback."""
    table = _scalar_table(f)
    if f.n <= 10:
        xs = range(1 << f.n)
    else:
        rng = SplitMix64(53)
        picked = {0} | {rng.bits(f.n) for _ in range(4)}
        for side in (0, 1):
            inputs, drawn = np.flatnonzero(table == side), set()
            while len(drawn) < 8:
                drawn.add(int(inputs[rng.bits(32) % len(inputs)]))
            picked |= drawn
        xs = sorted(picked)
    batches = []
    evaluate = sensitivity.evaluate_batch
    monkeypatch.setattr(
        sensitivity, "evaluate_batch", lambda g, ys: batches.append(1) or evaluate(g, ys)
    )
    read_off_terms = hasattr(f, "patterns")
    for x in xs:
        oracle = [
            b for b in minimal_blocks_from_table(table, x, f.n) if b.bit_count() <= cap
        ]
        expected = sorted(tuple(i for i in range(f.n) if b >> i & 1) for b in oracle)
        batches.clear()
        assert minimal_sensitive_blocks(f, x, cap) == expected, (f.name, x)
        assert bool(batches) == (table[x] == 1 or not read_off_terms), (f.name, x)


def test_zero_inputs_with_terms_make_no_batch_call(monkeypatch):
    """The 0-inputs of the benchmark's bs jobs, at n = 21 and 16: the blocks
    come off the terms, and agree with the packed transform's."""

    def refuse(f, xs):
        raise AssertionError("evaluate_batch called")

    cases = [
        (IsolatedVertexProperty(7), Hypergraph(7, 2, 0x1A2F3D).bits, 6),
        (IsolatedTriangleProperty(7), Hypergraph(7, 2, 0x0C0413).bits, 4),
        (IsolatedTriangleProperty(7), 0, 3),
        (CyclicRubinsteinProperty(4), 0, 8),
    ]
    expected = {}
    for f, x, cap in cases:
        assert f.value(x) == 0
        _, masks = next(_minimal_blocks_everywhere(
            truth_table(f), f.n, np.array([x], dtype=np.uint32), None
        ))
        expected[f.name, x] = sorted(
            tuple(ranks_of_bits(m)) for m in masks if m.bit_count() <= cap
        )
    monkeypatch.setattr(sensitivity, "evaluate_batch", refuse)
    for f, x, cap in cases:
        assert minimal_sensitive_blocks(f, x, cap) == expected[f.name, x]
    assert block_sensitivity_exact(IsolatedTriangleProperty(7), 0, 3).value == 7


class _MatchesAZeroInput(IsolatedTriangleProperty):
    """An extra term, edge 0 present and edge 1 absent, that the scalar
    evaluator does not have."""

    def patterns(self):
        return super().patterns() + ((0b11, 0b01),)


def test_a_term_matching_a_zero_input_is_a_mismatch():
    f = _MatchesAZeroInput(5)
    assert f.value(0b01) == 0
    with pytest.raises(EvaluatorMismatch, match=r"f=0 at input 1, but a term"):
        minimal_sensitive_blocks(f, 0b01, 3)
    # no term matches the empty graph; there the extra term's block, edge 0
    # alone, leaves the three triangles on edge 0 not minimal
    triangles = minimal_sensitive_blocks(IsolatedTriangleProperty(5), 0, 3)
    assert minimal_sensitive_blocks(f, 0, 3) == [(0,)] + [
        b for b in triangles if 0 not in b
    ]


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


_GLOBAL_BS_CASES = [
    IsolatedTriangleProperty(4),
    IsolatedTriangleProperty(5),
    IsolatedCliqueProperty(4, 2, 1, 4),
    IsolatedCliqueProperty(5, 2, 1, 4),
    IsolatedVertexProperty(3),
    IsolatedVertexProperty(4),
    IsolatedVertexProperty(5),
    CyclicRubinsteinProperty(2),
    table_property(SplitMix64(59).bits(1 << 9), 9),
]
_GRAPH_BS_CASES = [f for f in _GLOBAL_BS_CASES if isinstance(f, GraphPropertyBase)]


class TestPackedTransform:
    """_minimal_blocks_everywhere's bit-packed subset-zeta transform against
    the bool-array oracle and the one-input level walk."""

    @pytest.mark.parametrize("n", range(13))
    def test_matches_table_oracle_at_every_input(self, n):
        """Seeded tables at n < 6 (part of one word, with padding), n = 6
        (one word) and n >= 7 (several words); the masks come in level
        order, by size and then value."""
        rng = SplitMix64(61 + n)
        table = np.array([rng.bits(1) for _ in range(1 << n)], dtype=np.uint8)
        every = np.arange(1 << n, dtype=np.uint32)
        seen = 0
        for x, masks in _minimal_blocks_everywhere(table, n, every, None):
            oracle = minimal_blocks_from_table(table, x, n)
            assert masks == sorted(oracle, key=lambda b: (b.bit_count(), b)), x
            assert x == seen
            seen += 1
        assert seen == 1 << n

    def test_matches_full_cap_walk_at_v7_orbit_representatives(self):
        """n = 21: 32,768 words per input."""
        f = IsolatedTriangleProperty(7)
        reps = _orbit_minima(_relabelling_images(7, 2), 1 << f.n, None)
        rng = SplitMix64(67)
        xs = np.array([reps[rng.bits(20) % len(reps)] for _ in range(3)])
        for x, masks in _minimal_blocks_everywhere(truth_table(f), f.n, xs, None):
            expected = minimal_sensitive_blocks(f, x, f.n)
            assert masks == sorted(masks, key=lambda b: (b.bit_count(), b))
            assert sorted(tuple(ranks_of_bits(m)) for m in masks) == expected, x


class TestBlockSensitivityGlobal:
    @pytest.mark.parametrize(
        "f", _GLOBAL_BS_CASES, ids=[f"{f.name}-n{f.n}" for f in _GLOBAL_BS_CASES]
    )
    def test_walk_matches_the_one_input_scan_everywhere(self, f):
        """At every input, the packed transform's minimal blocks and their
        packing equal minimal_sensitive_blocks and block_sensitivity_exact;
        the global max is theirs, at the smallest input that attains it."""
        seen = []
        every = np.arange(1 << f.n, dtype=np.uint32)
        for x, masks in _minimal_blocks_everywhere(truth_table(f), f.n, every, None):
            expected = minimal_sensitive_blocks(f, x, f.n)
            assert sorted(tuple(ranks_of_bits(m)) for m in masks) == expected, x
            bs = block_sensitivity_exact(f, x, f.n).value
            assert _pack_blocks(masks)[0] == bs, x
            seen.append(bs)
        assert len(seen) == 1 << f.n
        g = block_sensitivity_global(f)
        assert (g.value, g.argmax) == (max(seen), seen.index(max(seen)))
        assert g.certificate == block_sensitivity_exact(f, g.argmax, f.n).certificate
        assert g.certificate.count == g.value
        assert certify_blocks(f, g.argmax, g.certificate.blocks).count == g.value

    @pytest.mark.parametrize(
        "f", _GRAPH_BS_CASES, ids=[f"{f.name}-n{f.n}" for f in _GRAPH_BS_CASES]
    )
    def test_orbit_walk_equals_the_all_input_walk(self, f, monkeypatch):
        """A graph property's read of the least input of each S_v orbit
        gives the value, argmax and certificate of the read of every
        input, which the engine takes when no relabelling is known."""
        g = block_sensitivity_global(f)
        monkeypatch.setattr(sensitivity, "_relabelling_images", lambda v, k: ())
        every = block_sensitivity_global(f)
        assert every.inputs_walked == 1 << f.n
        assert g.inputs_walked == len(graph_orbit_reps(f.v, f.k))
        assert (g.value, g.argmax, g.certificate) == (
            every.value, every.argmax, every.certificate
        )

    @pytest.mark.parametrize(
        "f, value, argmax, walked",
        [
            (IsolatedVertexProperty(5), 4, 1, 34),
            (IsolatedTriangleProperty(5), 9, 7, 34),
            (IsolatedVertexProperty(6), 5, 0, 156),
            (IsolatedTriangleProperty(6), 12, 7, 156),
            (_GLOBAL_BS_CASES[-1], 9, 262, 1 << 9),
        ],
        ids=lambda p: getattr(p, "name", None),
    )
    def test_inputs_walked(self, f, value, argmax, walked):
        # one input per isomorphism class of graphs, every input of a table
        g = block_sensitivity_global(f)
        assert (g.value, g.argmax, g.inputs_walked) == (value, argmax, walked)

    @pytest.mark.parametrize(
        "f, packs",
        [
            (IsolatedVertexProperty(5), 5),
            (IsolatedVertexProperty(6), 13),
            (IsolatedTriangleProperty(6), 8),
        ],
        ids=lambda p: getattr(p, "name", None),
    )
    def test_capacity_bound_skips_packings(self, f, packs, monkeypatch):
        """_pack_blocks runs only where the bits of an input's blocks over
        its smallest block beat the best so far; the counts include the
        re-check at the argmax.  Counting blocks alone packed 16, 74 and
        137 times."""
        pack = sensitivity._pack_blocks
        calls = []
        monkeypatch.setattr(
            sensitivity,
            "_pack_blocks",
            lambda blocks, deadline=None: calls.append(1) or pack(blocks, deadline),
        )
        block_sensitivity_global(f)
        assert len(calls) == packs

    def test_matches_brute_force_dp_on_random_tables(self):
        rng = SplitMix64(43)
        for n in (3, 4, 5, 6, 7, 8):
            f = table_property(rng.bits(1 << n), n)
            best = max(bs_brute(f, x) for x in range(1 << n))
            assert block_sensitivity_global(f).value == best, n

    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_isolated_vertex_smallest_v_match_brute_force(self, v):
        # at v = 1 there is no bit and no block (bs = 0); at v = 2 both
        # vertices share one term, which the structural check of
        # patterns() must accept
        f = IsolatedVertexProperty(v)
        best = max(bs_brute(f, x) for x in range(1 << f.n))
        assert block_sensitivity_global(f).value == best

    def test_constant_function(self):
        g = block_sensitivity_global(BitsProperty(5, lambda x: 1))
        assert (g.value, g.argmax, g.certificate.blocks) == (0, 0, ())

    def test_wrong_patterns_are_caught(self):
        majority = BitsProperty(10, lambda x: int((x & 0b111).bit_count() >= 2))
        cases = [
            # no term for vertex v-1
            (IsolatedVertexProperty(4), IsolatedVertexProperty(4).patterns()[:-1]),
            (IsolatedVertexProperty(5), IsolatedVertexProperty(5).patterns()[:-1]),
            # the last block's term missing
            (RubinsteinProperty(2), RubinsteinProperty(2).patterns()[:-1]),
            # only the unrotated terms of the cyclic closure
            (CyclicRubinsteinProperty(2), RubinsteinProperty(2).patterns()),
            # a spurious 1 at the all-zero input, which no sample hits; it
            # becomes the argmax with bs = 10, against 2 at the re-check
            (
                IsolatedTriangleProperty(5),
                IsolatedTriangleProperty(5).patterns() + (((1 << 10) - 1, 0),),
            ),
            # spurious 1s at the all-zero input and at bit 3 alone, which no
            # sample hits; at the argmax 0 the batch scan finds the block
            # (3,), which scalar value does not flip
            (majority, ((0b011, 0b011), (0b101, 0b101), (0b110, 0b110),
                        ((1 << 10) - 1 - 0b1000, 0))),
            *_dropped_terms(),
        ]
        for f, wrong in cases:
            f.patterns = lambda wrong=wrong: wrong
            with pytest.raises(EvaluatorMismatch):
                block_sensitivity_global(f)

    def test_expired_budget_leaves_the_scan_cell_empty(self):
        result = run_scan("isolated-vertex", [4, 5], ("bs_exact",), budget_ms=0)
        assert all(r.bs_exact is None for r in result.rows)
        assert result.warnings[:2] == [
            f"column bs_exact at v={v} exceeded the 0 ms budget; cell left empty"
            for v in (4, 5)
        ]


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

    def test_int64_array_blocks_certify_as_lists_do(self):
        # the ten inside edges of {0..4} make it an isolated clique; no local
        # rule at h = 5 != k+1, so each block is shifted into the input
        f = IsolatedCliqueProperty(9, 3, 2, 5)
        for block in (list(range(10)), np.arange(10), list(np.arange(10))):
            cert = certify_blocks(f, 0, [block])
            assert cert.count == 1 and cert.blocks == (tuple(range(10)),)

    def test_overlap_rejected(self):
        with pytest.raises(BadParameter, match="block #1 overlaps an earlier block"):
            certify_blocks(or_property(4), 0, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "f",
        [
            IsolatedTriangleProperty(6),
            IsolatedCliqueProperty(6, 3, 2, 4),
            IsolatedCliqueProperty(7, 3, 2, 5),  # no local rule: value per block
            IsolatedVertexProperty(5),
            RubinsteinProperty(4),
        ],
        ids=lambda f: "-".join(map(str, f.spec_json().values())),
    )
    @pytest.mark.parametrize(
        "tail",
        [
            [],
            ["overlap"],
            ["negative"],
            ["past_n"],
            ["flat"],
            ["flat", "overlap"],
            ["flat", "negative"],
            ["good", "negative_and_overlap"],
            ["good", "overlap_and_past_n"],
            ["good", "flat", "past_n"],
            ["empty"],
        ],
    )
    def test_error_order_matches_scalar_certification(self, f, tail):
        """After a good block at the witness input, each bad block raises
        the same exception and message as one scalar value call per block,
        and the first bad block in order wins."""
        x = f.witness()
        fx = f.value(x)
        flips = [r for r in range(f.n) if f.value(x ^ (1 << r)) != fx]
        flat = next(r for r in range(f.n) if r not in flips)
        good, spare = (flips[0],), flips[1]
        make = {
            "good": (spare,),
            "overlap": (spare, good[0]),
            "negative": (spare, -1),
            "past_n": (spare, f.n),
            "flat": (flat,),
            "negative_and_overlap": (good[0], -2),
            "overlap_and_past_n": (good[0], f.n + 3),
            "empty": (),
        }
        blocks = [good] + [make[name] for name in tail]
        expected = certify_oracle(f, x, blocks)
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as exc:
                certify_blocks(f, x, blocks)
            assert str(exc.value) == expected[1]
        else:
            assert certify_blocks(f, x, blocks).blocks == expected

    @pytest.mark.parametrize(
        "f, blocks, message",
        [
            (IsolatedTriangleProperty(6), [(0.5, 1, 2)], "position 0.5,"),
            (IsolatedTriangleProperty(6), [(True, 0, 2)], "position True,"),
            (IsolatedCliqueProperty(6, 3, 2, 4), [(1.0,)], "position 1.0,"),
            (IsolatedCliqueProperty(6, 3, 2, 4), [(True, 0, 2)], "position True,"),
            (IsolatedCliqueProperty(7, 3, 2, 5), [(np.float64(2),)], "position"),
            (RubinsteinProperty(4), [(np.bool_(True),)], "position"),
            (RubinsteinProperty(4), [("1",)], "position '1',"),
            (IsolatedVertexProperty(5), [(None,)], "position None,"),
        ],
    )
    def test_non_integer_positions_are_refused(self, f, blocks, message):
        """A float, a bool or any other non-integer position is a
        BadParameter, never truncated to an edge and certified."""
        with pytest.raises(BadParameter, match=rf"block #0 has {message}"):
            certify_blocks(f, 0, blocks)

    def test_a_non_integer_block_is_bad_in_block_order(self):
        f = IsolatedTriangleProperty(6)
        x = f.witness()
        fx = f.value(x)
        flips = [r for r in range(f.n) if f.value(x ^ (1 << r)) != fx]
        flat = next(r for r in range(f.n) if r not in flips)
        with pytest.raises(BadParameter, match="block #1 has position 0.5"):
            certify_blocks(f, x, [(flips[0],), (flips[1], 0.5), (-1,)])
        with pytest.raises(BadParameter, match="negative edge id -1"):
            certify_blocks(f, x, [(flips[0],), (-1,), (0.5,)])
        with pytest.raises(NonSensitiveBlock, match="block #0"):
            certify_blocks(f, x, [(flat,), (0.5,)])

    def test_int64_rows_certify_as_python_ints(self):
        f = IsolatedTriangleProperty(6)
        blocks = packing_edge_blocks(f.packing())
        rows = [np.array(b[::-1], dtype=np.int64) for b in blocks]
        cert = certify_blocks(f, 0, rows)
        assert cert.blocks == tuple(tuple(sorted(b)) for b in blocks)
        assert all(type(r) is int for b in cert.blocks for r in b)
        assert json.loads(json.dumps(cert.to_json()))["count"] == len(blocks)

    def test_index_disagreeing_with_value_is_a_mismatch(self, monkeypatch):
        f = IsolatedTriangleProperty(6)
        monkeypatch.setattr(f, "value", lambda x: 1)
        with pytest.raises(EvaluatorMismatch, match="edge index finds 0 h-sets"):
            certify_blocks(f, 0, [])


# certify_blocks against checked_blocks_oracle: a property at i = 1, at
# i = 2 with h = k+1 (the local rule), at i = 2 with h > k+1 (value per
# block), and a block function; each at its witness, where the sensitive
# single positions give good blocks to put bad ones after
_CERT_PROPS = [
    IsolatedTriangleProperty(6),
    IsolatedCliqueProperty(6, 3, 2, 4),
    IsolatedCliqueProperty(7, 3, 2, 5),
    RubinsteinProperty(4),
]
_CERT_FLIPS = {
    id(f): [r for r in range(f.n) if f.value(f.witness() ^ (1 << r)) != f.value(f.witness())]
    for f in _CERT_PROPS
}
_BLOCK_KINDS = ("list", "tuple", "generator", "int64")


def _shaped(kind, block):
    """A fresh copy of the block as a list, a tuple, a generator or an int64
    row (a list when a position is past int64)."""
    if kind == "tuple":
        return tuple(block)
    if kind == "generator":
        return (p for p in block)
    if kind == "int64" and all(-(2**63) <= p < 2**63 for p in block):
        return np.array(block, dtype=np.int64)
    return list(block)


def _oracle_certificate(f, x, blocks):
    """certify_blocks by checked_blocks_oracle and one scalar value call per
    good block: the certified blocks, each sorted, or (exception class,
    message) of the first bad block, a non-flipping good one first."""
    good, error = checked_blocks_oracle(f.n, blocks)
    fx = f.value(x)
    for idx, b in enumerate(good):
        if f.value(x ^ sum(1 << int(r) for r in set(b))) == fx:
            return NonSensitiveBlock, str(NonSensitiveBlock(idx))
    if error is not None:
        return BadParameter, str(error)
    return tuple(tuple(sorted(b)) for b in good)


def _certified(f, x, blocks):
    """certify_blocks' certified blocks, or (exception class, message); a
    certificate must hold Python ints and dump to JSON."""
    try:
        cert = certify_blocks(f, x, blocks)
    except (BadParameter, NonSensitiveBlock) as exc:
        return type(exc), str(exc)
    assert all(type(r) is int for b in cert.blocks for r in b)
    json.dumps(cert.to_json())
    return cert.blocks


def _assert_certified_as_oracle(f, raw, kinds):
    x = f.witness()
    expected = _oracle_certificate(f, x, [_shaped(k, b) for k, b in zip(kinds, raw)])
    assert _certified(f, x, [_shaped(k, b) for k, b in zip(kinds, raw)]) == expected


_POSITIONS = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**70, -(2**70), 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_certify_blocks_matches_the_per_block_oracle(data):
    """Random block lists: sensitive singletons, which may repeat across
    blocks, and short lists of positions that may be negative, repeated,
    past n or past int64, each block a list, tuple, generator or int64
    row."""
    f = data.draw(st.sampled_from(_CERT_PROPS))
    block = st.one_of(
        st.sampled_from(_CERT_FLIPS[id(f)]).map(lambda r: [r]),
        st.lists(st.integers(0, f.n - 1), max_size=3),
        st.lists(_POSITIONS, max_size=4),
    )
    raw = data.draw(st.lists(block, max_size=6))
    kinds = data.draw(
        st.lists(st.sampled_from(_BLOCK_KINDS), min_size=len(raw), max_size=len(raw))
    )
    _assert_certified_as_oracle(f, raw, kinds)


@pytest.mark.parametrize("f", _CERT_PROPS, ids=lambda f: f.name + str(f.n))
@pytest.mark.parametrize("kind", _BLOCK_KINDS)
@pytest.mark.parametrize(
    "tail",
    [
        [[-1]],
        [[3, -5, -2]],
        [[2**70]],
        [[-(2**70), 1]],
        [[2**63]],
        [[-(2**63) - 1]],
        [["spare", "first"]],
        [["spare", "spare"]],
        [["past_n"]],
        [["spare", "past_n", 2**70]],
        [["first", -1]],
        [["past_n", "first"]],
        [["spare"], ["second", "second"]],
        [["second", "spare", "second"], ["spare"]],
        [[], ["second"]],
    ],
)
def test_certify_blocks_fixed_cases_match_the_per_block_oracle(f, kind, tail):
    """After a sensitive singleton: negative positions, positions past
    int64 both ways, overlaps, positions >= n and repeats inside a block,
    alone and mixed, in every block container."""
    flips = _CERT_FLIPS[id(f)]
    name = {"first": flips[0], "spare": flips[1], "second": flips[2], "past_n": f.n}
    raw = [[flips[0]]] + [[name.get(p, p) for p in b] for b in tail]
    _assert_certified_as_oracle(f, raw, [kind] * len(raw))


@pytest.mark.parametrize(
    "f",
    [
        IsolatedTriangleProperty(7),
        IsolatedTriangleProperty(12),
        IsolatedCliqueProperty(8, 3, 1, 4),
        IsolatedCliqueProperty(8, 3, 2, 4),
        IsolatedCliqueProperty(9, 4, 2, 5),
        IsolatedCliqueProperty(6, 3, 3, 4, allow_i_equal_k=True),
        IsolatedCliqueProperty(7, 3, 2, 5),  # no local rule: value per block
        IsolatedVertexProperty(6),
        IsolatedVertexProperty(12),
    ],
    ids=lambda f: "-".join(map(str, f.spec_json().values())),
)
def test_local_rule_matches_scalar_value_on_every_block(f):
    """f(x ^ B) by the local rule equals scalar value on every block: every
    single edge; for sampled h-sets S its defects (which make S an isolated
    clique), those with an extra edge or with one left out, and its inside
    edges; and random blocks of 2 to 4 positions.  The inputs are planted
    isolated h-sets with and without noise (one edge flipped among them),
    random sparse inputs and random dense ones."""
    v, k, i, h = f.v, f.k, f.i, f.h
    rng = SplitMix64(97 + f.n + 7 * i)
    inputs = _planted_graph_inputs(f, 101 + f.n, count=8)
    inputs += [rng.bits(f.n) & rng.bits(f.n) & rng.bits(f.n) for _ in range(3)]
    inputs += [rng.bits(f.n) | rng.bits(f.n) for _ in range(2)]
    seen_x, seen_y = set(), set()
    for x in inputs:
        blocks = [[r] for r in range(f.n)]
        for _ in range(6):
            S = sorted(rng.permutation(v)[:h])
            defects = defects_oracle(v, k, i, S, x)
            extra = rng.below(f.n)
            blocks += [defects, sorted(set(defects) | {extra}), defects[1:]]
            blocks.append([rank_subset(e, k) for e in combinations(S, k)])
        for size in (2, 3, 4):
            blocks += [
                sorted(set(rng.below(f.n) for _ in range(size))) for _ in range(4)
            ]
        fx = f.value(x)
        local = list(f.flipped_values(x, fx, blocks))
        scalar = [f.value(x ^ bits_of_ranks(b)) for b in blocks]
        assert local == scalar, x
        seen_x.add(fx)
        seen_y.update((fx, y) for y in scalar)
    assert seen_x == {0, 1}
    assert seen_y == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _disjoint_family(f, x, rng):
    """A seeded family of disjoint blocks at x: drawn in random order from
    the defects of random h-sets (those make the set isolated), the inside
    edges of random h-sets, single edges and random small sets, each kept
    if it misses the blocks kept so far; then an empty block and one rank
    repeated inside a block are put in."""
    v, k, i, h = f.v, f.k, f.i, f.h
    pool = []
    for _ in range(8):
        S = sorted(rng.permutation(v)[:h])
        pool.append(defects_oracle(v, k, i, S, x))
        pool.append([rank_subset(e, k) for e in combinations(S, k)])
        pool.append([rng.below(f.n)])
        pool.append(sorted({rng.below(f.n) for _ in range(2 + rng.below(4))}))
    family, used = [], set()
    for j in rng.permutation(len(pool)):
        if pool[j] and used.isdisjoint(pool[j]):
            family.append(list(pool[j]))
            used.update(pool[j])
    family.insert(rng.below(len(family) + 1), [])
    repeat = family[rng.below(len(family))]
    if repeat:
        repeat.insert(rng.below(len(repeat) + 1), repeat[0])
    return family


@pytest.mark.parametrize(
    "f",
    [
        IsolatedVertexProperty(8),
        IsolatedTriangleProperty(9),
        IsolatedCliqueProperty(8, 3, 1, 4),
        IsolatedCliqueProperty(9, 3, 1, 5),
    ],
    ids=lambda f: "-".join(map(str, f.spec_json().values())),
)
def test_batch_rule_matches_per_block_oracle_and_value(f):
    """At i = 1, f(x ^ B) from flipped_values' one array pass equals the
    per-block local rule (conftest.isolated_flips_oracle) and scalar value
    on seeded disjoint block families, each with an empty block and a rank
    repeated inside a block, at random sparse, relabelled witness,
    perturbed witness, planted, dense and empty inputs."""
    rng = SplitMix64(4321 + f.n + f.h)
    G = Hypergraph(f.v, f.k, f.witness())
    witnesses = [G.relabel(rng.permutation(f.v)).bits for _ in range(4)]
    inputs = [0] + witnesses
    inputs += [w ^ (1 << rng.below(f.n)) for w in witnesses]
    inputs += [w ^ (1 << rng.below(f.n)) ^ (1 << rng.below(f.n)) for w in witnesses]
    inputs += _planted_graph_inputs(f, 4327 + f.n, count=6)
    inputs += [rng.bits(f.n) & rng.bits(f.n) & rng.bits(f.n) for _ in range(4)]
    inputs += [rng.bits(f.n) | rng.bits(f.n) for _ in range(3)]
    seen = set()
    for x in inputs:
        fx = f.value(x)
        for _ in range(6):
            family = _disjoint_family(f, x, rng)
            batch = list(f.flipped_values(x, fx, family))
            oracle = isolated_flips_oracle(f, x, fx, family)
            scalar = [f.value(x ^ bits_of_ranks(b)) for b in family]
            assert batch == oracle == scalar, (x, family)
            seen.update((fx, y) for y in scalar)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_workload_paths_never_import_numpy_ma():
    """The first call of np.unique or np.isin imports numpy.ma, about 9 ms
    of a fresh process.  A fresh interpreter runs a triangle scan with
    packing certificates, an exact bs at an f = 1 input and at an f = 0
    input, whose blocks come off the terms, the exhaustive bs
    of the isolated-vertex property, and the family route: the full v = 300,
    k = 3 family witness, the check of a 150-set GF(256) family and the
    certificate of a relabelled prefix witness.  numpy.ma stays
    unimported."""
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        from hypersens import (
            IsolatedVertexProperty, block_sensitivity_global,
            build_family_witness, certify_blocks, enumerate_sensitive_tuples,
            generate_family, make_field, verify_family,
        )
        from hypersens.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            main("scan --property isolated-triangle --v-start 9 --v-end 57"
                 " --v-step 6 --columns s_lower,bs_lower".split())
            main("bsens --property isolated-triangle --v 5 --input witness"
                 " --max-block-size 3".split())
            main("bsens --property isolated-triangle --v 5 --input zeros"
                 " --max-block-size 3".split())
        block_sensitivity_global(IsolatedVertexProperty(5))
        build_family_witness(300, 3)
        assert verify_family(generate_family(make_field(2, 8), 2, 1, 150)).ok
        G, count, prop = build_family_witness(300, 3, 6)
        H = G.relabel([(7 * u + 3) % 300 for u in range(300)])
        tuples = enumerate_sensitive_tuples(prop, H)
        assert certify_blocks(prop, H, [(t.edge,) for t in tuples]).count == count
        print("numpy.ma" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


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
            flipped = flip_edge(G, t.edge)
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
