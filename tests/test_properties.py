"""The studied Boolean functions and their evaluator contracts."""

import math
from itertools import combinations

import numpy as np
import pytest
from conftest import naive_isolated_clique_value, naive_isolated_clique_witness

from hypersens.errors import (
    BadLength,
    BadParameter,
    IOutOfRange,
    LengthMismatch,
    OddK,
)
from hypersens.hypergraphs import Hypergraph, rank_subset
from hypersens.properties import (
    CyclicRubinsteinProperty,
    IsolatedCliqueProperty,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
    RubinsteinProperty,
    as_bits,
    input_bits,
    property_from_json,
    rotate_left,
)
from hypersens.rng import SplitMix64
from hypersens.sensitivity import (
    block_sensitivity_exact,
    certify_blocks,
    enumerate_sensitive_tuples,
    evaluate_batch,
    minimal_sensitive_blocks,
    sensitivity_at,
)
from hypersens.witnesses import clique_packing, triangle_packing


def verify_rubinstein_witness(k, x, witness):
    """Re-check a (block, shift) witness against the raw block pattern."""
    n = k * k
    shifted = rotate_left(as_bits(x, n), witness.shift, n)
    block = (shifted >> (witness.block * k)) & ((1 << k) - 1)
    ones = [j for j in range(k) if block >> j & 1]
    return len(ones) == 2 and ones[1] == ones[0] + 1


class TestRubinstein:
    def test_examples(self):
        assert RubinsteinProperty(2).explain("1100").value == 1
        assert RubinsteinProperty(4).explain("0" * 16).value == 0
        x = ["0"] * 16
        x[5], x[6] = "1", "1"  # second block reads 0110
        assert RubinsteinProperty(4).explain("".join(x)).value == 1

    def test_two_ones_must_be_adjacent_and_alone(self):
        assert RubinsteinProperty(2).explain("1001").value == 0  # ones straddle blocks
        assert RubinsteinProperty(4).explain("1010" + "0" * 12).value == 0
        assert RubinsteinProperty(4).explain("1110" + "0" * 12).value == 0
        assert RubinsteinProperty(4).explain("0110" + "1" * 12).value == 1  # rest unconstrained

    def test_witness_round_trip(self):
        rng = SplitMix64(3)
        f = RubinsteinProperty(4)
        hits = 0
        while hits < 50:
            x = rng.bits(16)
            res = f.explain(x)
            if res.value:
                hits += 1
                assert res.witness.shift == 0
                assert verify_rubinstein_witness(4, x, res.witness)

    def test_validation(self):
        with pytest.raises(OddK):
            RubinsteinProperty(3)
        with pytest.raises(BadLength):
            RubinsteinProperty(2).explain("110")
        with pytest.raises(LengthMismatch):
            RubinsteinProperty(2).value(1 << 5)


class TestCyclicRubinstein:
    def test_examples(self):
        assert CyclicRubinsteinProperty(2).explain("0110").value == 1
        # every block of every shift carries k = 4 > 2 ones
        assert CyclicRubinsteinProperty(4).explain("1" * 16).value == 0
        shifted_in = CyclicRubinsteinProperty(2).explain("1100")
        assert shifted_in.value == 1 and shifted_in.witness.shift == 0

    def test_wraparound_pair(self):
        # ones at positions 15 and 0 are cyclically adjacent
        x = (1 << 15) | 1
        res = CyclicRubinsteinProperty(4).explain(x)
        assert res.value == 1
        assert verify_rubinstein_witness(4, x, res.witness)

    def test_cyclic_invariance_exhaustive_k2(self):
        f = CyclicRubinsteinProperty(2)
        for x in range(16):
            base = f.value(x)
            for l in range(4):
                assert f.value(rotate_left(x, l, 4)) == base

    def test_cyclic_invariance_random_k4(self):
        f = CyclicRubinsteinProperty(4)
        rng = SplitMix64(7)
        for _ in range(200):
            x = rng.bits(16)
            base = f.value(x)
            for l in range(16):
                assert f.value(rotate_left(x, l, 16)) == base


class TestIsolatedVertex:
    def test_examples(self):
        assert IsolatedVertexProperty(4).explain(Hypergraph.empty(4, 2)).value == 1
        assert IsolatedVertexProperty(5).explain(Hypergraph.complete(5, 2)).value == 0
        star = Hypergraph.from_edges(5, 2, [(0, u) for u in range(1, 5)])
        assert IsolatedVertexProperty(5).explain(star).value == 0

    def test_witness_is_smallest_isolated_vertex(self):
        G = Hypergraph.from_edges(5, 2, [(0, 1)])
        assert IsolatedVertexProperty(5).explain(G).witness == (2,)

    def test_arity_check(self):
        # C(5,3) = C(5,2): the slot counts agree, the arity does not
        f = IsolatedVertexProperty(5)
        for call in (f.explain, f.value):
            with pytest.raises(BadParameter):
                call(Hypergraph.empty(5, 3))


class TestIsolatedClique:
    def test_examples(self):
        spec3 = IsolatedCliqueProperty(3, 2, 1, 3)
        tri = Hypergraph.from_edges(3, 2, [(0, 1), (0, 2), (1, 2)])
        assert spec3.explain(tri).value == 1

        spec4 = IsolatedCliqueProperty(4, 2, 1, 3)
        pendant = Hypergraph.from_edges(4, 2, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert spec4.explain(pendant).value == 0

        spec5 = IsolatedCliqueProperty(5, 2, 1, 3)
        far = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert spec5.explain(far).value == 1

    def test_witness_re_verifies(self):
        # plant an isolated clique on a random 4-set; noise stays on the
        # complementary vertices, which the isolation rule ignores
        spec = IsolatedCliqueProperty(8, 3, 1, 4)
        rng = SplitMix64(13)
        for _ in range(20):
            sigma = rng.permutation(8)
            S = sorted(sigma[:4])
            rest = [u for u in range(8) if u not in S]
            edges = list(combinations(S, 3))
            edges += [e for e in combinations(rest, 3) if rng.below(2)]
            G = Hypergraph.from_edges(8, 3, edges)
            res = spec.explain(G)
            assert res.value == 1
            assert res.witness == naive_isolated_clique_witness(8, 3, 1, 4, G.bits)

    def test_matches_naive_evaluator_on_random_graphs(self):
        rng = SplitMix64(17)
        for v, k, i, h in [(6, 2, 1, 3), (7, 3, 1, 4), (7, 3, 2, 4), (7, 3, 1, 5)]:
            spec = IsolatedCliqueProperty(v, k, i, h)
            for _ in range(150):
                bits = rng.bits(spec.n)
                assert spec.value(bits) == naive_isolated_clique_value(v, k, i, h, bits)

    def test_parameter_validation(self):
        with pytest.raises(IOutOfRange):
            IsolatedCliqueProperty(6, 2, 2, 3)
        with pytest.raises(IOutOfRange):
            IsolatedCliqueProperty(6, 2, 0, 3)
        with pytest.raises(BadParameter):
            IsolatedCliqueProperty(6, 2, 1, 2)  # h < k+1
        with pytest.raises(BadParameter):
            IsolatedCliqueProperty(6, 2, 1, 7)  # h > v
        with pytest.raises(BadParameter):
            IsolatedCliqueProperty(6, 2, 1, 3).explain(Hypergraph.empty(5, 2))

    def test_i_equal_k_needs_override(self):
        spec = IsolatedCliqueProperty(6, 2, 2, 3, allow_i_equal_k=True)
        # isolation at i = k is vacuous for k-uniform edges: any triangle counts
        tri_plus = Hypergraph.from_edges(6, 2, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert spec.value(tri_plus) == 1
        assert IsolatedCliqueProperty(6, 2, 1, 3).value(tri_plus) == 0

    def test_from_t_floor_rule(self):
        assert IsolatedCliqueProperty.from_t(16, 2, 1, 0.5).h == 4
        assert IsolatedCliqueProperty.from_t(15, 2, 1, 0.5).h == 3
        assert IsolatedCliqueProperty.from_t(9, 2, 1, 0.0).h == 3  # max(k+1, 1)


class TestTriangleConsistency:
    @pytest.mark.parametrize("v", [4, 5, 6])
    def test_dedicated_equals_generic_exhaustive(self, v):
        tri = IsolatedTriangleProperty(v)
        clique = IsolatedCliqueProperty(v, 2, 1, 3)
        for bits in range(1 << math.comb(v, 2)):
            assert tri.value(bits) == clique.value(bits)

    def test_witnesses_agree_lex_smallest(self):
        tri = IsolatedTriangleProperty(6)
        clique = IsolatedCliqueProperty(6, 2, 1, 3)
        rng = SplitMix64(23)
        for _ in range(50):
            sigma = rng.permutation(6)
            S, rest = sorted(sigma[:3]), sorted(sigma[3:])
            edges = list(combinations(S, 2))
            edges += [e for e in combinations(rest, 2) if rng.below(2)]
            bits = Hypergraph.from_edges(6, 2, edges).bits
            a, b = tri.explain(bits), clique.explain(bits)
            assert a.value == 1 and b.value == 1
            assert a.witness == b.witness


class TestIsomorphismInvariance:
    @pytest.mark.parametrize(
        "prop",
        [
            IsolatedVertexProperty(7),
            IsolatedTriangleProperty(7),
            IsolatedCliqueProperty(7, 2, 1, 4),
            IsolatedCliqueProperty(7, 3, 2, 4),
        ],
        ids=lambda p: f"{p.name}-k{p.k}",
    )
    def test_relabeling_preserves_value(self, prop):
        rng = SplitMix64(29)
        for _ in range(25):
            G = Hypergraph(prop.v, prop.k, rng.bits(prop.n))
            sigma = rng.permutation(prop.v)
            assert prop.value(G) == prop.value(G.relabel(sigma))


def _spec_id(prop):
    spec = prop.spec_json()
    return "-".join([spec.pop("variant")] + [f"{k}{v}" for k, v in spec.items()])


def _oracle_inputs(prop, rng):
    """The empty and complete inputs, the cycle for graphs, and per round
    random inputs at three densities, disjoint planted h-cliques with noise
    on the other vertices, and the plant with one defect: a missing inside
    edge, or an edge meeting the first copy in i vertices."""
    v, k, i, h = prop.v, prop.k, prop.i, prop.h
    inputs = [0, (1 << prop.n) - 1]
    if k == 2:
        cycle = [(u, (u + 1) % v) for u in range(v)]
        inputs.append(Hypergraph.from_edges(v, 2, cycle).bits)
    for _ in range(40):
        x = rng.bits(prop.n)
        inputs += [x, x & rng.bits(prop.n), x & rng.bits(prop.n) & rng.bits(prop.n)]
        sigma = rng.permutation(v)
        copies = rng.below(v // h + 1)
        planted = [sorted(sigma[j * h : (j + 1) * h]) for j in range(copies)]
        rest = sorted(sigma[copies * h :])
        edges = [e for S in planted for e in combinations(S, k)]
        edges += [e for e in combinations(rest, k) if rng.below(2)]
        x = Hypergraph.from_edges(v, k, edges).bits
        inputs.append(x)
        if not planted:
            continue
        S = planted[0]
        inside = list(combinations(S, k))
        if inside:
            inputs.append(x ^ 1 << rank_subset(inside[rng.below(len(inside))], k))
        outside = [u for u in sigma if u not in S]
        inputs.append(x | 1 << rank_subset(S[:i] + outside[: k - i], k))
    return inputs


@pytest.mark.parametrize(
    "prop",
    [
        IsolatedVertexProperty(6),
        IsolatedVertexProperty(9),
        IsolatedTriangleProperty(6),
        IsolatedTriangleProperty(9),
        IsolatedCliqueProperty(8, 2, 1, 3),
        IsolatedCliqueProperty(8, 2, 1, 4),
        IsolatedCliqueProperty(8, 3, 1, 4),
        IsolatedCliqueProperty(9, 3, 1, 5),
        IsolatedCliqueProperty(8, 3, 2, 4),
        IsolatedCliqueProperty(9, 3, 2, 5),
    ],
    ids=_spec_id,
)
def test_witness_is_the_lexicographic_first_defect_free_set(prop):
    rng = SplitMix64(97)
    ones = 0
    for x in _oracle_inputs(prop, rng):
        expected = naive_isolated_clique_witness(prop.v, prop.k, prop.i, prop.h, x)
        assert prop.explain(x).witness == expected
        ones += expected is not None
    assert ones


def test_generic_clique_on_the_250_cycle():
    # no triangle, yet every vertex has the degree 2 of a triangle vertex,
    # so a degree filter alone keeps all 250 vertices as candidates
    v = 250
    cycle = Hypergraph.from_edges(v, 2, [(u, (u + 1) % v) for u in range(v)])
    assert IsolatedCliqueProperty(v, 2, 1, 3).value(cycle) == 0


class TestBatchEvaluator:
    """evaluate_batch over the (care, want) patterns against scalar value."""

    @pytest.mark.parametrize(
        "prop",
        [
            RubinsteinProperty(2),
            RubinsteinProperty(4),
            CyclicRubinsteinProperty(2),
            CyclicRubinsteinProperty(4),
            *(IsolatedVertexProperty(v) for v in range(1, 7)),
            *(IsolatedTriangleProperty(v) for v in range(3, 7)),
            IsolatedCliqueProperty(5, 3, 1, 4),
            IsolatedCliqueProperty(5, 3, 2, 4),
            IsolatedCliqueProperty(5, 3, 1, 5),
            IsolatedCliqueProperty(5, 2, 1, 3),
            IsolatedCliqueProperty(5, 3, 3, 4, allow_i_equal_k=True),
        ],
        ids=_spec_id,
    )
    def test_every_input(self, prop):
        xs = np.arange(1 << prop.n, dtype=np.uint64)
        expected = [prop.value(x) for x in range(1 << prop.n)]
        assert evaluate_batch(prop, xs).tolist() == [bool(e) for e in expected]

    @pytest.mark.parametrize(
        "prop",
        [
            IsolatedCliqueProperty(6, 3, 2, 4),
            IsolatedCliqueProperty(6, 3, 1, 4),
            IsolatedVertexProperty(7),
            IsolatedTriangleProperty(7),
        ],
        ids=_spec_id,
    )
    def test_seeded_inputs_at_n_20_21(self, prop):
        # uniform inputs, and planted witnesses under a random relabelling
        # and a sparse random flip mask, so that both values occur
        planted = prop.graph(prop.witness())
        rng = SplitMix64(43)
        inputs = []
        for j in range(10_000):
            x = rng.bits(prop.n)
            if j % 2:
                sparse = rng.bits(prop.n) & rng.bits(prop.n) & x
                x = planted.relabel(rng.permutation(prop.v)).bits ^ sparse
            inputs.append(x)
        got = evaluate_batch(prop, np.array(inputs, dtype=np.uint64))
        assert got.tolist() == [bool(prop.value(x)) for x in inputs]
        # both values occur, so neither side can pass by being constant
        assert 0 < got.sum() < len(inputs)

    def test_patterns_are_cached(self):
        f = IsolatedTriangleProperty(5)
        assert f.patterns() is f.patterns()
        assert len(f.patterns()) == math.comb(5, 3)


class TestWitnessTerm:
    """witness_term against terms built independently of it."""

    @pytest.mark.parametrize(
        "prop",
        [RubinsteinProperty(4), CyclicRubinsteinProperty(4)],
        ids=_spec_id,
    )
    def test_block_term_is_a_pattern(self, prop):
        terms = set(prop.patterns())
        rng = SplitMix64(71)
        ones = 0
        for _ in range(2000):
            x = rng.bits(prop.n) & rng.bits(prop.n)
            term = prop.witness_term(x)
            if not prop.value(x):
                assert term is None
                continue
            ones += 1
            care, want = term
            assert term in terms and x & care == want
            assert care.bit_count() == prop.witness_term_size()
        assert ones

    @pytest.mark.parametrize(
        "prop",
        [
            IsolatedVertexProperty(6),
            IsolatedTriangleProperty(6),
            IsolatedCliqueProperty(6, 3, 1, 4),
            IsolatedCliqueProperty(7, 3, 2, 4),
            IsolatedCliqueProperty(7, 3, 1, 5),
            IsolatedCliqueProperty(6, 2, 2, 3, allow_i_equal_k=True),
        ],
        ids=_spec_id,
    )
    def test_graph_term_of_the_witness_set(self, prop):
        # care: every edge meeting the witness S in at least i vertices;
        # want: the edges inside S
        edges = list(combinations(range(prop.v), prop.k))
        rank = {e: Hypergraph.from_edges(prop.v, prop.k, [e]).bits for e in edges}
        # the h-clique on the lowest vertices (h = 1: the empty graph)
        inside = combinations(range(prop.h), prop.k)
        planted = Hypergraph.from_edges(prop.v, prop.k, inside)
        rng = SplitMix64(73)
        ones = 0
        for j in range(200):
            x = planted.relabel(rng.permutation(prop.v)).bits
            x ^= rng.bits(prop.n) & rng.bits(prop.n) & rng.bits(prop.n)
            res = prop.explain(x)
            if not res.value:
                assert prop.witness_term(x) is None
                continue
            ones += 1
            S = set(res.witness)
            care = sum(rank[e] for e in edges if len(S.intersection(e)) >= prop.i)
            want = sum(rank[e] for e in edges if S.issuperset(e))
            assert prop.witness_term(x) == (care, want)
            assert care.bit_count() == prop.witness_term_size()
        assert ones

    def test_no_term_at_zero(self):
        assert IsolatedTriangleProperty(5).witness_term(0) is None


def test_property_json_round_trip():
    props = [
        RubinsteinProperty(4),
        CyclicRubinsteinProperty(2),
        IsolatedVertexProperty(6),
        IsolatedTriangleProperty(7),
        IsolatedCliqueProperty(8, 3, 2, 4),
        IsolatedCliqueProperty(7, 2, 2, 3, allow_i_equal_k=True),
    ]
    for p in props:
        q = property_from_json(p.spec_json())
        assert type(q) is type(p) and q.spec_json() == p.spec_json()
    from_t = property_from_json({"variant": "isolated-clique", "v": 16, "k": 2, "i": 1, "t": 0.5})
    assert from_t.h == 4


_PROTOCOL_CASES = [
    # one 1 at in-block position 1 of every block
    (RubinsteinProperty(4), 0x2222, 2, None),
    (CyclicRubinsteinProperty(4), 0x2222, 2, None),
    # K_4 on vertices 0..3 (ranks 0..5), vertex 4 isolated
    (IsolatedVertexProperty(5), 0b111111, 4, None),
    # one triangle, or one h-clique, on the lowest vertices
    (IsolatedTriangleProperty(7), 0b111, 3, triangle_packing(7)),
    (IsolatedCliqueProperty(7, 3, 1, 4), 0b1111, 4, clique_packing(7, 3)),
    (IsolatedCliqueProperty(7, 2, 1, 3), 0b111, 3, clique_packing(7, 2)),
    (IsolatedCliqueProperty(7, 3, 2, 5), 0b1111111111, 4, None),
    (IsolatedCliqueProperty(7, 2, 1, 4), 0b111111, 3, None),
]


@pytest.mark.parametrize(
    "prop, witness, block_cap, packing",
    _PROTOCOL_CASES,
    ids=[_spec_id(case[0]) for case in _PROTOCOL_CASES],
)
def test_protocol_pins_witness_cap_and_packing(prop, witness, block_cap, packing):
    assert prop.witness() == witness
    assert prop.block_cap == block_cap
    assert prop.packing() == packing
    assert property_from_json(prop.spec_json()).witness() == witness


def test_graph_bits_checks_the_input_shape():
    G = Hypergraph.from_edges(5, 2, [(0, 1)])
    assert IsolatedTriangleProperty(5).graph_bits(G) == 1
    with pytest.raises(BadParameter):
        IsolatedTriangleProperty(6).graph_bits(G)
    with pytest.raises(BadParameter):
        IsolatedCliqueProperty(5, 3, 1, 4).graph_bits(G)
    with pytest.raises(BadParameter):
        RubinsteinProperty(2).graph_bits(G)
    # value and explain route a hypergraph through graph_bits, so a
    # hypergraph with the right slot count but the wrong shape is rejected
    for prop, wrong in [
        (RubinsteinProperty(4), Hypergraph.empty(16, 1)),
        (CyclicRubinsteinProperty(4), Hypergraph.empty(16, 1)),
        (IsolatedVertexProperty(5), Hypergraph.empty(5, 3)),
        (IsolatedCliqueProperty(6, 3, 1, 4), Hypergraph.empty(20, 1)),
    ]:
        assert wrong.num_slots == prop.n
        for call in (prop.value, prop.explain):
            with pytest.raises(BadParameter):
                call(wrong)


def test_allow_i_equal_k_must_be_a_json_boolean():
    spec = {"variant": "isolated-clique", "v": 5, "k": 2, "i": 2, "h": 3}
    assert property_from_json({**spec, "allow_i_equal_k": True}).i == 2
    for absent in ({}, {"allow_i_equal_k": None}, {"allow_i_equal_k": False}):
        with pytest.raises(IOutOfRange):
            property_from_json({**spec, **absent})
    for bad in ("no", "true", 1, 0, [True]):
        with pytest.raises(BadParameter, match="allow_i_equal_k"):
            property_from_json({**spec, "allow_i_equal_k": bad})


def test_as_bits_coercions():
    assert as_bits("100000", 6) == 1
    assert as_bits([1, 0, 0, 0, 0, 0], 6) == 1


def test_sensitivity_entry_points_check_hypergraph_shape():
    """A Hypergraph input goes through graph_bits, so one on the wrong
    (v, k) is rejected even when its slot count matches n."""
    G = Hypergraph.from_edges(4, 2, [(0, 1)])
    assert input_bits(IsolatedVertexProperty(4), G) == 1
    with pytest.raises(BadParameter):
        input_bits(IsolatedVertexProperty(4), Hypergraph.from_edges(4, 3, [(0, 1, 2)]))
    vertex, wrong = IsolatedVertexProperty(5), Hypergraph.empty(5, 3)
    assert wrong.num_slots == vertex.n
    for call in (
        lambda: sensitivity_at(vertex, wrong),
        lambda: minimal_sensitive_blocks(vertex, wrong, 1),
        lambda: block_sensitivity_exact(vertex, wrong, 1),
        lambda: certify_blocks(vertex, wrong, []),
        lambda: enumerate_sensitive_tuples(
            IsolatedCliqueProperty(6, 3, 1, 4), Hypergraph.empty(20, 1)
        ),
    ):
        with pytest.raises(BadParameter):
            call()
