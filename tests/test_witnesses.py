"""Packings and witness constructions."""

import hashlib
import json
import math
import pathlib
from itertools import combinations

import pytest
from conftest import removed_edge_of

from hypersens.errors import (
    BadParameter,
    ConstructionUnavailable,
    HTooLarge,
    IntersectionTooLarge,
    SetOutOfRange,
    TooSmall,
)
from hypersens.families import generate_family, trim_sets
from hypersens.gf import make_field
from hypersens.hypergraphs import Hypergraph, boundary_count, rank_subset
from hypersens.properties import (
    IsolatedCliqueProperty,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
)
from hypersens.sensitivity import (
    block_sensitivity_exact,
    certify_blocks,
    enumerate_sensitive_tuples,
    sensitivity_at,
)
from hypersens.witnesses import (
    build_family_witness,
    build_isolated_vertex_witness,
    build_s0_witness,
    build_s1_witness,
    clique_packing,
    packing_edge_blocks,
    plan_family_witness,
    s1_witness_counts,
    select_vertex_disjoint,
    triangle_packing,
    witness_to_json,
)


def assert_edge_disjoint(packing):
    seen = set()
    for m in packing.members:
        for sub in combinations(m, packing.k):
            assert sub not in seen
            seen.add(sub)


class TestTrianglePacking:
    def test_small_cases(self):
        assert len(triangle_packing(3).members) == 1
        assert len(triangle_packing(9).members) == 12
        assert len(triangle_packing(7).members) >= 1  # falls back to v' = 3
        with pytest.raises(TooSmall):
            triangle_packing(2)

    @pytest.mark.parametrize("v", [3, 9, 15, 21, 27, 33])
    def test_steiner_system_covers_every_pair_once(self, v):
        packing = triangle_packing(v)
        seen = set()
        for m in packing.members:
            for pair in combinations(m, 2):
                assert pair not in seen
                seen.add(pair)
        assert len(seen) == v * (v - 1) // 2
        assert len(packing.members) == v * (v - 1) // 6

    def test_count_guarantee_up_to_200(self):
        for v in range(9, 201):
            count = len(triangle_packing(v).members)
            assert count >= (v - 5) * (v - 6) // 6

    def test_members_share_at_most_one_vertex(self):
        packing = triangle_packing(15)
        for a, b in combinations(packing.members, 2):
            assert len(set(a) & set(b)) <= 1


class TestCliquePacking:
    def test_single_clique(self):
        assert clique_packing(4, 3).members == ((0, 1, 2, 3),)
        with pytest.raises(TooSmall):
            clique_packing(3, 3)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_k_below_2(self, k):
        with pytest.raises(BadParameter):
            clique_packing(5, k)

    def test_k2_v6_matches_exact_packing(self):
        packing = clique_packing(6, 2)
        exact = block_sensitivity_exact(IsolatedTriangleProperty(6), 0, 3).value
        assert len(packing.members) == exact == 4

    def test_k3_v8_meets_the_bound(self):
        count = len(clique_packing(8, 3).members)
        assert count >= math.ceil(math.comb(8, 4) / (4 * 4 + 1))  # >= 5

    @pytest.mark.parametrize("v,k", [(6, 2), (9, 2), (13, 2), (7, 3), (10, 3), (8, 4)])
    def test_edge_disjoint_and_maximality_bound(self, v, k):
        packing = clique_packing(v, k)
        assert_edge_disjoint(packing)
        bound = math.comb(v, k + 1) / ((k + 1) * (v - k - 1) + 1)
        assert len(packing.members) >= bound


def test_select_vertex_disjoint():
    sel = select_vertex_disjoint(triangle_packing(9))
    assert len(sel.members) == 3
    used = set()
    for m in sel.members:
        assert not used.intersection(m)
        used.update(m)


@pytest.mark.parametrize(
    "packing,spec",
    [
        (triangle_packing(9), IsolatedCliqueProperty(9, 2, 1, 3)),
        (clique_packing(8, 3), IsolatedCliqueProperty(8, 3, 1, 4)),
    ],
    ids=["triangles", "k3-cliques"],
)
def test_packing_blocks_certify_at_empty_graph(packing, spec):
    blocks = packing_edge_blocks(packing)
    cert = certify_blocks(spec, Hypergraph.empty(spec.v, spec.k), blocks)
    assert cert.count == len(packing.members)


class TestS0Witness:
    def test_single_near_triangle(self):
        G, count = build_s0_witness([(0, 1, 2)], 3, 2, 1, 3)
        assert count == 1 and G.edge_count == 2
        f = IsolatedTriangleProperty(3)
        assert f.value(G) == 0
        assert sensitivity_at(f, G).s_at_x >= 1

    def test_disjoint_triples_from_packing(self):
        v = 15
        sel = select_vertex_disjoint(triangle_packing(v))
        G, count = build_s0_witness(sel.members, v, 2, 1, 3)
        f = IsolatedTriangleProperty(v)
        assert f.value(G) == 0
        report = sensitivity_at(f, G)
        assert report.s_at_x >= count == len(sel.members)
        for m in sel.members:
            assert removed_edge_of(m, 2) in report.sensitive_bits

    def test_field_family_route_k3(self):
        fam = trim_sets(generate_family(make_field(5, 1), 2, 1), 4)
        G, count = build_s0_witness(fam, 25, 3, 2, 4)
        assert count == 25
        spec = IsolatedCliqueProperty(25, 3, 2, 4)
        assert spec.value(G) == 0
        # every removed edge is individually sensitive
        vertex_sets = [tuple(e - 1 for e in s) for s in fam.sets]
        for s in vertex_sets:
            flipped = G.flip_edge(removed_edge_of(s, 3))
            assert spec.value(flipped) == 1
        tuples = enumerate_sensitive_tuples(spec, G)
        assert len(tuples) >= count

    def test_precondition_validation(self):
        with pytest.raises(IntersectionTooLarge):
            build_s0_witness([(0, 1, 2), (2, 3, 4)], 6, 2, 1, 3)
        # the first offending pair a < b, by a and then b, is named
        with pytest.raises(IntersectionTooLarge, match="sets #0 and #2 share 1 "):
            build_s0_witness([(0, 1, 2), (3, 4, 5), (2, 6, 7), (1, 3, 8)], 9, 2, 1, 3)
        # #1/#2 is met first when scanning by the later set; #0/#3 comes
        # first by a and then b
        with pytest.raises(IntersectionTooLarge, match="sets #0 and #3 share 1 "):
            build_s0_witness([(0, 1, 2), (3, 4, 5), (3, 6, 7), (0, 8, 9)], 10, 2, 1, 3)
        # with i = 0 even disjoint sets share too much
        with pytest.raises(IntersectionTooLarge, match="#0 and #1 share 0 >= i = 0"):
            build_s0_witness([(0, 1, 2), (3, 4, 5), (6, 7, 8)], 9, 2, 0, 3)
        with pytest.raises(SetOutOfRange):
            build_s0_witness([(0, 1, 9)], 6, 2, 1, 3)
        with pytest.raises(BadParameter):
            build_s0_witness([(0, 1)], 6, 2, 1, 3)

    def test_sharing_below_i_is_allowed(self):
        G, count = build_s0_witness([(0, 1, 2, 3), (3, 4, 5, 6)], 7, 3, 2, 4)
        assert count == 2
        assert IsolatedCliqueProperty(7, 3, 2, 4).value(G) == 0


class TestS1Witness:
    def test_triangle_counts(self):
        f5 = IsolatedTriangleProperty(5)
        assert sensitivity_at(f5, build_s1_witness(5, 2, 1, 3)).s_at_x == 9
        f3 = IsolatedTriangleProperty(3)
        assert sensitivity_at(f3, build_s1_witness(3, 2, 1, 3)).s_at_x == 3

    def test_k3_count_matches_boundary_formula(self):
        spec = IsolatedCliqueProperty(7, 3, 2, 4)
        w = build_s1_witness(7, 3, 2, 4)
        report = sensitivity_at(spec, w)
        assert report.s_at_x == math.comb(4, 3) + boundary_count(7, range(4), 2, 3)

    def test_counts_report_exact_and_two_term_separately(self):
        # triangle case: exact 3 + 3(v-3), two-term 3 + 3(v-1); they differ
        # at finite v and only the exact one matches the measured value
        assert s1_witness_counts(5, 2, 1, 3) == (9, 15)
        assert s1_witness_counts(7, 3, 2, 4) == (22, 34)
        for v, k, i, h in [(6, 2, 1, 3), (8, 3, 1, 4), (8, 3, 2, 4)]:
            exact, two_term = s1_witness_counts(v, k, i, h)
            spec = IsolatedCliqueProperty(v, k, i, h)
            measured = sensitivity_at(spec, build_s1_witness(v, k, i, h)).s_at_x
            assert exact == measured
            assert two_term >= exact

    @pytest.mark.parametrize("v,k,i,h", [(6, 2, 1, 3), (8, 2, 1, 3), (7, 3, 1, 4), (8, 3, 2, 4)])
    def test_sensitive_set_is_inside_plus_boundary(self, v, k, i, h):
        spec = IsolatedCliqueProperty(v, k, i, h)
        w = build_s1_witness(v, k, i, h)
        assert spec.value(w) == 1
        S = set(range(h))
        expected = set()
        for sub in combinations(range(v), k):
            c = len(S.intersection(sub))
            if c == k or i <= c <= k - 1:
                expected.add(rank_subset(sub, k))
        assert set(sensitivity_at(spec, w).sensitive_bits) == expected

    def test_h_too_large(self):
        with pytest.raises(HTooLarge):
            build_s1_witness(4, 2, 1, 5)

    @pytest.mark.parametrize(
        "k,i,h", [(2, 1, -1), (2, 1, 2), (3, 1, 3), (2, 0, 3), (2, 3, 3), (3, 9, 4)]
    )
    def test_h_below_k_plus_1_or_i_outside_1_to_k(self, k, i, h):
        with pytest.raises(BadParameter):
            build_s1_witness(6, k, i, h)


class TestIsolatedVertexWitness:
    @pytest.mark.parametrize("v,expected", [(4, 3), (5, 4), (7, 6)])
    def test_sensitivity_is_v_minus_1(self, v, expected):
        f = IsolatedVertexProperty(v)
        assert sensitivity_at(f, build_isolated_vertex_witness(v)).s_at_x == expected

    def test_clique_edges_not_sensitive_for_v5(self):
        w = build_isolated_vertex_witness(5)
        f = IsolatedVertexProperty(5)
        for pair in combinations(range(4), 2):
            assert f.value(w.flip_edge(rank_subset(pair, 2))) == 1

    def test_too_small(self):
        with pytest.raises(TooSmall):
            build_isolated_vertex_witness(3)


class TestFamilyWitnessPlan:
    def test_even_k2(self):
        plan = plan_family_witness(16, 2)
        assert (plan.q, plan.d, plan.ell, plan.i, plan.h) == (4, 1, 1, 1, 3)
        G, count, prop = build_family_witness(16, 2)
        assert count == 4
        assert prop.value(G) == 0
        report = sensitivity_at(prop, G)
        assert report.s_at_x >= count

    def test_even_k2_needs_16_vertices(self):
        with pytest.raises(ConstructionUnavailable):
            plan_family_witness(15, 2)

    def test_odd_k3(self):
        plan = plan_family_witness(625, 3)
        assert plan.q == 4 and plan.ell == 3 and plan.d == 2
        G, count, prop = build_family_witness(625, 3, limit=12)
        assert count == 12 and prop.value(G) == 0
        tuples = enumerate_sensitive_tuples(prop, G)
        assert len(tuples) >= count

    def test_odd_k3_unavailable_at_tiny_v(self):
        with pytest.raises(ConstructionUnavailable):
            plan_family_witness(30, 3)


_FAMILY_TUPLES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "family_tuples.json").read_text()
)


@pytest.mark.parametrize(
    "call", sorted(c for c, want in _FAMILY_TUPLES.items() if isinstance(want, list))
)
def test_family_witness_tuples_are_golden(call):
    """Every sensitive tuple (vertices, edge, direction) of the prefix family
    witnesses that the family_route benchmark certifies, pinned in full."""
    v, k, limit = map(int, call[call.index("(") + 1 : -1].split(","))
    G, count, prop = build_family_witness(v, k, limit)
    tuples = enumerate_sensitive_tuples(prop, G)
    got = [[list(t.vertices), t.edge, t.direction] for t in tuples]
    assert got == _FAMILY_TUPLES[call]
    assert len(tuples) == count


def test_full_family_witness_is_golden():
    """The whole v = 300, k = 3 family witness, pinned by a digest of its
    bitset (little-endian, C(300, 3) bits rounded up to bytes)."""
    G, count, prop = build_family_witness(300, 3)
    blob = G.bits.to_bytes((G.num_slots + 7) // 8, "little")
    got = {
        "sets": count,
        "edge_count": G.edge_count,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    assert got == _FAMILY_TUPLES["build_family_witness(300, 3)"]


def test_witness_json_metadata():
    G = build_s1_witness(5, 2, 1, 3)
    obj = witness_to_json(G, "single-clique", {"v": 5, "h": 3}, 0)
    assert obj["metadata"]["construction"] == "single-clique"
    assert Hypergraph.from_json(obj) == G
