"""Packings and witness constructions."""

import hashlib
import json
import math
import pathlib
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from conftest import (
    clique_packing_oracle,
    flip_edge,
    packing_edge_blocks_oracle,
    removed_edge_of,
    s0_bits_oracle,
)

from hypersens.errors import BadParameter, TooLarge
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
    Packing,
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
        with pytest.raises(BadParameter, match="triangle packing needs v >= 3"):
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
        with pytest.raises(BadParameter, match=r"clique packing needs v >= k\+1 = 4"):
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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_the_set_of_tuples_oracle(self, k):
        for v in range(k + 1, 25):
            assert clique_packing(v, k).members == clique_packing_oracle(v, k)

    @pytest.mark.parametrize(
        "v,k,count,digest",
        [
            (44, 4, 17_558,
             "d4db5a215f2a547a8c3e1ef19d306da6018f0515916572bc74f745d55d652985"),
            (62, 4, 101_123,
             "ca9debbc8c8162edd6963ad4d95a9558326ccb00fac7a43d7ef3b5f1778d7fb1"),
        ],
    )
    def test_large_packings_are_pinned(self, v, k, count, digest):
        """Member count and the SHA-256 of the members as compact JSON,
        recorded from the greedy that ranked every candidate's faces in one
        array gather, past the range the set-of-tuples oracle covers."""
        members = clique_packing(v, k).members
        text = json.dumps([list(m) for m in members], separators=(",", ":"))
        assert len(members) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_memory_stays_linear_in_the_faces(self):
        """The link masks hold one int per (k-1)-set, C(44, 3) = 13,244 of
        them at (44, 4); the greedy that held every candidate's faces at
        once peaked at 69.7 MB under tracemalloc there."""
        tracemalloc.start()
        try:
            clique_packing(44, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


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


def test_packing_edge_blocks_match_the_rank_subset_oracle():
    packings = [triangle_packing(v) for v in range(3, 60, 4)]
    packings += [clique_packing(v, k) for v, k in [(9, 2), (12, 3), (11, 4)]]
    # no member; members larger than k+1, whose faces in lex order are not
    # in rank order; and members whose ranks pass 2^63 (C(400, 12) does)
    packings += [
        Packing(5, 2, ()),
        Packing(9, 2, ((0, 1, 2, 3), (4, 5, 6, 7))),
        Packing(400, 12, (tuple(range(13)), tuple(range(13, 26)))),
    ]
    for packing in packings:
        assert packing_edge_blocks(packing) == packing_edge_blocks_oracle(packing)
    # C(400, 12) >= 2^63, and the faces of a member on the largest vertices
    # have ranks past 2^63
    with pytest.raises(TooLarge, match=r"reach 2\^63"):
        packing_edge_blocks(Packing(400, 12, (tuple(range(387, 400)),)))


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
        vertex_sets = [tuple(e - 1 for e in s) for s in fam.sets]  # 1..24 used
        G, count = build_s0_witness(vertex_sets, 25, 3, 2, 4)
        assert count == 25
        spec = IsolatedCliqueProperty(25, 3, 2, 4)
        assert spec.value(G) == 0
        # every removed edge is individually sensitive
        for s in vertex_sets:
            flipped = flip_edge(G, removed_edge_of(s, 3))
            assert spec.value(flipped) == 1
        tuples = enumerate_sensitive_tuples(spec, G)
        assert len(tuples) >= count

    def test_precondition_validation(self):
        with pytest.raises(BadParameter, match="sets #0 and #1 share 1 >= i = 1"):
            build_s0_witness([(0, 1, 2), (2, 3, 4)], 6, 2, 1, 3)
        # the first offending pair a < b, by a and then b, is named
        with pytest.raises(BadParameter, match="sets #0 and #2 share 1 "):
            build_s0_witness([(0, 1, 2), (3, 4, 5), (2, 6, 7), (1, 3, 8)], 9, 2, 1, 3)
        # #1/#2 is met first when scanning by the later set; #0/#3 comes
        # first by a and then b
        with pytest.raises(BadParameter, match="sets #0 and #3 share 1 "):
            build_s0_witness([(0, 1, 2), (3, 4, 5), (3, 6, 7), (0, 8, 9)], 10, 2, 1, 3)
        # with i = 0 even disjoint sets share too much
        with pytest.raises(BadParameter, match="#0 and #1 share 0 >= i = 0"):
            build_s0_witness([(0, 1, 2), (3, 4, 5), (6, 7, 8)], 9, 2, 0, 3)
        with pytest.raises(BadParameter, match=r"set \(0, 1, 9\) leaves \[0, 6\)"):
            build_s0_witness([(0, 1, 9)], 6, 2, 1, 3)
        with pytest.raises(BadParameter, match="has size 2, expected h = 3"):
            build_s0_witness([(0, 1)], 6, 2, 1, 3)
        # no isolated-clique property has h < k+1: below it the sets are
        # too small to hold an edge, and at h = k a placed set has none left
        with pytest.raises(BadParameter, match=r"need h >= k\+1, got h=2, k=3"):
            build_s0_witness([(0, 1)], 5, 3, 1, 2)
        with pytest.raises(BadParameter, match=r"need h >= k\+1, got h=3, k=3"):
            build_s0_witness([(0, 1, 2)], 5, 3, 1, 3)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_ranks_match_the_rank_subset_loop(self, k, seed):
        rng = random.Random(seed)
        v, h, i = rng.randint(k + 4, 40), rng.randint(k + 1, k + 3), rng.randint(1, k)
        sets = []
        for _ in range(40):
            s = set(rng.sample(range(v), h))
            if all(len(s & t) < i for t in sets):
                sets.append(s)
        G, count = build_s0_witness(sets, v, k, i, h)
        assert count == len(sets) and G.bits == s0_bits_oracle(sets, k)

    def test_ranks_match_the_rank_subset_loop_past_int64(self):
        # C(400, 12) >= 2^63: two disjoint 13-sets on the vertices 0..25
        sets = [range(13), range(13, 26)]
        G, count = build_s0_witness(sets, 400, 12, 1, 13)
        assert count == 2 and G.bits == s0_bits_oracle(sets, 12)
        assert G.edge_count == 2 * 12

    def test_ranks_match_the_rank_subset_loop_on_the_v300_family(self):
        plan = plan_family_witness(300, 3)
        fam = trim_sets(generate_family(make_field(2, 2), plan.d, plan.ell), plan.h)
        vertex_sets = [[e - 1 for e in s] for s in fam.sets]  # all 256 used
        G, count = build_s0_witness(vertex_sets, 300, 3, plan.i, plan.h)
        assert count == 4096 and G.bits == s0_bits_oracle(vertex_sets, 3)

    @pytest.mark.parametrize(
        "sets,k,h",
        [([(0, 2, 2, 3)], 3, 4), ([(0, 2, 2)], 2, 3), ([(3, 3)], 1, 2),
         ([(0, 1, 2), (1, 4, 4)], 1, 3)],
    )
    def test_repeated_vertices_are_rejected(self, sets, k, h):
        # a repeat in the removed k-subset alone would place a set with
        # no near-clique at all
        bad = re.escape(str(tuple(sorted(sets[-1]))))
        with pytest.raises(BadParameter, match=f"repeated vertex in {bad}"):
            build_s0_witness(sets, 5, k, 1, h)

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
        assert report.s_at_x == math.comb(4, 3) + boundary_count(7, 4, 2, 3)

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

    @pytest.mark.parametrize("v,k,h", [(3, 2, 3), (9, 2, 5), (8, 3, 4), (300, 3, 4), (12, 4, 9)])
    def test_bits_match_the_rank_subset_loop(self, v, k, h):
        bits = 0
        for sub in combinations(range(h), k):
            bits |= 1 << rank_subset(sub, k)
        assert build_s1_witness(v, k, 1, h).bits == bits

    def test_h_too_large(self):
        with pytest.raises(BadParameter, match="clique size 5 exceeds v = 4"):
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
            assert f.value(flip_edge(w, rank_subset(pair, 2))) == 1

    @pytest.mark.parametrize("v", [4, 5, 60])
    def test_bits_match_the_rank_subset_loop(self, v):
        bits = 0
        for pair in combinations(range(v - 1), 2):
            bits |= 1 << rank_subset(pair, 2)
        assert build_isolated_vertex_witness(v).bits == bits

    def test_too_small(self):
        with pytest.raises(BadParameter, match="need v >= 4"):
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
        with pytest.raises(BadParameter, match=r"v = 15 is too small: need v >= q\^2 = 16"):
            plan_family_witness(15, 2)

    def test_odd_k3(self):
        plan = plan_family_witness(625, 3)
        assert plan.q == 4 and plan.ell == 3 and plan.d == 2
        G, count, prop = build_family_witness(625, 3, limit=12)
        assert count == 12 and prop.value(G) == 0
        tuples = enumerate_sensitive_tuples(prop, G)
        assert len(tuples) >= count

    def test_odd_k3_unavailable_at_tiny_v(self):
        with pytest.raises(BadParameter, match="no usable prime power strictly inside"):
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
