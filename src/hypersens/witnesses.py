"""Constructive inputs that certify sensitivity lower bounds.

Three families of constructions:

  * edge-disjoint packings -- a Steiner-triple-system triangle packing for
    graphs (deterministic, ~v^2/6 members) and a greedy-to-maximality
    packing of complete (k+1)-vertex k-uniform cliques (>= C(v,k+1) /
    ((k+1)(v-k-1)+1) members by maximality);
  * near-clique unions -- place low-intersection vertex sets as cliques,
    delete one edge from each; re-adding any deleted edge creates an
    isolated clique, so each placed set contributes one certified 0->1
    sensitive bit;
  * single-clique and isolated-vertex inputs whose 1->0 sensitive bits have
    a closed form.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BadParameter,
    ConstructionUnavailable,
    HTooLarge,
    IntersectionTooLarge,
    SetOutOfRange,
    TooSmall,
)
from .families import SetFamily, first_overlap, generate_family, trim_sets
from .gf import make_field, prime_power, prime_power_in_range
from .hypergraphs import Hypergraph, bits_of_ranks, boundary_count, rank_subset
from .properties import IsolatedCliqueProperty


@dataclass(frozen=True)
class Packing:
    v: int
    k: int
    members: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "v": self.v,
            "k": self.k,
            "members": [[u + 1 for u in m] for m in self.members],
        }


def triangle_packing(v: int) -> Packing:
    """Edge-disjoint triangles: a Steiner triple system on the largest
    v' <= v with v' = 3 (mod 6), leftover vertices unused.

    The triples on Z_n x {0,1,2} (n = 2t+1, v' = 6t+3) are the columns
    {(x,0),(x,1),(x,2)} plus {(x,j),(y,j),((x+y)(t+1) mod n, j+1)} for
    x < y; point (x, j) becomes vertex j*n + x.  Member count is
    v'(v'-1)/6 >= (v-5)(v-6)/6 for v >= 9.
    """
    if v < 3:
        raise TooSmall("triangle packing needs v >= 3")
    vp = v
    while vp % 6 != 3:
        vp -= 1
    t = (vp - 3) // 6
    n = 2 * t + 1
    half = t + 1  # the inverse of 2 mod n
    members = []
    for x in range(n):
        members.append(tuple(sorted((x, n + x, 2 * n + x))))
    for j in range(3):
        for x in range(n):
            for y in range(x + 1, n):
                z = ((x + y) * half) % n
                members.append(
                    tuple(sorted((j * n + x, j * n + y, ((j + 1) % 3) * n + z)))
                )
    members.sort()
    return Packing(v, 2, tuple(members))


def clique_packing(v: int, k: int) -> Packing:
    """Greedy-to-maximality edge-disjoint complete (k+1)-vertex k-uniform
    cliques, scanning (k+1)-subsets in lex order and rejecting any candidate
    that shares a k-subset with an accepted member."""
    if k < 2:
        raise BadParameter("need k >= 2")
    if v < k + 1:
        raise TooSmall(f"clique packing needs v >= k+1 = {k + 1}")
    used: set[tuple[int, ...]] = set()
    members = []
    for cand in combinations(range(v), k + 1):
        subs = list(combinations(cand, k))
        if any(s in used for s in subs):
            continue
        used.update(subs)
        members.append(cand)
    return Packing(v, k, tuple(members))


def select_vertex_disjoint(packing: Packing) -> Packing:
    """First-fit subfamily of pairwise vertex-disjoint members."""
    used: set[int] = set()
    picked = []
    for m in packing.members:
        if not used.intersection(m):
            picked.append(m)
            used.update(m)
    return Packing(packing.v, packing.k, tuple(picked))


def packing_edge_blocks(packing: Packing) -> list[tuple[int, ...]]:
    """Each member as the sorted edge ids of its complete k-uniform clique."""
    k = packing.k
    return [
        tuple(sorted(rank_subset(sub, k) for sub in combinations(m, k)))
        for m in packing.members
    ]


def _family_vertex_sets(family: SetFamily, v: int) -> list[tuple[int, ...]]:
    """Map universe elements to vertices 0..v-1 by sorted order of use."""
    elements = sorted({e for s in family.sets for e in s})
    if len(elements) > v:
        raise SetOutOfRange(
            f"family uses {len(elements)} elements but only {v} vertices exist"
        )
    index = {e: i for i, e in enumerate(elements)}
    return [tuple(sorted(index[e] for e in s)) for s in family.sets]


def build_s0_witness(family, v: int, k: int, i: int, h: int):
    """Union of near-cliques: each set becomes a clique minus its lex-largest
    edge.  Returns (hypergraph, number of placed sets); the function value is
    0 and re-adding any removed edge flips it to 1.

    `family` is either a SetFamily (trimmed to sets of size h; universe
    elements are relabeled to vertices by sorted order) or an iterable of
    vertex sets in [0, v).  Pairwise intersections must stay below i, which
    makes every completed clique automatically isolated.
    """
    if isinstance(family, SetFamily):
        vertex_sets = _family_vertex_sets(family, v)
    else:
        vertex_sets = [tuple(sorted(s)) for s in family]
        for s in vertex_sets:
            if s and (s[0] < 0 or s[-1] >= v):
                raise SetOutOfRange(f"set {s} leaves [0, {v})")
    for s in vertex_sets:
        if len(s) != h:
            raise BadParameter(f"set {s} has size {len(s)}, expected h = {h}")
    overlap = first_overlap(vertex_sets, i)
    if overlap is not None:
        a, b, inter = overlap
        raise IntersectionTooLarge(
            f"sets #{a} and #{b} share {inter} >= i = {i} vertices"
        )
    ranks = []
    for s in vertex_sets:
        inside = sorted(combinations(s, k))
        removed = inside[-1]
        ranks.extend(rank_subset(sub, k) for sub in inside if sub != removed)
    return Hypergraph(v, k, bits_of_ranks(ranks)), len(vertex_sets)


def build_s1_witness(v: int, k: int, i: int, h: int) -> Hypergraph:
    """Single complete k-uniform clique on vertices {0..h-1}, nothing else,
    the 1-side witness of the isolated h-clique property at level i."""
    if h < k + 1 or not 1 <= i <= k:
        raise BadParameter(f"need h >= k+1 and 1 <= i <= k, got h={h}, i={i}, k={k}")
    if h > v:
        raise HTooLarge(f"clique size {h} exceeds v = {v}")
    bits = bits_of_ranks(rank_subset(sub, k) for sub in combinations(range(h), k))
    return Hypergraph(v, k, bits)


def s1_witness_counts(v: int, k: int, i: int, h: int) -> tuple[int, int]:
    """(exact, two_term) sensitive-bit counts at the single-clique input.

    The exact count is the C(h,k) inside removals plus every addition slot
    meeting the clique in i..k-1 vertices.  The two-term form
    C(h,k) + C(h,i)*C(v-i, k-i) keeps only the exactly-i additions but
    draws the remaining vertices from all v-i others; it is the right
    leading-order count yet differs from the exact value at finite v, so
    the two are reported side by side and never asserted equal.
    """
    exact = math.comb(h, k) + boundary_count(v, range(h), i, k)
    two_term = math.comb(h, k) + math.comb(h, i) * math.comb(v - i, k - i)
    return exact, two_term


def build_isolated_vertex_witness(v: int) -> Hypergraph:
    """Complete graph on {0..v-2} with vertex v-1 isolated; exactly the v-1
    edges at the isolated vertex are sensitive."""
    if v < 4:
        raise TooSmall("need v >= 4")
    bits = bits_of_ranks(rank_subset(sub, 2) for sub in combinations(range(v - 1), 2))
    return Hypergraph(v, 2, bits)


@dataclass(frozen=True)
class FamilyWitnessPlan:
    q: int
    d: int
    ell: int
    i: int
    h: int
    t: float


def plan_family_witness(v: int, k: int) -> FamilyWitnessPlan:
    """Parameters of the field-family route to a 0-side witness with
    ~v^(k/2) certified sensitive bits.

    Even k: a prime power q in (k+1, 2(k+1)), d = i = k/2, clique size
    h = k+1, and ell = floor(log_q v) - 1 so the universe fits in v.
    Odd k: q in (v^t / 2, v^t) for t = 1/(k+1), d = i = (k+1)/2, ell = k.
    Raises ConstructionUnavailable when no integer ell >= 1 or no prime
    power exists in the required interval at this v.
    """
    if k < 2:
        raise BadParameter("need k >= 2")
    if k % 2 == 0:
        pm = prime_power_in_range(k + 1, 2 * (k + 1))
        if pm is None:
            raise ConstructionUnavailable(
                f"no prime power strictly between {k + 1} and {2 * (k + 1)}"
            )
        q = pm[0] ** pm[1]
        ell = 0
        while q ** (ell + 2) <= v:
            ell += 1
        if ell < 1:
            raise ConstructionUnavailable(
                f"v = {v} is too small: need v >= q^2 = {q * q}"
            )
        return FamilyWitnessPlan(q=q, d=k // 2, ell=ell, i=k // 2, h=k + 1, t=0.0)
    t = 1.0 / (k + 1)
    vt = v**t
    d = (k + 1) // 2
    q = None
    for cand in range(math.floor(vt / 2) + 1, math.ceil(vt)):
        if not vt / 2 < cand < vt:
            continue
        # the sets get trimmed to k+1 elements, so q must be at least that
        if cand >= max(k + 1, d) and prime_power(cand) is not None:
            q = cand
            break
    if q is None:
        raise ConstructionUnavailable(
            f"no usable prime power strictly inside ({vt / 2:.2f}, {vt:.2f})"
        )
    return FamilyWitnessPlan(q=q, d=d, ell=k, i=d, h=k + 1, t=t)


def build_family_witness(v: int, k: int, limit: int | None = None):
    """Run the field-family plan end to end.

    Returns (hypergraph, placed-set count, matching IsolatedCliqueProperty).
    """
    plan = plan_family_witness(v, k)
    p, m = prime_power(plan.q)
    fam = generate_family(make_field(p, m), plan.d, plan.ell, limit)
    trimmed = trim_sets(fam, plan.h)
    graph, count = build_s0_witness(trimmed, v, k, plan.i, plan.h)
    prop = IsolatedCliqueProperty(v, k, plan.i, plan.h)
    return graph, count, prop


def witness_to_json(
    G: Hypergraph, construction: str, parameters: dict, expected_tuples: int
) -> dict:
    out = G.to_json()
    out["metadata"] = {
        "construction": construction,
        "parameters": parameters,
        "expected_tuples": expected_tuples,
    }
    return out
