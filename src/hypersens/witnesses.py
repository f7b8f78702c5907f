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
from itertools import chain, combinations

import numpy as np

from .errors import BadParameter
from .families import (
    SetFamily,
    first_overlap,
    generate_family,
    run_heads,
    set_incidence,
    trim_sets,
)
from .gf import make_field, prime_power, prime_power_in_range
from .hypergraphs import (
    Hypergraph,
    bits_of_ranks,
    boundary_count,
    colex_ranks,
    lex_subsets,
)
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
        raise BadParameter("triangle packing needs v >= 3")
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
    that shares a k-subset with an accepted member: the constant-weight
    lexicode of (k+1)-sets that pairwise share fewer than k points (Conway
    and Sloane, "Lexicographic codes", IEEE Trans. IT 1986).

    The scan runs one (k-1)-prefix at a time.  A candidate is Q + (c, d)
    for its first k-1 vertices Q and c < d above them, and its faces are
    Q + c, Q + d and (Q - q) + (c, d) for each q in Q.  For each (k-1)-set
    F a bitmask link[F] holds the z > max(F) with F + z a used face, so
    every face is one bit of one mask: bit c of link[Q], bit d of link[Q]
    and bit d of link[(Q - q) + c].  Over the prefixes Q in lex order, then
    c ascending, the first free d is the lowest bit above c clear in
    link[Q] | OR_q link[(Q - q) + c]; taking it uses Q + c, which every
    later candidate with this (Q, c) holds, so one bit pick per (Q, c)
    is the whole greedy.  The masks are indexed by colex rank, and the
    rank of (Q - q) + c is that of Q - q plus C(c, k-1)."""
    if k < 2:
        raise BadParameter("need k >= 2")
    if v < k + 1:
        raise BadParameter(f"clique packing needs v >= k+1 = {k + 1}")

    def rank(S):
        # S is sorted and in range: rank_subset's checks would double the
        # time of the k = 3 scan rows
        return sum(math.comb(a, j + 1) for j, a in enumerate(S))

    link = [0] * math.comb(v, k - 1)
    top = [math.comb(c, k - 1) for c in range(v)]
    above = [((1 << v) - 1) & (-2 << c) for c in range(v)]
    members = []
    for Q in combinations(range(v - 2), k - 1):
        at = rank(Q)
        drops = [rank(Q[:t] + Q[t + 1 :]) for t in range(k - 1)]
        used = link[at]
        for c in range(Q[-1] + 1, v - 1):
            if used >> c & 1:
                continue
            shift = top[c]
            taken = used
            for r in drops:
                taken |= link[r + shift]
            free = above[c] & ~taken
            if free:
                d = free & -free
                used |= (1 << c) | d
                for r in drops:
                    link[r + shift] |= d
                members.append((*Q, c, d.bit_length() - 1))
        link[at] = used
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
    """Each member as the sorted edge ids of its complete k-uniform clique,
    all ranked in one gather."""
    if not packing.members:
        return []
    members = np.array(packing.members, dtype=np.int64)
    faces = lex_subsets(members.shape[1], packing.k)
    ranks = colex_ranks(packing.v, packing.k, members[:, faces])
    return [tuple(sorted(r)) for r in ranks.tolist()]


def _family_vertex_sets(family: SetFamily, v: int) -> list[list[int]]:
    """Map universe elements to vertices 0..v-1 by sorted order of use."""
    sizes = np.fromiter(map(len, family.sets), np.int64, len(family.sets))
    flat = np.fromiter(chain.from_iterable(family.sets), np.int64, int(sizes.sum()))
    elements = np.sort(flat)
    elements = elements[run_heads(elements)]
    if len(elements) > v:
        raise BadParameter(
            f"family uses {len(elements)} elements but only {v} vertices exist"
        )
    vertices = np.searchsorted(elements, flat).tolist()
    ends = np.cumsum(sizes).tolist()
    return [vertices[end - size : end] for size, end in zip(sizes.tolist(), ends)]


def build_s0_witness(vertex_sets, v: int, k: int, i: int, h: int):
    """Union of near-cliques: each set becomes a clique minus its lex-largest
    edge.  Returns (hypergraph, number of placed sets); the function value is
    0 and re-adding any removed edge flips it to 1.

    `vertex_sets` is a sequence of h-sets of vertices in [0, v) (see
    _family_vertex_sets for a SetFamily).  Pairwise intersections must stay
    below i, which makes every completed clique automatically isolated.
    The checks run on the sets' incidence (`families.set_incidence`).
    """
    if h < k + 1:
        raise BadParameter(f"need h >= k+1, got h={h}, k={k}")
    incidence = set_incidence(vertex_sets)
    sizes, owners, vertices = incidence
    n = len(sizes)
    outside = np.flatnonzero(
        np.bincount(owners[(vertices < 0) | (vertices >= v)], minlength=n)
    )
    if len(outside):
        s = tuple(sorted(vertex_sets[outside[0]]))
        raise BadParameter(f"set {s} leaves [0, {v})")
    bad = np.flatnonzero((sizes != h) | (np.bincount(owners, minlength=n) != h))
    if len(bad):
        s = tuple(sorted(vertex_sets[bad[0]]))
        if len(s) != h:
            raise BadParameter(f"set {s} has size {len(s)}, expected h = {h}")
        raise BadParameter(f"repeated vertex in {s}")
    overlap = first_overlap(vertex_sets, i, incidence)
    if overlap is not None:
        a, b, inter = overlap
        raise BadParameter(
            f"sets #{a} and #{b} share {inter} >= i = {i} vertices"
        )
    # each set's vertices, ascending, form one row; its k-subsets in lex
    # order but the last, the removed one
    inside = vertices.reshape(n, h)[:, lex_subsets(h, k)[:-1]]
    ranks = colex_ranks(v, k, inside.reshape(-1, k))
    return Hypergraph(v, k, bits_of_ranks(ranks)), n


def build_s1_witness(v: int, k: int, i: int, h: int) -> Hypergraph:
    """Single complete k-uniform clique on vertices {0..h-1}, nothing else,
    the 1-side witness of the isolated h-clique property at level i."""
    if h < k + 1 or not 1 <= i <= k:
        raise BadParameter(f"need h >= k+1 and 1 <= i <= k, got h={h}, i={i}, k={k}")
    if h > v:
        raise BadParameter(f"clique size {h} exceeds v = {v}")
    # the k-subsets of 0..h-1 are exactly the colex ranks below C(h, k)
    return Hypergraph(v, k, (1 << math.comb(h, k)) - 1)


def s1_witness_counts(v: int, k: int, i: int, h: int) -> tuple[int, int]:
    """(exact, two_term) sensitive-bit counts at the single-clique input.

    The exact count is the C(h,k) inside removals plus every addition slot
    meeting the clique in i..k-1 vertices.  The two-term form
    C(h,k) + C(h,i)*C(v-i, k-i) keeps only the exactly-i additions but
    draws the remaining vertices from all v-i others; it is the right
    leading-order count yet differs from the exact value at finite v, so
    the two are reported side by side and never asserted equal.
    """
    exact = math.comb(h, k) + boundary_count(v, h, i, k)
    two_term = math.comb(h, k) + math.comb(h, i) * math.comb(v - i, k - i)
    return exact, two_term


def build_isolated_vertex_witness(v: int) -> Hypergraph:
    """Complete graph on {0..v-2} with vertex v-1 isolated; exactly the v-1
    edges at the isolated vertex are sensitive."""
    if v < 4:
        raise BadParameter("need v >= 4")
    # the pairs of 0..v-2 are exactly the colex ranks below C(v-1, 2)
    return Hypergraph(v, 2, (1 << math.comb(v - 1, 2)) - 1)


@dataclass(frozen=True)
class FamilyWitnessPlan:
    q: int
    d: int
    ell: int
    i: int
    h: int


def plan_family_witness(v: int, k: int) -> FamilyWitnessPlan:
    """Parameters of the field-family route to a 0-side witness with
    ~v^(k/2) certified sensitive bits.

    Even k: a prime power q in (k+1, 2(k+1)), d = i = k/2, clique size
    h = k+1, and ell = floor(log_q v) - 1 so the universe fits in v.
    Odd k: q in (v^t / 2, v^t) for t = 1/(k+1), d = i = (k+1)/2, ell = k.
    Raises BadParameter when no integer ell >= 1 or no prime
    power exists in the required interval at this v.
    """
    if k < 2:
        raise BadParameter("need k >= 2")
    if k % 2 == 0:
        pm = prime_power_in_range(k + 1, 2 * (k + 1))
        if pm is None:
            raise BadParameter(
                f"no prime power strictly between {k + 1} and {2 * (k + 1)}"
            )
        q = pm[0] ** pm[1]
        ell = 0
        while q ** (ell + 2) <= v:
            ell += 1
        if ell < 1:
            raise BadParameter(
                f"v = {v} is too small: need v >= q^2 = {q * q}"
            )
        return FamilyWitnessPlan(q=q, d=k // 2, ell=ell, i=k // 2, h=k + 1)
    vt = v ** (1.0 / (k + 1))
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
        raise BadParameter(
            f"no usable prime power strictly inside ({vt / 2:.2f}, {vt:.2f})"
        )
    return FamilyWitnessPlan(q=q, d=d, ell=k, i=d, h=k + 1)


def build_family_witness(v: int, k: int, limit: int | None = None):
    """Run the field-family plan end to end.

    Returns (hypergraph, placed-set count, matching IsolatedCliqueProperty).
    """
    plan = plan_family_witness(v, k)
    p, m = prime_power(plan.q)
    fam = generate_family(make_field(p, m), plan.d, plan.ell, limit)
    trimmed = trim_sets(fam, plan.h)
    graph, count = build_s0_witness(
        _family_vertex_sets(trimmed, v), v, k, plan.i, plan.h
    )
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
