"""Shared test helpers: independent oracles, stub functions, and the
acceptance summary printed at the end of a run."""

import hashlib
import math
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from hypersens.errors import BadParameter, NonSensitiveBlock
from hypersens.families import FamilyCheck
from hypersens.gf import FieldPoly
from hypersens.hypergraphs import Hypergraph, rank_subset

# --- acceptance reporting -------------------------------------------------

ACCEPTANCE_RESULTS: dict[tuple, tuple[bool, str]] = {}


def record_criterion(order, name, ok, detail=""):
    ACCEPTANCE_RESULTS[(order, name)] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for (order, name), (ok, detail) in sorted(ACCEPTANCE_RESULTS.items()):
        line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# --- stub Boolean functions ------------------------------------------------


class BitsProperty:
    """Arbitrary Boolean function given as a callable on bitmasks."""

    def __init__(self, n, fn, name="stub"):
        self.n = n
        self.fn = fn
        self.name = name

    def value(self, x):
        return int(self.fn(x if isinstance(x, int) else int(x)))


def or_property(n):
    return BitsProperty(n, lambda x: int(x != 0), "or")


def table_property(table, n):
    return BitsProperty(n, lambda x: int(table >> x & 1), "table")


# --- independent oracles ---------------------------------------------------


@lru_cache(maxsize=None)
def subset_table(v, k):
    """(tuple of all k-subsets of range(v) in colex order, dict subset ->
    rank): the enumeration oracle of the colex codec."""
    # colex order is lex order on the tuples read from the largest vertex
    # down; combinations over v-1, ..., 0 yield those read-down tuples in
    # lex order from the largest, so both the tuples and the list are reversed
    subs = tuple(c[::-1] for c in combinations(range(v - 1, -1, -1), k))[::-1]
    return subs, {s: r for r, s in enumerate(subs)}


def isolation_term_oracle(v, k, i, S):
    """Reference for `GraphPropertyBase._isolation_terms`: the (care, want)
    term of the sorted set S, each k-set meeting S in at least i vertices
    ranked by one lookup in the rank dict."""
    ranks = subset_table(v, k)[1]
    outside = [u for u in range(v) if u not in S]
    care = 0
    for j in range(i, k + 1):
        for a in combinations(S, j):
            for b in combinations(outside, k - j):
                care |= 1 << ranks[tuple(sorted(a + b))]
    want = 0
    for sub in combinations(S, k):
        want |= 1 << ranks[sub]
    return care, want


def clique_packing_oracle(v, k):
    """Reference for `witnesses.clique_packing`: the greedy over the
    (k+1)-subsets in lex order, keeping a set of the used k-subsets."""
    used = set()
    members = []
    for cand in combinations(range(v), k + 1):
        subs = list(combinations(cand, k))
        if any(s in used for s in subs):
            continue
        used.update(subs)
        members.append(cand)
    return tuple(members)


def packing_edge_blocks_oracle(packing):
    """Reference for `witnesses.packing_edge_blocks`: one `rank_subset` call
    per k-subset of each member."""
    return [
        tuple(sorted(rank_subset(sub, packing.k) for sub in combinations(m, packing.k)))
        for m in packing.members
    ]


def relabel_oracle(G, sigma):
    """Reference for `Hypergraph.relabel`: each edge mapped through sigma
    and ranked by one `rank_subset` call."""
    bits = 0
    for e in G.edges():
        bits |= 1 << rank_subset([sigma[u] for u in e], G.k)
    return Hypergraph(G.v, G.k, bits)


def naive_isolated_clique_witness(v, k, i, h, bits):
    """Unpruned reference finder: the lexicographically first h-subset
    whose inside edges are all present and which no present edge meets in
    i..k-1 vertices, checked against every edge; None if there is none."""
    subs, ranks = subset_table(v, k)
    edges = [subs[e] for e in range(len(subs)) if bits >> e & 1]
    for S in combinations(range(v), h):
        inside = set(S)
        if not all(bits >> ranks[sub] & 1 for sub in combinations(S, k)):
            continue
        if all(not i <= len(inside.intersection(e)) < k for e in edges):
            return S
    return None


def naive_isolated_clique_value(v, k, i, h, bits):
    return int(naive_isolated_clique_witness(v, k, i, h, bits) is not None)


def defects_oracle(v, k, i, S, bits):
    """The ranks of the defects of the vertex set S: the slots whose bit
    keeps S from being an isolated clique, an absent slot inside S or a
    present one meeting S in i..k-1 vertices; all C(v,k) slots are
    counted."""
    inside = set(S)
    defects = []
    for r, e in enumerate(subset_table(v, k)[0]):
        c = len(inside.intersection(e))
        present = bits >> r & 1
        if (c == k and not present) or (i <= c < k and present):
            defects.append(r)
    return defects


def sensitive_tuples_oracle(v, k, i, h, bits):
    """(vertices, edge, direction) of every h-set S with exactly one defect
    (see defects_oracle), in lexicographic order of S."""
    out = []
    for S in combinations(range(v), h):
        defects = defects_oracle(v, k, i, S, bits)
        if len(defects) == 1:
            r = defects[0]
            out.append((S, r, "remove" if bits >> r & 1 else "add"))
    return out


def isolated_flips_oracle(f, bits, fx, blocks):
    """Reference for `GraphPropertyBase.flipped_values` at i = 1: the local
    rule one block at a time.  The isolated h-set through a vertex u, if
    any, is N[u] when deg u = C(h-1, k-1) and every w in N[u] has that
    degree and N[w] = N[u].  The sets through every vertex of x must exist
    iff fx = 1; one of them that misses V(B), the vertices of B's edges,
    keeps f(x ^ B) = 1, and otherwise f(x ^ B) = 1 iff there is such a set
    through a vertex of V(B) at x ^ B."""
    v, k, h = f.v, f.k, f.h
    d = math.comb(h - 1, k - 1)
    subs = subset_table(v, k)[0]

    def isolated_through(u, edges):
        def closed(w):
            at = [e for e in edges if w in e]
            return {w}.union(*at) if len(at) == d else None

        N = closed(u)
        if N is None or len(N) != h or any(closed(w) != N for w in N):
            return None
        return tuple(sorted(N))

    present = {subs[r] for r in range(len(subs)) if bits >> r & 1}
    matched = {isolated_through(u, present) for u in range(v)} - {None}
    assert bool(matched) == bool(fx)
    out = []
    for b in blocks:
        flip = {subs[r] for r in b}
        touched = set().union(*flip)
        if any(touched.isdisjoint(S) for S in matched):
            out.append(1)
            continue
        y = present ^ flip
        out.append(int(any(isolated_through(u, y) for u in touched)))
    return out


def flip_all_oracle(f, x):
    """(f(x), sensitive bits of x) by one full evaluation of every flip."""
    fx = f.value(x)
    return fx, tuple(i for i in range(f.n) if f.value(x ^ (1 << i)) != fx)


def certify_oracle(f, bits, blocks):
    """Reference for certify_blocks: each block in turn checked by bitmask
    and by one scalar `value` call at bits ^ block.  The certified blocks,
    or (exception class, message) of the first bad block."""
    try:
        fx = f.value(bits)
        used = 0
        norm = []
        for idx, b in enumerate(blocks):
            if b and min(b) < 0:
                raise BadParameter(f"negative edge id {min(b)}")
            mask = sum(1 << r for r in set(b))
            if mask & used:
                raise BadParameter(f"block #{idx} overlaps an earlier block")
            used |= mask
            if f.value(bits ^ mask) == fx:
                raise NonSensitiveBlock(idx)
            norm.append(tuple(sorted(b)))
    except (BadParameter, NonSensitiveBlock) as exc:
        return type(exc), str(exc)
    return tuple(norm)


def checked_blocks_oracle(n, blocks):
    """Reference for `sensitivity._checked_blocks`, one block at a time:
    (the blocks before the first bad one, as lists, the BadParameter of
    that one or None).  A block is bad when, checked in this order, it has
    a position that is not an int or numpy integer (a bool is not), a
    negative one, one shared with an earlier block or one >= n."""
    good, used = [], set()
    for idx, b in enumerate(blocks):
        b = list(b)
        for p in b:
            if isinstance(p, (bool, np.bool_)) or not isinstance(p, (int, np.integer)):
                return good, BadParameter(
                    f"block #{idx} has position {p!r}, not an integer"
                )
        if b and min(b) < 0:
            return good, BadParameter(f"negative edge id {min(b)}")
        if not used.isdisjoint(b):
            return good, BadParameter(f"block #{idx} overlaps an earlier block")
        if b and max(b) >= n:
            return good, BadParameter(f"bitmask does not fit in {n} bits")
        used.update(b)
        good.append(b)
    return good, None


def bs_brute(f, x):
    """Exact bs(f, x) by dynamic programming over all 2^n block subsets.

    best[mask] = best packing using only positions inside mask; transition
    tries every sensitive submask as the next block (3^n total steps)."""
    n = f.n
    fx = f.value(x)
    size = 1 << n
    sens = bytearray(size)
    for b in range(1, size):
        sens[b] = f.value(x ^ b) != fx
    best = [0] * size
    for mask in range(1, size):
        acc = 0
        s = mask
        while s:
            if sens[s]:
                cand = 1 + best[mask ^ s]
                if cand > acc:
                    acc = cand
            s = (s - 1) & mask
        best[mask] = acc
    return best[size - 1]


def milp_pack(blocks, n):
    """Maximum disjoint packing via an integer program (scipy/HiGHS)."""
    if not blocks:
        return 0
    from scipy.optimize import LinearConstraint, milp

    A = np.zeros((n, len(blocks)))
    for j, b in enumerate(blocks):
        for i in range(n):
            if b >> i & 1:
                A[i, j] = 1
    res = milp(
        c=-np.ones(len(blocks)),
        constraints=LinearConstraint(A, ub=np.ones(n)),
        integrality=np.ones(len(blocks)),
        bounds=(0, 1),
    )
    assert res.success
    return int(round(-res.fun))


def minimal_blocks_from_table(table, x, n):
    """All inclusion-minimal sensitive blocks (any size) at x, as bitmasks,
    straight off the truth table: B is minimal iff it is sensitive and no
    B-minus-one-bit subset contains a sensitive block."""
    idx = np.arange(1 << n)
    sens = table[idx ^ x] != table[x]
    # holds[B]: B or one of its subsets is sensitive (a superset transform)
    holds = sens.copy()
    for i in range(n):
        has_i = idx >> i & 1 == 1
        holds[has_i] |= holds[idx[has_i] ^ (1 << i)]
    minimal = sens.copy()
    for i in range(n):
        has_i = idx >> i & 1 == 1
        minimal &= ~has_i | ~holds[idx ^ (1 << i)]
    minimal[0] = False
    return [int(b) for b in np.nonzero(minimal)[0]]


def block_level_oracle(n, size):
    """(masks, subset rows) of one level of the minimal-block walk, found by
    search: every mask below 2^n with `size` bits, ascending, and for each
    the rows of its one-bit-smaller subsets among the masks with size - 1
    bits, column j dropping its j-th lowest bit, one searchsorted per
    column."""

    def level(weight):
        every = np.arange(1 << n, dtype=np.uint32)
        return every[np.bitwise_count(every) == weight]

    masks, prev = level(size), level(size - 1)
    rows = np.empty((len(masks), size), dtype=np.min_scalar_type(len(prev) - 1))
    rest = masks.copy()
    for j in range(size):
        low = rest & -rest
        rest ^= low
        rows[:, j] = np.searchsorted(prev, masks ^ low)
    return masks, rows


def graph_orbit_reps(v, k):
    """One representative bitmask per isomorphism class of v-vertex
    k-uniform hypergraphs (the orbit scan marks every image of each new
    representative)."""
    n = math.comb(v, k)
    subs, ranks = subset_table(v, k)
    edge_perms = []
    for sigma in permutations(range(v)):
        edge_perms.append(
            tuple(ranks[tuple(sorted(sigma[u] for u in subs[e]))] for e in range(n))
        )
    visited = bytearray(1 << n)
    reps = []
    for x in range(1 << n):
        if visited[x]:
            continue
        reps.append(x)
        for perm in edge_perms:
            y = 0
            rest = x
            while rest:
                low = rest & -rest
                y |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            visited[y] = 1
    return reps


def removed_edge_of(member, k):
    """Edge id deleted by the near-clique construction: the lex-largest
    k-subset of the member."""
    inside = sorted(combinations(tuple(sorted(member)), k))
    return rank_subset(inside[-1], k)


def flip_edge(G, e):
    """G with the edge of colex rank e toggled."""
    return Hypergraph(G.v, G.k, G.bits ^ (1 << e))


def pairwise_first_overlap(sets, bound):
    """Reference for `families.first_overlap`: intersect every pair a < b,
    ordered by a then b, and return the first (a, b, |A & B|) with at least
    `bound` shared elements, or None."""
    frozen = [frozenset(s) for s in sets]
    for a, A in enumerate(frozen):
        for b in range(a + 1, len(frozen)):
            inter = len(A & frozen[b])
            if inter >= bound:
                return a, b, inter
    return None


def verify_family_oracle(fam):
    """Reference for `families.verify_family`: one pass over the sets that
    checks each one's size and its least and largest element, then every
    pair, then the count bound."""
    for idx, s in enumerate(fam.sets):
        if len(s) != fam.set_size:
            return FamilyCheck(
                False, f"set #{idx} has size {len(s)}, expected {fam.set_size}"
            )
        if s and (min(s) < 1 or max(s) > fam.universe):
            return FamilyCheck(False, f"set #{idx} leaves [1, {fam.universe}]")
    overlap = pairwise_first_overlap(fam.sets, fam.d)
    if overlap is not None:
        a, b, inter = overlap
        return FamilyCheck(
            False, f"sets #{a} and #{b} intersect in {inter} >= d = {fam.d}"
        )
    if len(fam.sets) > fam.max_sets:
        return FamilyCheck(
            False, f"{len(fam.sets)} sets exceeds q^(d*ell) = {fam.max_sets}"
        )
    return FamilyCheck(True)


def s0_checks_oracle(vertex_sets, v, i, h):
    """Reference for the checks of `witnesses.build_s0_witness` on its
    sets: raises its BadParameter, or returns None when the sets pass."""
    vertex_sets = [tuple(sorted(s)) for s in vertex_sets]
    for s in vertex_sets:
        if s and (s[0] < 0 or s[-1] >= v):
            raise BadParameter(f"set {s} leaves [0, {v})")
    for s in vertex_sets:
        if len(s) != h:
            raise BadParameter(f"set {s} has size {len(s)}, expected h = {h}")
        if len(set(s)) != h:
            raise BadParameter(f"repeated vertex in {s}")
    overlap = pairwise_first_overlap(vertex_sets, i)
    if overlap is not None:
        a, b, inter = overlap
        raise BadParameter(f"sets #{a} and #{b} share {inter} >= i = {i} vertices")


def s0_bits_oracle(vertex_sets, k):
    """Reference for the ranking in `witnesses.build_s0_witness`: each set's
    k-subsets in lex order minus the lex-largest, one `rank_subset` call
    each, OR-ed into a bitset."""
    bits = 0
    for s in vertex_sets:
        inside = sorted(combinations(tuple(sorted(s)), k))
        removed = inside[-1]
        for sub in inside:
            if sub != removed:
                bits |= 1 << rank_subset(sub, k)
    return bits


def ascending_bits_oracle(bits):
    """Reference for `hypergraphs.ranks_of_bits`: peel off the lowest set
    bit until none is left."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def or_ranks_oracle(ranks):
    """Reference for `hypergraphs.bits_of_ranks`: one big-int OR per rank."""
    bits = 0
    for r in ranks:
        bits |= 1 << r
    return bits


def digest_oracle(n, bits):
    """Reference for `sensitivity.input_digest`: the sha256 of the formatted
    string f"{n}:{bits:x}"."""
    return hashlib.sha256(f"{n}:{bits:x}".encode()).hexdigest()


# --- GF(q) polynomial oracle -------------------------------------------------


def gf_coeffs(field, r):
    """Coefficients (lowest degree first) of the element of rank r."""
    return [r // field.p**j % field.p for j in range(field.m)]


def gf_rank(field, coeffs):
    return sum(c * field.p**j for j, c in enumerate(coeffs))


def poly_mul(a, b, p):
    """Product of two coefficient lists over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def gf_oracle_tables(field):
    """Add and mul tables of the field as q x q rank arrays, from coefficient
    vectors: digitwise addition mod p, and the polynomial product reduced mod
    the modulus by long division, vectorised over all pairs."""
    p, m, q = field.p, field.m, field.order
    place = p ** np.arange(m)
    digits = np.arange(q)[:, None] // place % p
    add = (digits[:, None, :] + digits[None, :, :]) % p @ place
    prod = np.zeros((q, q, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            prod[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[:, :, top] % p
        for j, fj in enumerate(field.modulus):
            prod[:, :, top - m + j] -= c * fj
    mul = prod[:, :, :m] % p @ place
    return add, mul


def scalar_family_sets(field, d, ell, limit=None):
    """Reference for `families.generate_family`: tuple t's coefficient ranks
    are the big-endian base-q digits of t, and each of its q members is
    encoded point by point from the `FieldPoly.eval` values at all points."""
    q = field.order
    total = q ** (d * ell)
    count = total if limit is None else min(limit, total)
    qpow = [q**j for j in range(ell + 1)]
    sets = []
    for t in range(count):
        digits = [(t // q ** (d * ell - 1 - j)) % q for j in range(d * ell)]
        polys = [
            FieldPoly(field, tuple(digits[c * d : (c + 1) * d]))
            for c in range(ell)
        ]
        values = [f.eval(np.arange(q)).tolist() for f in polys]
        members = []
        for x in range(q):
            enc = 1 + x
            for j, at in enumerate(values, start=1):
                enc += at[x] * qpow[j]
            members.append(enc)
        sets.append(tuple(sorted(members)))
    return tuple(sets)
