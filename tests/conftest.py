"""Shared test helpers: independent oracles, stub functions, and the
acceptance summary printed at the end of a run."""

import math
from itertools import combinations, permutations

import numpy as np

from hypersens.hypergraphs import rank_subset, subset_table

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


def sensitive_tuples_oracle(v, k, i, h, bits):
    """(vertices, edge, direction) of every h-set S with exactly one defect,
    in lexicographic order of S.  A defect is a slot whose bit keeps S from
    being an isolated h-clique: an absent slot inside S, or a present one
    meeting S in i..k-1 vertices; all C(v,k) slots are counted."""
    subs = subset_table(v, k)[0]
    out = []
    for S in combinations(range(v), h):
        inside = set(S)
        defects = []
        for r, e in enumerate(subs):
            c = len(inside.intersection(e))
            present = bits >> r & 1
            if (c == k and not present) or (i <= c < k and present):
                defects.append(r)
        if len(defects) == 1:
            r = defects[0]
            out.append((S, r, "remove" if bits >> r & 1 else "add"))
    return out


def flip_all_oracle(f, x):
    """(f(x), sensitive bits of x) by one full evaluation of every flip."""
    fx = f.value(x)
    return fx, tuple(i for i in range(f.n) if f.value(x ^ (1 << i)) != fx)


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


def or_ranks_oracle(ranks):
    """Reference for `hypergraphs.bits_of_ranks`: one big-int OR per rank."""
    bits = 0
    for r in ranks:
        bits |= 1 << r
    return bits


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
