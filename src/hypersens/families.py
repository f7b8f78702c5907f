"""Low-intersection set families from polynomial evaluation over GF(q).

For a field of order q, an intersection bound d <= q and a coordinate count
ell >= 1, every ell-tuple (f_1, ..., f_ell) of polynomials of degree < d
yields the q-element set

    { encode(x, f_1(x), ..., f_ell(x)) : x in GF(q) },
    encode(t_0, ..., t_ell) = 1 + sum_j rank(t_j) * q^j,

a subset of [1, q^(ell+1)].  Two distinct tuples disagree in some coordinate,
and two distinct polynomials of degree < d agree on fewer than d field
points, so distinct sets intersect in fewer than d elements.  There are
q^(d*ell) tuples in total.

Tuples are enumerated in lexicographic order of the concatenated
coefficient-rank vector (f_1 low coefficients first, then f_2, ...), so a
`limit` always yields the same deterministic prefix.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations

import numpy as np

from .errors import BadParameter
from .gf import Field, FieldPoly

MAX_UNIVERSE = 1 << 30
# elements encoded per array pass of generate_family
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SetFamily:
    q: int
    d: int
    ell: int
    universe: int
    sets: tuple[tuple[int, ...], ...]
    set_size: int  # q after generation, smaller after trimming

    @property
    def max_sets(self) -> int:
        return self.q ** (self.d * self.ell)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "ell": self.ell,
            "universe": self.universe,
            "sets": [list(s) for s in self.sets],
        }


@dataclass(frozen=True)
class FamilyCheck:
    ok: bool
    violation: str | None = None


def generate_family(
    field: Field, d: int, ell: int, limit: int | None = None
) -> SetFamily:
    """All q^(d*ell) polynomial-tuple sets, or a deterministic prefix."""
    q = field.order
    if not 1 <= d <= q:
        raise BadParameter(f"need 1 <= d <= q, got d={d}, q={q}")
    if ell < 1:
        raise BadParameter(f"need ell >= 1, got {ell}")
    universe = q ** (ell + 1)
    if universe > MAX_UNIVERSE:
        raise BadParameter(f"universe {q}^{ell + 1} exceeds {MAX_UNIVERSE}")
    total = q ** (d * ell)
    count = total if limit is None else min(limit, total)
    if count < 0:
        raise BadParameter("limit must be nonnegative")

    # row P of values: the coordinate polynomial whose coefficient ranks are
    # the big-endian base-q digits of P, at every point; a prefix of count
    # tuples uses the first min(count, q^d) of them in every coordinate
    used = min(count, q**d)
    points = np.arange(q)
    values = np.array(
        [
            FieldPoly(field, tuple(P // q ** (d - 1 - j) % q for j in range(d)))
            .eval(points)
            for P in range(used)
        ],
        dtype=np.int64,
    )
    sets = []
    step = max(1, _CHUNK // q)
    for start in range(0, count, step):
        rest = np.arange(start, min(start + step, count))
        enc = 1 + points
        for j in range(ell, 0, -1):
            # rest < count, so dividing by used splits off the same digit as q^d
            rest, P = np.divmod(rest, used)
            enc = enc + values[P] * q**j
        enc.sort(axis=1)
        sets.extend(map(tuple, enc.tolist()))
    return SetFamily(q, d, ell, universe, tuple(sets), q)


def first_overlap(sets, bound: int) -> tuple[int, int, int] | None:
    """(a, b, |A & B|) for the first pair a < b of the sets of ints, ordered
    by a then b, that shares at least `bound` distinct elements; None if no
    pair does.

    Only pairs that share something are met, through one of two indexes,
    whichever the input makes cheaper:

      * element holders: each element maps to the earlier sets that hold
        it, and set b counts the elements it shares with each of them, at
        a cost of sum_e C(deg e, 2) for an element e held by deg e sets;
      * bound-subsets: every set's bound-subsets of distinct elements,
        sorted, at a cost of sum_S C(|S|, bound).  Two sets share at least
        `bound` elements iff they share one of these keys, so the first
        pair is the first two holders of some shared key.

    Both costs come from the set sizes and element degrees, which one pass
    counts, and the smaller one picks the index (the holders on a tie).
    Either way this replaces one intersection for each of the N(N-1)/2
    pairs.
    """
    if bound <= 0:
        # every pair qualifies, including pairs that share nothing
        if len(sets) < 2:
            return None
        return 0, 1, len(set(sets[0]) & set(sets[1]))
    members = [sorted(set(S)) for S in sets]
    degree = Counter(chain.from_iterable(members))
    holder_pairs = sum(n * (n - 1) // 2 for n in degree.values())
    if holder_pairs <= sum(math.comb(len(m), bound) for m in members):
        return _first_overlap_by_holders(members, degree, bound)
    return _first_overlap_by_subsets(members, bound)


def _first_overlap_by_holders(members, degree: Counter, bound: int):
    holders: dict[int, list[int]] = {}
    best = None
    for b, B in enumerate(members):
        B = [e for e in B if degree[e] > 1]  # no other set holds the rest
        shared = Counter(chain.from_iterable(holders.get(e, ()) for e in B))
        hits = [a for a, count in shared.items() if count >= bound]
        if hits:
            a = min(hits)
            if best is None or a < best[0]:
                best = (a, b, shared[a])
        for e in B:
            holders.setdefault(e, []).append(b)
    return best


def _first_overlap_by_subsets(members, bound: int):
    by_size: dict[int, list[int]] = {}
    for b, B in enumerate(members):
        if len(B) >= bound:
            by_size.setdefault(len(B), []).append(b)
    if not by_size:
        return None
    keys, owners = [], []
    for size, group in by_size.items():
        picks = np.array(list(combinations(range(size), bound)))
        rows = np.array([members[b] for b in group], dtype=np.int64)
        keys.append(rows[:, picks].reshape(-1, bound))
        owners.append(np.repeat(np.array(group, dtype=np.int64), len(picks)))
    keys, owners = np.concatenate(keys), np.concatenate(owners)
    # by key, then by holder; a set holds each of its keys once
    order = np.lexsort((owners, *keys.T[::-1]))
    keys, owners = keys[order], owners[order]
    again = np.all(keys[1:] == keys[:-1], axis=1)
    if not again.any():
        return None
    # adjacent holders of one key include its first two, and every such
    # pair qualifies, so the smallest of them is the first pair
    pairs = owners[:-1][again] * len(members) + owners[1:][again]
    a, b = divmod(int(pairs.min()), len(members))
    return a, b, len(set(members[a]).intersection(members[b]))


def verify_family(fam: SetFamily) -> FamilyCheck:
    """Check member sizes, pairwise intersections < d, and the count bound."""
    for idx, s in enumerate(fam.sets):
        if len(s) != fam.set_size:
            return FamilyCheck(
                False, f"set #{idx} has size {len(s)}, expected {fam.set_size}"
            )
        if s and (s[0] < 1 or s[-1] > fam.universe):
            return FamilyCheck(False, f"set #{idx} leaves [1, {fam.universe}]")
    overlap = first_overlap(fam.sets, fam.d)
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


def trim_sets(fam: SetFamily, target: int) -> SetFamily:
    """Keep the `target` smallest elements of every set."""
    if target > fam.set_size:
        raise BadParameter(f"target {target} exceeds set size {fam.set_size}")
    return replace(
        fam, sets=tuple(s[:target] for s in fam.sets), set_size=target
    )
