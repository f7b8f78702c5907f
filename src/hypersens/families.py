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

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain

from .errors import BadParameter
from .gf import Field, FieldPoly

MAX_UNIVERSE = 1 << 30


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

    @classmethod
    def from_json(cls, obj: dict) -> "SetFamily":
        sets = tuple(tuple(sorted(s)) for s in obj["sets"])
        size = len(sets[0]) if sets else obj["q"]
        return cls(obj["q"], obj["d"], obj["ell"], obj["universe"], sets, size)


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

    qpow = [q**j for j in range(ell + 1)]
    sets = []
    for t in range(count):
        # big-endian base-q digits of t are the concatenated coefficient ranks
        digits = [(t // q ** (d * ell - 1 - j)) % q for j in range(d * ell)]
        polys = [
            FieldPoly.from_ranks(field, digits[c * d : (c + 1) * d])
            for c in range(ell)
        ]
        members = []
        for x in range(q):
            enc = 1 + x
            for j, f in enumerate(polys, start=1):
                enc += f.eval(x) * qpow[j]
            members.append(enc)
        sets.append(tuple(sorted(members)))
    return SetFamily(q, d, ell, universe, tuple(sets), q)


def first_overlap(sets, bound: int) -> tuple[int, int, int] | None:
    """(a, b, |A & B|) for the first pair a < b of the sets, ordered by a
    then b, that shares at least `bound` distinct elements; None if no pair
    does.

    An index maps each element to the earlier sets that hold it, so set b
    meets only the sets it shares an element with.  The cost is linear in
    the set sizes plus the shared elements summed over all pairs,
    O(sum |S| + sum_{a<b} |A & B|), instead of one intersection for each
    of the N(N-1)/2 pairs; pairs that share nothing cost nothing.
    """
    if bound <= 0:
        # every pair qualifies, including pairs that share nothing
        if len(sets) < 2:
            return None
        return 0, 1, len(set(sets[0]) & set(sets[1]))
    holders: dict[int, list[int]] = {}
    best = None
    for b, B in enumerate(sets):
        members = set(B)
        shared = Counter(chain.from_iterable(holders.get(e, ()) for e in members))
        hits = [a for a, count in shared.items() if count >= bound]
        if hits:
            a = min(hits)
            if best is None or a < best[0]:
                best = (a, b, shared[a])
        for e in members:
            holders.setdefault(e, []).append(b)
    return best


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
