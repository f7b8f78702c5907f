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
from dataclasses import dataclass, replace
from itertools import chain, combinations

import numpy as np

from .errors import BadParameter
from .gf import Field, FieldPoly

MAX_UNIVERSE = 1 << 30
# elements encoded per array pass of generate_family
_CHUNK = 1 << 16
# holder pairs made per array pass of first_overlap
_PAIR_SLAB = 1 << 17


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


def run_heads(a: np.ndarray) -> np.ndarray:
    """True at each position of the array a whose value differs from the
    one before it: the first positions of its runs of equal values."""
    heads = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=heads[1:])
    return heads


def set_incidence(sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, owners, elements) of a sequence of N sets of ints: sizes[j]
    is len(sets[j]) as given, repeats counted; owners and elements list
    every set's distinct elements in ascending order, sets in order, with
    the index of the set beside each element.

    The elements must span fewer than 2^63 / N values, so that an element
    and a set index share one int64 sort key here and in first_overlap.
    """
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    try:
        flat = np.fromiter(chain.from_iterable(sets), np.int64, int(sizes.sum()))
    except OverflowError:
        raise BadParameter("set elements must fit in int64") from None
    if not len(flat):
        return sizes, flat, flat
    low = int(flat.min())
    span = int(flat.max()) - low + 1
    if len(sets) * span >= 1 << 63:
        raise BadParameter(
            f"the elements of {len(sets)} sets span {span} values,"
            f" 2^63 / {len(sets)} or more"
        )
    # one sort of the key owner * span + (element - low); equal keys are
    # repeats of an element within one set
    flat -= low
    key = np.repeat(np.arange(len(sets)) * span, sizes)
    key += flat
    del flat
    key.sort()
    key = key[run_heads(key)]
    owners, elements = np.divmod(key, span)
    elements += low
    return sizes, owners, elements


def first_overlap(sets, bound: int, incidence=None) -> tuple[int, int, int] | None:
    """(a, b, |A & B|) for the first pair a < b of the sets of ints, ordered
    by a then b, that shares at least `bound` distinct elements; None if no
    pair does.  `incidence` is set_incidence(sets) when the caller has it.

    Only pairs that share something are met, through one of two array
    indexes over the sets' incidence (`set_incidence`), whichever the input
    makes cheaper:

      * element holders: every element held by sets h_0 < h_1 < ... gives
        the pairs (h_s, h_t), s < t, as keys a * N + b for N sets; after
        one sort the length of a key's run is |A & B|.  The pairs are made
        in slabs of consecutive b of at most _PAIR_SLAB pairs (one b may
        exceed it alone), so every count is whole within its slab and
        memory stays bounded; the least qualifying key over all slabs is
        the first pair.  Cost: sum_e C(deg e, 2) pairs for an element e
        held by deg e sets;
      * bound-subsets: every set's bound-subsets of distinct elements,
        sorted, at a cost of sum_S C(|S|, bound).  Two sets share at least
        `bound` elements iff they share one of these keys, so the first
        pair is the first two holders of some shared key.

    Both costs come from the set sizes and element degrees, which one sort
    counts, and the smaller one picks the index (the holders on a tie).
    Either way this replaces one intersection for each of the N(N-1)/2
    pairs.
    """
    if bound <= 0:
        # every pair qualifies, including pairs that share nothing
        if len(sets) < 2:
            return None
        return 0, 1, len(set(sets[0]) & set(sets[1]))
    _, owners, elements = set_incidence(sets) if incidence is None else incidence
    if not len(elements):
        return None
    holders, runs = _holders_by_element(owners, elements, len(sets))
    degree = np.diff(runs, append=len(holders))
    sizes = np.bincount(np.bincount(owners, minlength=len(sets)))
    subset_keys = sum(
        math.comb(size, bound) * count
        for size, count in enumerate(sizes.tolist())
        if count
    )
    if int((degree * (degree - 1) // 2).sum()) <= subset_keys:
        return _first_overlap_by_holders(len(sets), holders, runs, bound)
    return _first_overlap_by_subsets(sets, owners, elements, bound)


def _holders_by_element(owners, elements, n: int):
    """(holders, runs): the owners of the incidence ordered by element, each
    element's holders ascending, and the positions where each element's
    run of holders starts."""
    # one sort of the key (element - least element) * n + owner
    key = elements - elements.min()
    key *= n
    key += owners
    key.sort()
    holders = key % n
    key //= n
    return holders, np.flatnonzero(run_heads(key))


def _first_overlap_by_holders(n, holders, runs, bound: int):
    # the holder at position p pairs with the earlier[p] holders of its
    # element's run before p: a running count reset to 0 at each run head
    earlier = np.ones(len(holders), dtype=np.int64)
    earlier[runs] = 1 - np.diff(runs, prepend=-1)
    np.cumsum(earlier, out=earlier)
    # so sets [b0, b1) make made[b1] - made[b0] pairs
    per_set = np.zeros(n, dtype=np.int64)
    np.add.at(per_set, holders, earlier)
    del earlier
    made = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_set, out=made[1:])
    best = None
    b0 = 0
    while b0 < n:
        b1 = int(np.searchsorted(made, made[b0] + _PAIR_SLAB, side="right")) - 1
        b1 = max(b1, b0 + 1)
        at = np.flatnonzero((holders >= b0) & (holders < b1))
        start = runs[np.searchsorted(runs, at, side="right") - 1]
        count = at - start
        # pair t of position p is (holders[start + t], holders[p])
        partner = np.repeat(start - (np.cumsum(count) - count), count)
        partner += np.arange(len(partner))
        keys = holders[partner]
        del partner
        keys *= n
        keys += np.repeat(holders[at], count)
        keys.sort()
        # the first p with keys[p] == keys[p + bound - 1] starts the first
        # run of at least `bound` equal keys
        if len(keys) >= bound:
            same = keys[bound - 1 :] == keys[: len(keys) - bound + 1]
            p = int(np.argmax(same))
            if same[p] and (best is None or keys[p] < best[0]):
                best = int(keys[p]), int(np.searchsorted(keys, keys[p], "right")) - p
        b0 = b1
    if best is None:
        return None
    a, b = divmod(best[0], n)
    return a, b, best[1]


def _first_overlap_by_subsets(sets, owners, elements, bound: int):
    sizes = np.bincount(owners, minlength=len(sets))
    starts = np.cumsum(sizes) - sizes
    keys, holders = [], []
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        if size < bound:
            continue
        group = np.flatnonzero(sizes == size)
        picks = np.array(list(combinations(range(size), bound)))
        rows = elements[starts[group][:, None] + np.arange(size)]
        keys.append(rows[:, picks].reshape(-1, bound))
        holders.append(np.repeat(group, len(picks)))
    if not keys:
        return None
    keys, holders = np.concatenate(keys), np.concatenate(holders)
    # by key, then by holder; a set holds each of its keys once
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span**bound * len(sets) < 1 << 63:
        # one int64 sort key: the key's elements as digits base span, then
        # the holder
        key = np.zeros(len(keys), dtype=np.int64)
        for column in keys.T:
            key *= span
            key += column - low
        key *= len(sets)
        key += holders
        key.sort()
        holders = key % len(sets)
        key //= len(sets)
        again = key[1:] == key[:-1]
    else:
        order = np.lexsort((holders, *keys.T[::-1]))
        keys, holders = keys[order], holders[order]
        again = np.all(keys[1:] == keys[:-1], axis=1)
    if not again.any():
        return None
    # adjacent holders of one key include its first two, and every such
    # pair qualifies, so the smallest of them is the first pair
    pairs = holders[:-1][again] * len(sets) + holders[1:][again]
    a, b = divmod(int(pairs.min()), len(sets))
    return a, b, len(set(sets[a]) & set(sets[b]))


def verify_family(fam: SetFamily) -> FamilyCheck:
    """Check member sizes and range, pairwise intersections < d, and the
    count bound, all on the family's incidence."""
    incidence = set_incidence(fam.sets)
    sizes, owners, elements = incidence
    outside = (elements < 1) | (elements > fam.universe)
    bad = (sizes != fam.set_size) | (
        np.bincount(owners[outside], minlength=len(sizes)) > 0
    )
    if bad.any():
        idx = int(np.argmax(bad))
        if len(fam.sets[idx]) != fam.set_size:
            return FamilyCheck(
                False,
                f"set #{idx} has size {len(fam.sets[idx])}, expected {fam.set_size}",
            )
        return FamilyCheck(False, f"set #{idx} leaves [1, {fam.universe}]")
    overlap = first_overlap(fam.sets, fam.d, incidence)
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
    if target < 0:
        raise BadParameter(f"need target >= 0, got {target}")
    if target > fam.set_size:
        raise BadParameter(f"target {target} exceeds set size {fam.set_size}")
    return replace(
        fam, sets=tuple(s[:target] for s in fam.sets), set_size=target
    )
