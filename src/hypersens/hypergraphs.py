"""k-uniform hypergraphs on v labeled vertices as bitsets over C(v,k) slots.

Bit i of a hypergraph corresponds to the k-subset of {0,...,v-1} with colex
rank i (combinatorial number system):

    rank(a_0 < ... < a_{k-1}) = sum_j C(a_j, j+1)

Colex was chosen over lex because the rank formula does not involve v, so
the bit layout is stable when hypergraphs on different vertex counts are
compared.  Vertices are 0-based in memory and 1-based in JSON.

Small (v, k) decode through a table of every k-subset.  Past it, one cached
array of binomial columns, C(n, j+1) for n < v, serves both directions on
whole arrays: a rank is one gather and sum over a row of vertices, and the
vertices of many ranks come from k searchsorted calls, largest vertex
first, each finding the largest n with C(n, j+1) <= the rank left.
"""

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BadParameter


def rank_subset(S, k: int | None = None) -> int:
    """Colex rank of the vertex subset S; k, when given, is checked."""
    s = sorted(S)
    if len(set(s)) != len(s):
        raise BadParameter(f"repeated vertex in {S}")
    if any(a < 0 for a in s):
        raise BadParameter(f"negative vertex in {S}")
    if k is not None and len(s) != k:
        raise BadParameter(f"expected a {k}-subset, got {len(s)} vertices")
    return _colex_rank(s)


def _colex_rank(s) -> int:
    """The colex rank formula on a sorted vertex sequence, unchecked."""
    return sum(math.comb(a, j + 1) for j, a in enumerate(s))


def unrank_subset(r: int, v: int, k: int) -> tuple[int, ...]:
    """k-subset of {0..v-1} with colex rank r."""
    if not 0 <= r < math.comb(v, k):
        raise BadParameter(f"rank {r} outside [0, C({v},{k}))")
    out = [0] * k
    n = v
    while k > 0:
        n -= 1
        c = math.comb(n, k)
        if r >= c:
            r -= c
            k -= 1
            out[k] = n
    return tuple(out)


@lru_cache(maxsize=None)
def subset_table(v: int, k: int):
    """(tuple of all k-subsets in colex order, dict subset -> rank)."""
    # colex order is lex order on the tuples read from the largest vertex
    # down; combinations over v-1, ..., 0 yield those read-down tuples in
    # lex order from the largest, so both the tuples and the list are reversed
    subs = tuple(c[::-1] for c in combinations(range(v - 1, -1, -1), k))[::-1]
    return subs, {s: r for r, s in enumerate(subs)}


# lookup tables pay off in exhaustive sweeps but must never be materialized
# for large slot counts (C(v,k) can reach 2^30 in scope)
_TABLE_LIMIT = 1 << 18


_INT64_MAX = (1 << 63) - 1


@lru_cache(maxsize=None)
def _colex_columns(v: int, k: int) -> np.ndarray:
    """The (k, v) int64 table holding C(n, j+1) at [j, n], clipped at
    2^63 - 1.  No term of a rank below 2^63 is clipped, so ranking and
    unranking through the table are exact at any (v, k) for such ranks,
    and every rank of a bitset that fits in memory is one.  The cached
    array is read-only: every later lookup for (v, k) shares it."""
    cols = np.array(
        [[min(math.comb(n, j + 1), _INT64_MAX) for n in range(v)] for j in range(k)],
        dtype=np.int64,
    )
    cols.setflags(write=False)
    return cols


def colex_ranks(v: int, k: int, rows: np.ndarray) -> np.ndarray:
    """Colex ranks of the sorted vertex rows along the last axis of an int
    array, in one gather from _colex_columns: int64 while C(v, k) < 2^63,
    exact Python ints (object dtype) beyond."""
    cols = _colex_columns(v, k)
    if math.comb(v, k) > _INT64_MAX:
        cols = cols.astype(object)
        for j, n in zip(*np.nonzero(cols == _INT64_MAX)):
            cols[j, n] = math.comb(int(n), int(j) + 1)
    return cols[np.arange(k), rows].sum(axis=-1)


def edges_of_bits(v: int, k: int, bits: int) -> list[tuple[int, ...]]:
    """Present edges of a bitset as sorted vertex tuples, ascending rank.

    Past the subset table, all ranks are unranked at once, one
    searchsorted per vertex position from the largest down: vertex j is
    the largest n with C(n, j+1) <= the rank left, which is then reduced
    by C(n, j+1), as in unrank_subset."""
    ranks = ranks_of_bits(bits)
    slots = math.comb(v, k)
    if slots <= _TABLE_LIMIT:
        subs = subset_table(v, k)[0]
        return [subs[r] for r in ranks]
    if ranks and ranks[-1] >= slots:
        bad = ranks[bisect.bisect_left(ranks, slots)]
        raise BadParameter(f"rank {bad} outside [0, C({v},{k}))")
    cols = _colex_columns(v, k)
    rest = np.array(ranks, dtype=np.int64)
    out = np.empty((len(ranks), k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        out[:, j] = np.searchsorted(cols[j], rest, side="right") - 1
        rest -= cols[j, out[:, j]]
    return list(map(tuple, out.tolist()))


# the codec below handles a bitset one bit at a time while its set bits
# times its width stay within this work: each step then copies the whole
# int, which on narrow ints is still cheaper than the fixed cost of one
# pass through a byte buffer
_BIT_LOOP_WORK = 1 << 18


def ranks_of_bits(bits: int) -> list[int]:
    """The ascending positions of the set bits, the inverse of bits_of_ranks,
    in time linear in the width plus the set bits (see _BIT_LOOP_WORK)."""
    if bits < 0:
        raise BadParameter("a bitset must not be negative")
    width = bits.bit_length()
    # the set bits are at least one, so a wide int fails the product test
    # without being counted
    if width <= _BIT_LOOP_WORK and bits.bit_count() * width <= _BIT_LOOP_WORK:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    # the nonzero 64-bit words first, then the nonzero bytes of those alone
    data = bits.to_bytes(((width + 63) >> 6) << 3, "little")
    words = np.flatnonzero(np.frombuffer(data, "<u8"))
    octets = np.frombuffer(data, np.uint8).reshape(-1, 8)[words].ravel()
    nonzero = np.flatnonzero(octets)
    offsets = words[nonzero >> 3] * 8 + (nonzero & 7)  # of those bytes in data
    byte, bit = np.nonzero(
        np.unpackbits(octets[nonzero, None], axis=1, bitorder="little")
    )
    return (offsets[byte] * 8 + bit).tolist()


def bits_of_ranks(ranks) -> int:
    """The bitset whose set bits are exactly `ranks` (repeats are harmless),
    in time linear in the ranks plus the width (see _BIT_LOOP_WORK); one
    rank is one shift at any width."""
    ranks = list(ranks)
    if not ranks:
        return 0
    if min(ranks) < 0:
        raise BadParameter(f"negative edge id {min(ranks)}")
    width = max(ranks) + 1
    if len(ranks) == 1 or len(ranks) * width <= _BIT_LOOP_WORK:
        bits = 0
        for r in ranks:
            bits |= 1 << r
        return bits
    buf = bytearray((width + 7) >> 3)
    for r in ranks:
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def rank_lookup(v: int, k: int):
    """Callable mapping a sorted k-tuple to its rank, table-backed if small."""
    if math.comb(v, k) <= _TABLE_LIMIT:
        return subset_table(v, k)[1].__getitem__
    return _colex_rank


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph; bits indexes edges in colex order."""

    v: int
    k: int
    bits: int

    def __post_init__(self):
        if self.k < 1 or self.k > self.v:
            raise BadParameter(f"need 1 <= k <= v, got k={self.k}, v={self.v}")
        if self.bits < 0 or self.bits >> self.num_slots:
            raise BadParameter("bitset wider than the edge-slot count")

    @property
    def num_slots(self) -> int:
        return math.comb(self.v, self.k)

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    @classmethod
    def empty(cls, v: int, k: int) -> "Hypergraph":
        return cls(v, k, 0)

    @classmethod
    def complete(cls, v: int, k: int) -> "Hypergraph":
        return cls(v, k, (1 << math.comb(v, k)) - 1)

    @classmethod
    def from_edges(cls, v: int, k: int, edges) -> "Hypergraph":
        cls.empty(v, k)  # checks 1 <= k <= v before any edge is read
        ranks = []
        for e in edges:
            e = tuple(sorted(e))
            if len(e) != k:
                raise BadParameter(f"edge {e} is not a {k}-subset")
            if e[-1] >= v:
                raise BadParameter(f"edge {e} has a vertex >= {v}")
            ranks.append(rank_subset(e, k))
        return cls(v, k, bits_of_ranks(ranks))

    def edges(self):
        """Present edges as sorted vertex tuples, in colex-rank order."""
        return iter(edges_of_bits(self.v, self.k, self.bits))

    def relabel(self, sigma) -> "Hypergraph":
        """Apply the vertex permutation sigma (old -> new) to every edge."""
        if sorted(sigma) != list(range(self.v)):
            raise BadParameter("sigma is not a permutation of the vertices")
        rank_of = rank_lookup(self.v, self.k)
        bits = bits_of_ranks(
            rank_of(tuple(sorted(sigma[u] for u in e))) for e in self.edges()
        )
        return Hypergraph(self.v, self.k, bits)

    def to_json(self, compact: bool = False) -> dict:
        if compact:
            width = max(1, math.ceil(self.num_slots / 4))
            return {"v": self.v, "k": self.k, "hex": format(self.bits, f"0{width}x")}
        return {
            "v": self.v,
            "k": self.k,
            "edges": [[u + 1 for u in e] for e in self.edges()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Hypergraph":
        for key in ("v", "k"):
            if type(obj.get(key)) is not int:
                raise BadParameter(f"hypergraph JSON needs an integer {key!r}")
        v, k = obj["v"], obj["k"]
        if "hex" in obj:
            try:
                bits = int(obj["hex"], 16)
            except (TypeError, ValueError) as exc:
                raise BadParameter(f"bad hypergraph 'hex' {obj['hex']!r}") from exc
            return cls(v, k, bits)
        edges = obj.get("edges")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and all(type(u) is int for u in e) for e in edges
        ):
            raise BadParameter(
                "hypergraph JSON needs 'hex' or 'edges', a list of integer lists"
            )
        return cls.from_edges(v, k, [[u - 1 for u in e] for e in edges])


def degrees(v: int, edges) -> list[int]:
    """How many of the edges hold each of the vertices 0..v-1."""
    deg = [0] * v
    for e in edges:
        for u in e:
            deg[u] += 1
    return deg


def boundary_count(v: int, S, i: int, k: int) -> int:
    """Number of k-subsets E of a v-vertex set with i <= |E & S| <= k-1."""
    if i > k:
        raise BadParameter(f"need i <= k, got i={i}, k={k}")
    s = len(S) if not isinstance(S, int) else S
    return sum(math.comb(s, j) * math.comb(v - s, k - j) for j in range(i, k))
