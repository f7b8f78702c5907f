"""k-uniform hypergraphs on v labeled vertices as bitsets over C(v,k) slots.

Bit i of a hypergraph corresponds to the k-subset of {0,...,v-1} with colex
rank i (combinatorial number system):

    rank(a_0 < ... < a_{k-1}) = sum_j C(a_j, j+1)

Colex was chosen over lex because the rank formula does not involve v, so
the bit layout is stable when hypergraphs on different vertex counts are
compared.  Vertices are 0-based in memory and 1-based in JSON.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import (
    BadParameter,
    EdgeOutOfRange,
    IOutOfRange,
    VertexOutOfRange,
    WrongArity,
)


def rank_subset(S, k: int | None = None) -> int:
    """Colex rank of the vertex subset S; k, when given, is checked."""
    s = sorted(S)
    if len(set(s)) != len(s):
        raise VertexOutOfRange(f"repeated vertex in {S}")
    if any(a < 0 for a in s):
        raise VertexOutOfRange(f"negative vertex in {S}")
    if k is not None and len(s) != k:
        raise WrongArity(f"expected a {k}-subset, got {len(s)} vertices")
    return sum(math.comb(a, j + 1) for j, a in enumerate(s))


def unrank_subset(r: int, v: int, k: int) -> tuple[int, ...]:
    """k-subset of {0..v-1} with colex rank r."""
    if not 0 <= r < math.comb(v, k):
        raise EdgeOutOfRange(f"rank {r} outside [0, C({v},{k}))")
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


def edges_of_bits(v: int, k: int, bits: int) -> list[tuple[int, ...]]:
    """Present edges of a bitset as sorted vertex tuples, ascending rank."""
    out = []
    if math.comb(v, k) <= _TABLE_LIMIT:
        subs = subset_table(v, k)[0]
        while bits:
            low = bits & -bits
            out.append(subs[low.bit_length() - 1])
            bits ^= low
    else:
        while bits:
            low = bits & -bits
            out.append(unrank_subset(low.bit_length() - 1, v, k))
            bits ^= low
    return out


def bits_of_ranks(ranks) -> int:
    """The bitset whose set bits are exactly `ranks` (repeats are harmless).

    Bits are set in a bytearray and converted once, so the cost is linear
    in the ranks plus the width; OR-ing one big int per rank would copy the
    whole bitset each time.
    """
    ranks = list(ranks)
    if not ranks:
        return 0
    if min(ranks) < 0:
        raise EdgeOutOfRange(f"negative edge id {min(ranks)}")
    buf = bytearray((max(ranks) >> 3) + 1)
    for r in ranks:
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def rank_lookup(v: int, k: int):
    """Callable mapping a sorted k-tuple to its rank, table-backed if small."""
    if math.comb(v, k) <= _TABLE_LIMIT:
        return subset_table(v, k)[1].__getitem__
    return lambda s: sum(math.comb(a, j + 1) for j, a in enumerate(s))


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph; bits indexes edges in colex order."""

    v: int
    k: int
    bits: int

    def __post_init__(self):
        if self.k < 1 or self.k > self.v:
            raise WrongArity(f"need 1 <= k <= v, got k={self.k}, v={self.v}")
        if self.bits < 0 or self.bits >> self.num_slots:
            raise EdgeOutOfRange("bitset wider than the edge-slot count")

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
        ranks = []
        for e in edges:
            e = tuple(sorted(e))
            if len(e) != k:
                raise WrongArity(f"edge {e} is not a {k}-subset")
            if e[-1] >= v:
                raise VertexOutOfRange(f"edge {e} has a vertex >= {v}")
            ranks.append(rank_subset(e, k))
        return cls(v, k, bits_of_ranks(ranks))

    def edges(self):
        """Present edges as sorted vertex tuples, in colex-rank order."""
        return iter(edges_of_bits(self.v, self.k, self.bits))

    def has_edge(self, S) -> bool:
        return bool(self.bits >> rank_subset(S, self.k) & 1)

    def flip_edge(self, e: int) -> "Hypergraph":
        if not 0 <= e < self.num_slots:
            raise EdgeOutOfRange(f"edge id {e} outside [0, {self.num_slots})")
        return Hypergraph(self.v, self.k, self.bits ^ (1 << e))

    def flip_block(self, block) -> "Hypergraph":
        mask = 0
        for e in set(block):
            if not 0 <= e < self.num_slots:
                raise EdgeOutOfRange(f"edge id {e} outside [0, {self.num_slots})")
            mask |= 1 << e
        return Hypergraph(self.v, self.k, self.bits ^ mask)

    def relabel(self, sigma) -> "Hypergraph":
        """Apply the vertex permutation sigma (old -> new) to every edge."""
        if sorted(sigma) != list(range(self.v)):
            raise VertexOutOfRange("sigma is not a permutation of the vertices")
        rank_of = rank_lookup(self.v, self.k)
        bits = bits_of_ranks(
            rank_of(tuple(sorted(sigma[u] for u in e))) for e in self.edges()
        )
        return Hypergraph(self.v, self.k, bits)

    def degrees(self) -> list[int]:
        deg = [0] * self.v
        for e in self.edges():
            for u in e:
                deg[u] += 1
        return deg

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
            if not isinstance(obj.get(key), int):
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


def boundary_count(v: int, S, i: int, k: int) -> int:
    """Number of k-subsets E of a v-vertex set with i <= |E & S| <= k-1."""
    if i > k:
        raise IOutOfRange(f"need i <= k, got i={i}, k={k}")
    s = len(S) if not isinstance(S, int) else S
    return sum(math.comb(s, j) * math.comb(v - s, k - j) for j in range(i, k))
