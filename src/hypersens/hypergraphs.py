"""k-uniform hypergraphs on v labeled vertices as bitsets over C(v,k) slots.

Bit i of a hypergraph corresponds to the k-subset of {0,...,v-1} with colex
rank i (combinatorial number system):

    rank(a_0 < ... < a_{k-1}) = sum_j C(a_j, j+1)

Colex was chosen over lex because the rank formula does not involve v, so
the bit layout is stable when hypergraphs on different vertex counts are
compared.  Vertices are 0-based in memory and 1-based in JSON.

One cached array of binomial columns, C(n, j+1) for n < v, serves both
directions on whole arrays: a rank is one gather and sum over a row of
vertices, and the vertices of many ranks come from k searchsorted calls,
largest vertex first, each finding the largest n with C(n, j+1) <= the rank
left.  Every rank is an int64: one at or past 2^63 names no bit of any
bitset, so ranking refuses it with TooLarge.  Small (v, k) also keep a dict
of every rank decoded so far, which a miss fills by k bisections over the
same columns, so that the many small decodes of an exhaustive sweep cost one
lookup per edge and no decode pays for a rank it does not hold.

A wide bitset is paid for in its width, not its edges: the 0-side family
witness at v = 300, k = 3 is a 4.4 M-bit int with a few dozen set bits, and
a pass over its bytes costs far more than the work on its edges.  So the
codec holds its last few wide ints with their ranks: each one ranks_of_bits
decodes and each one bits_of_ranks builds, in one array pass from a list or
an int64 array of ranks.  They are keyed by the id of the int; an entry
holds its int, which keeps the id from being reused, and ints are
immutable.  The key is the identity, not the value, because hashing such
an int costs more than half a decode.  A held input is then never decoded
again, and hex_digits, which input_digest hashes, writes a sparse one's
digits from its ranks into a buffer of zeros.  Hypergraph.relabel maps
rank arrays to rank arrays (unrank, gather through sigma, rank) without
building a tuple per edge, so a relabelled witness is held from birth.
"""

import binascii
import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameter, TooLarge


def _checked_subset(S, k: int | None = None) -> list:
    """The vertex subset S sorted, after checking that it has no repeated or
    negative vertex and, when k is given, k vertices."""
    s = sorted(S)
    if len(set(s)) != len(s):
        raise BadParameter(f"repeated vertex in {S}")
    if any(a < 0 for a in s):
        raise BadParameter(f"negative vertex in {S}")
    if k is not None and len(s) != k:
        raise BadParameter(f"expected a {k}-subset, got {len(s)} vertices")
    return s


def rank_subset(S, k: int | None = None) -> int:
    """Colex rank of the vertex subset S; k, when given, is checked."""
    return sum(math.comb(a, j + 1) for j, a in enumerate(_checked_subset(S, k)))


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


# the decode dict stays: the sampled checks and argmax rechecks of an
# exhaustive sweep decode the same small inputs again and again; without it
# the graph sensitivity_global jobs of the exhaustive benchmark took 35%
# longer (3.2 -> 4.3 ms, 2 shared cores).  It is bounded, since C(v,k) can
# reach 2^30 in scope
_TABLE_LIMIT = 1 << 18


_INT64_MAX = (1 << 63) - 1


@lru_cache(maxsize=None)
def _colex_columns(v: int, k: int) -> np.ndarray:
    """The (k, v) int64 table holding C(n, j+1) at [j, n], clipped at
    2^63 - 1.  No term of a rank below 2^63 is clipped (a term is at most
    its rank), so ranking and unranking through the table are exact for
    every rank colex_ranks lets through.  The cached array is read-only:
    every later lookup for (v, k) shares it."""
    cols = np.array(
        [[min(math.comb(n, j + 1), _INT64_MAX) for n in range(v)] for j in range(k)],
        dtype=np.int64,
    )
    cols.setflags(write=False)
    return cols


# lex_subsets keeps its results up to this many rows, which the term builds
# and packings ask for again and again; a larger one is built for its one
# caller and freed with it (edge_permutation's rows and the term builds'
# outside subsets reach C(v, k) rows)
LEX_CACHE_ROWS = 1 << 12


def lex_subsets(n: int, r: int) -> np.ndarray:
    """The r-subsets of range(n) in lex order, as rows of a (C(n, r), r)
    int array: index rows that pick r-subsets out of arrays of vertices.
    A result of at most LEX_CACHE_ROWS rows is cached and read-only."""
    if math.comb(n, r) <= LEX_CACHE_ROWS:
        return _cached_lex_subsets(n, r)
    return _lex_subsets(n, r)


@lru_cache(maxsize=256)
def _cached_lex_subsets(n: int, r: int) -> np.ndarray:
    rows = _lex_subsets(n, r)
    rows.setflags(write=False)
    return rows


def _lex_subsets(n: int, r: int) -> np.ndarray:
    """lex_subsets built one size s at a time, in a fixed number of array
    steps per size: the s-subsets with least element a are a joined to the
    (s-1)-subsets of a+1..n-1, which are the last C(n-1-a, s-1) rows of
    the (s-1)-subsets of range(n)."""
    if r == 0:
        return np.zeros((1, 0), dtype=np.intp)  # the one 0-subset
    rows = np.arange(n, dtype=np.intp)[:, None]
    for s in range(2, r + 1):
        counts = np.array(
            [math.comb(n - 1 - a, s - 1) for a in range(n - s + 1)], dtype=np.intp
        )
        lead = np.repeat(np.arange(len(counts)), counts)
        # the t-th row overall, in the group of a ending at ends[a], takes
        # row len(rows) - (ends[a] - t) of the size below
        ends = np.cumsum(counts)
        tail = np.arange(len(lead)) + np.repeat(len(rows) - ends, counts)
        rows = np.concatenate([lead[:, None], rows[tail]], axis=1)
    return rows


def colex_ranks(v: int, k: int, rows: np.ndarray) -> np.ndarray:
    """Colex ranks, as int64, of the rows of k distinct vertices along the
    last axis of an int array, in one gather from _colex_columns; TooLarge
    when C(largest vertex + 1, k) > 2^63 - 1, the bound that caps every rank
    and every gathered term.  A row need not be sorted: a vertex with j
    smaller ones in its row adds C(vertex, j+1), and j is counted by
    comparing the row with itself."""
    rows = np.asarray(rows)
    # vertices stay below v, so only a (v, k) past the bound reads them
    if math.comb(v, k) > _INT64_MAX:
        top = int(rows.max(initial=0))
        if math.comb(top + 1, k) > _INT64_MAX:
            raise TooLarge(
                f"colex ranks at (v={v}, k={k}) on vertices up to {top} reach 2^63"
            )
    below = (rows[..., :, None] > rows[..., None, :]).sum(axis=-1)
    return _colex_columns(v, k)[below, rows].sum(axis=-1)


def edge_permutation(v: int, k: int, sigma) -> np.ndarray:
    """The permutation of the C(v, k) edge positions that the vertex
    permutation sigma (old -> new) induces: the int64 array whose entry at
    the colex rank of each k-subset S is the colex rank of sigma(S)."""
    rows = lex_subsets(v, k)
    perm = np.empty(len(rows), dtype=np.int64)
    perm[colex_ranks(v, k, rows)] = colex_ranks(
        v, k, np.asarray(sigma, dtype=np.intp)[rows]
    )
    return perm


def _check_ranks(v: int, k: int, ranks: list[int]) -> None:
    """BadParameter naming the first of the ascending ranks past C(v, k)."""
    slots = math.comb(v, k)
    if ranks and ranks[-1] >= slots:
        bad = ranks[bisect.bisect_left(ranks, slots)]
        raise BadParameter(f"rank {bad} outside [0, C({v},{k}))")


def unrank_rows(v: int, k: int, ranks) -> np.ndarray:
    """The vertices of ranks in [0, C(v, k)), in any order, as the sorted
    rows of a (len(ranks), k) int64 array, all unranked at once, one
    searchsorted per vertex position from the largest down: vertex j is the
    largest n with C(n, j+1) <= the rank left, which is then reduced by
    C(n, j+1), as in unrank_subset."""
    cols = _colex_columns(v, k)
    rest = np.array(ranks, dtype=np.int64)
    out = np.empty((len(rest), k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        n = cols[j].searchsorted(rest, side="right") - 1
        rest -= cols[j][n]
        out[:, j] = n
    return out


def _unrank(v: int, k: int, ranks: list[int]) -> list[tuple[int, ...]]:
    """unrank_rows as vertex tuples."""
    return list(map(tuple, unrank_rows(v, k, ranks).tolist()))


@lru_cache(maxsize=None)
def _decoded(v: int, k: int):
    """(dict mapping each rank of (v, k) decoded so far to its vertex tuple,
    _colex_columns(v, k) as lists to decode the others), which edges_of_bits
    keeps for C(v, k) <= _TABLE_LIMIT."""
    return {}, _colex_columns(v, k).tolist()


def edges_of_bits(v: int, k: int, bits: int) -> list[tuple[int, ...]]:
    """Present edges of a bitset as sorted vertex tuples, ascending rank.

    Up to _TABLE_LIMIT slots a rank is decoded once per process, by the k
    bisections of _unrank one rank at a time, and then read from the
    _decoded dict.  Every rank of a larger (v, k) goes through _unrank."""
    ranks = ranks_of_bits(bits)
    if math.comb(v, k) > _TABLE_LIMIT:
        _check_ranks(v, k, ranks)
        return _unrank(v, k, ranks)
    known, cols = _decoded(v, k)
    try:
        return [known[r] for r in ranks]
    except KeyError:
        _check_ranks(v, k, ranks)
    out = []
    for r in ranks:
        edge = known.get(r)
        if edge is None:
            vertices = [0] * k
            rest = r
            for j in range(k - 1, -1, -1):
                n = bisect.bisect_right(cols[j], rest) - 1
                rest -= cols[j][n]
                vertices[j] = n
            edge = known[r] = tuple(vertices)
        out.append(edge)
    return out


# the widest bitset bits_of_ranks builds, 512 MiB: any int64 rank passes
# colex_ranks, but one past 2^32 names a bit of no bitset in scope
MAX_BITSET_BITS = 1 << 32

# the codec below handles a bitset one bit at a time while its set bits
# times its width stay within this work: each step then copies the whole
# int, which on narrow ints is still cheaper than the fixed cost of one
# pass through a byte buffer
_BIT_LOOP_WORK = 1 << 18


# the codec keeps at most this many wide bitsets with their ranks, holding
# at most this many bytes of ints and rank arrays together; a wider one is
# not kept, so that no bitset near MAX_BITSET_BITS is pinned.  The family
# witnesses at v = 300 hold about 0.6 MB each
_HELD_COUNT = 4
_HELD_BYTES = 1 << 22
# id(bits) -> (bits, its ascending int64 ranks), least recently used first
_held: dict[int, tuple[int, np.ndarray]] = {}
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", np.uint8)


def ranks_of_bits(bits: int) -> list[int]:
    """The ascending positions of the set bits, the inverse of bits_of_ranks,
    in time linear in the width plus the set bits (see _BIT_LOOP_WORK).  A
    wide int seen before, the same object, is read from the held ranks (see
    the module docstring); every call returns a fresh list."""
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
    ranks = _held_ranks(bits)
    if ranks is None:
        ranks = _wide_ranks(bits, width)
        _hold(bits, ranks)
    return ranks.tolist()


def _held_ranks(bits: int) -> np.ndarray | None:
    """The held ranks of this very int, made the most recently used, or
    None.  An entry holds its int, so no other live object has its id."""
    held = _held.pop(id(bits), None)
    if held is None:
        return None
    _held[id(bits)] = held
    return held[1]


def _hold(bits: int, ranks: np.ndarray) -> None:
    """Keep a wide int with its ascending ranks, dropping the least recently
    used ones past the held count or bytes."""
    if _held_bytes(bits, ranks) > _HELD_BYTES:
        return
    _held[id(bits)] = (bits, ranks)
    while len(_held) > _HELD_COUNT or (
        sum(_held_bytes(*entry) for entry in _held.values()) > _HELD_BYTES
    ):
        del _held[next(iter(_held))]


def _held_bytes(bits: int, ranks: np.ndarray) -> int:
    return (bits.bit_length() >> 3) + ranks.nbytes


def _wide_ranks(bits: int, width: int) -> np.ndarray:
    """ranks_of_bits of a wide int as an int64 array, by one pass over its
    bytes: the nonzero 64-bit words first, then the nonzero bytes of those
    alone."""
    data = bits.to_bytes(((width + 63) >> 6) << 3, "little")
    words = np.flatnonzero(np.frombuffer(data, "<u8"))
    octets = np.frombuffer(data, np.uint8).reshape(-1, 8)[words].ravel()
    nonzero = np.flatnonzero(octets)
    offsets = words[nonzero >> 3] * 8 + (nonzero & 7)  # of those bytes in data
    byte, bit = np.nonzero(
        np.unpackbits(octets[nonzero, None], axis=1, bitorder="little")
    )
    return offsets[byte] * 8 + bit


def bits_of_ranks(ranks) -> int:
    """The bitset whose set bits are exactly `ranks`, an iterable of ints or
    an int array (repeats are harmless), in time linear in the ranks plus
    the width (see _BIT_LOOP_WORK); one rank is one shift at any width.
    Numpy ranks are converted once: to Python ints for the shifts, to an
    int64 array for the one array pass over a byte buffer, whose int is
    then held with its ranks, so that it is never decoded.  TooLarge,
    before any shift, for a rank past MAX_BITSET_BITS."""
    array = isinstance(ranks, np.ndarray)
    if not array:
        ranks = list(ranks)
    if not len(ranks):
        return 0
    low, top = (ranks.min(), ranks.max()) if array else (min(ranks), max(ranks))
    if low < 0:
        raise BadParameter(f"negative edge id {low}")
    width = int(top) + 1
    if width > MAX_BITSET_BITS:
        raise TooLarge(
            f"edge id {top} needs a bitset of {width} bits, past the"
            f" bitset budget of 2^{MAX_BITSET_BITS.bit_length() - 1} bits"
        )
    if len(ranks) == 1 or len(ranks) * width <= _BIT_LOOP_WORK:
        bits = 0
        for r in ranks.tolist() if array else map(int, ranks):
            bits |= 1 << r
        return bits
    ranks = np.sort(np.asarray(ranks, dtype=np.int64))
    ranks = ranks[np.diff(ranks, prepend=-1) != 0]  # np.unique imports numpy.ma
    buf = np.zeros((width + 7) >> 3, dtype=np.uint8)
    np.bitwise_or.at(buf, ranks >> 3, np.left_shift(1, ranks & 7).astype(np.uint8))
    bits = int.from_bytes(buf, "little")
    _hold(bits, ranks)
    return bits


def hex_digits(bits: int):
    """f"{bits:x}".encode() as a bytes-like object.  A held int with fewer
    than one set bit per 128 of its width gets it from its ranks alone, in
    a buffer of "0" digits; any other one from one big-endian to_bytes,
    hexlified, less its leading zero nibble."""
    ranks = _held_ranks(bits)
    if ranks is not None and len(ranks) << 7 < bits.bit_length():
        count = (bits.bit_length() + 3) >> 2
        out = np.full(count, ord("0"), np.uint8)
        # the digit of each rank, counted from the top; ascending ranks give
        # descending digits, so the ranks of one digit are adjacent
        digit = count - 1 - (ranks >> 2)
        first = np.flatnonzero(np.diff(digit, prepend=-1))
        out[digit[first]] = _HEX_DIGITS[np.bitwise_or.reduceat(1 << (ranks & 3), first)]
        return out
    hexed = binascii.hexlify(bits.to_bytes(max(1, (bits.bit_length() + 7) >> 3), "big"))
    # to_bytes gives an even count of digits, at least two ("00" for 0)
    return memoryview(hexed)[1 if hexed[0] == ord("0") else 0 :]


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
    def from_edges(cls, v: int, k: int, edges) -> "Hypergraph":
        cls.empty(v, k)  # checks 1 <= k <= v before any edge is read
        rows = []
        for e in edges:
            e = tuple(sorted(e))
            if len(e) != k:
                raise BadParameter(f"edge {e} is not a {k}-subset")
            if e[-1] >= v:
                raise BadParameter(f"edge {e} has a vertex >= {v}")
            rows.append(_checked_subset(e, k))
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        return cls(v, k, bits_of_ranks(colex_ranks(v, k, rows)))

    def edges(self):
        """Present edges as sorted vertex tuples, in colex-rank order."""
        return iter(edges_of_bits(self.v, self.k, self.bits))

    def relabel(self, sigma) -> "Hypergraph":
        """Apply the vertex permutation sigma (old -> new) to every edge."""
        if sorted(sigma) != list(range(self.v)):
            raise BadParameter("sigma is not a permutation of the vertices")
        v, k = self.v, self.k
        ranks = ranks_of_bits(self.bits)
        _check_ranks(v, k, ranks)
        rows = np.asarray(sigma, dtype=np.int64)[unrank_rows(v, k, ranks)]
        return Hypergraph(v, k, bits_of_ranks(colex_ranks(v, k, rows)))

    def to_json(self) -> dict:
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


def boundary_count(v: int, s: int, i: int, k: int) -> int:
    """Number of k-subsets of a v-vertex set that meet a fixed s-subset of
    it in i..k-1 vertices."""
    if i > k:
        raise BadParameter(f"need i <= k, got i={i}, k={k}")
    return sum(math.comb(s, j) * math.comb(v - s, k - j) for j in range(i, k))
