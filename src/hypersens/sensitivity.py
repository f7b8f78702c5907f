"""Exact sensitivity and block-sensitivity computation.

`sensitivity_at` evaluates f at x and then at single-bit flips.  At
f(x) = 1 a property that gives the (care, want) term of its witness
(`witness_term`) is flipped only on the care bits: every other flip keeps
x & care == want, so f stays 1.  The term is checked against x and against
its closed-form care count before any bit is skipped.  At f(x) = 0, and for
a function without terms, every bit is flipped and evaluated.

Exhaustive work runs on a batch evaluator: a property whose `patterns()`
gives (care, want) terms is evaluated on a uint64 numpy array of inputs as
the OR of x & care == want over its terms (bit-slicing in the sense of
Biham, FSE 1997: one pass of word operations covers a whole chunk of
inputs).  A function without terms, such as an arbitrary table, falls back
to one scalar `value` call per input.  `truth_table` evaluates chunks of
consecutive inputs; `minimal_sensitive_blocks` scans block sizes in
ascending order, one level of same-size masks at a time, skips a mask
unevaluated when one of its one-bit-smaller subsets already holds a
sensitive block, and evaluates the rest of the level as one batch.

Batch results leave the engine only after the scalar evaluator has checked
them: `sensitivity_global` compares its table with scalar `value` at 256
fixed inputs and recomputes s at the argmax of s0 and of s1 with
`sensitivity_at`, raising EvaluatorMismatch on any difference, and
`block_sensitivity_exact` builds its certificate through `certify_blocks`,
which re-evaluates every block.

Block sensitivity is computed by packing inclusion-minimal sensitive blocks:
every sensitive block contains a minimal one, and replacing the blocks of a
disjoint family by minimal sub-blocks keeps the family disjoint, so the
maximum over minimal blocks attains bs(f, x).  The packing itself is an
exact branch and bound over the minimal blocks (ordered by size then
position tuple) with the count of still-compatible blocks as the upper
bound.

A `max_block_size` below the input length caps the minimal-block scan; the
result is then flagged `capped` and is only guaranteed to be a lower bound.
"""

import hashlib
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    CellBudgetExceeded,
    EvaluatorMismatch,
    NonSensitiveBlock,
    OverlappingBlocks,
    TooLarge,
    ValueIsOne,
)
from .hypergraphs import edges_of_bits, rank_lookup
from .properties import as_bits
from .rng import SplitMix64

GLOBAL_BUDGET_BITS = 24
# sensitivity_global compares its batch table with scalar value at this
# many inputs, drawn from a fixed seed
GLOBAL_CHECK_SAMPLES = 256
GLOBAL_CHECK_SEED = 0x5EED
MAX_PACKING_BLOCKS = 10_000
BATCH_BITS = 64  # inputs travel as uint64
BATCH_CHUNK = 1 << 14  # inputs per batch call, bounding temporary arrays
# block-scan levels up to this many masks are kept between calls; larger
# ones are rebuilt per call, so that the cache stays small
LEVEL_CACHE_MASKS = 1 << 14


def input_digest(n: int, bits: int) -> str:
    return hashlib.sha256(f"{n}:{bits:x}".encode()).hexdigest()


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise CellBudgetExceeded("cell wall-clock budget exhausted")


@dataclass(frozen=True)
class SensitivityReport:
    digest: str
    f_value: int
    sensitive_bits: tuple[int, ...]
    s_at_x: int
    polarity: str  # "s1" iff f(x) = 1

    def to_json(self, input_json=None) -> dict:
        out = {
            "digest": self.digest,
            "f_value": self.f_value,
            "sensitive_bits": list(self.sensitive_bits),
            "s_at_x": self.s_at_x,
            "polarity": self.polarity,
        }
        if input_json is not None:
            out["input"] = input_json
        return out


@dataclass(frozen=True)
class GlobalSensitivity:
    value: int
    argmax: int
    s0: int
    s1: int


@dataclass(frozen=True)
class BlockCertificate:
    digest: str
    blocks: tuple[tuple[int, ...], ...]
    count: int

    def to_json(self, input_json=None) -> dict:
        out = {
            "digest": self.digest,
            "blocks": [list(b) for b in self.blocks],
            "count": self.count,
            "verified": True,
        }
        if input_json is not None:
            out["input"] = input_json
        return out


@dataclass(frozen=True)
class BlockSensitivity:
    value: int
    certificate: BlockCertificate
    capped: bool  # True when max_block_size < n: value is only a lower bound


@dataclass(frozen=True)
class SensitiveTuple:
    vertices: tuple[int, ...]
    edge: int
    direction: str  # "add" | "remove"


def sensitivity_at(f, x, deadline=None) -> SensitivityReport:
    """f at x and at every single-bit flip, in ascending bit order.

    At f(x) = 1, when f gives a witness term (care, want), only the care
    bits are flipped and evaluated: every other flip keeps x & care == want
    and so f = 1.  The term is checked first (x must match it, and its care
    must have the closed-form popcount); EvaluatorMismatch if it does not.
    """
    bits = as_bits(x, f.n)
    fx = f.value(bits)
    positions = range(f.n)
    witness_term = getattr(f, "witness_term", None)
    term = witness_term(bits) if fx and witness_term is not None else None
    if term is not None:
        care, want = term
        size = f.witness_term_size()
        if bits & care != want or care.bit_count() != size:
            raise EvaluatorMismatch(
                f"witness term of {f.name} does not match the input or has"
                f" {care.bit_count()} care bits instead of {size}"
            )
        positions = _ascending_bits(care)
    sensitive = []
    for count, i in enumerate(positions):
        if count % 512 == 0:
            _check_deadline(deadline)
        if f.value(bits ^ (1 << i)) != fx:
            sensitive.append(i)
    return SensitivityReport(
        digest=input_digest(f.n, bits),
        f_value=fx,
        sensitive_bits=tuple(sensitive),
        s_at_x=len(sensitive),
        polarity="s1" if fx else "s0",
    )


def _ascending_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def evaluate_batch(f, xs: np.ndarray) -> np.ndarray:
    """f at every input of the uint64 array xs, as a bool array.

    The OR of xs & care == want over f.patterns(); one scalar `value` call
    per input when f has no patterns.
    """
    if f.n > BATCH_BITS:
        raise TooLarge(f"batch evaluation needs n <= {BATCH_BITS}, got {f.n}")
    patterns = getattr(f, "patterns", None)
    terms = patterns() if patterns is not None else None
    if terms is None:
        value = f.value
        return np.fromiter(
            (value(int(x)) for x in xs), dtype=bool, count=len(xs)
        )
    out = np.zeros(len(xs), dtype=bool)
    masked = np.empty(len(xs), dtype=np.uint64)
    for care, want in terms:
        np.bitwise_and(xs, np.uint64(care), out=masked)
        out |= masked == np.uint64(want)
    return out


def truth_table(f, deadline=None) -> np.ndarray:
    """f on all 2^n inputs as a uint8 array indexed by the input bitmask."""
    size = 1 << f.n
    table = np.empty(size, dtype=np.uint8)
    for start in range(0, size, BATCH_CHUNK):
        _check_deadline(deadline)
        stop = min(start + BATCH_CHUNK, size)
        table[start:stop] = evaluate_batch(
            f, np.arange(start, stop, dtype=np.uint64)
        )
    return table


def sensitivity_global(
    f, budget_bits: int = GLOBAL_BUDGET_BITS, deadline=None
) -> GlobalSensitivity:
    """Exact max of s(f, x) over all inputs; ties go to the smallest bitmask.

    The batch truth table is compared with scalar `value` at
    GLOBAL_CHECK_SAMPLES fixed SplitMix64 inputs, and s is recomputed by
    `sensitivity_at` at the argmax of s0 and of s1; EvaluatorMismatch on
    any difference.
    """
    n = f.n
    if n > budget_bits:
        raise TooLarge(f"exhaustive sweep over 2^{n} inputs exceeds the budget")
    table = truth_table(f, deadline)
    rng = SplitMix64(GLOBAL_CHECK_SEED)
    for _ in range(GLOBAL_CHECK_SAMPLES):
        x = rng.bits(n)
        if f.value(x) != table[x]:
            raise EvaluatorMismatch(
                f"batch table gives f={table[x]} at input {x}; scalar value"
                f" gives f={f.value(x)}"
            )
    s_at = np.zeros(1 << n, dtype=np.uint32)
    for i in range(n):
        _check_deadline(deadline)
        # viewing the table as (high bits, bit i, low bits), flipping bit i
        # is a swap along the middle axis
        flipped = table.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)
        s_at += table != flipped
    s_max = [0, 0]
    for fx in (0, 1):
        side = table == fx
        if not side.any():
            continue
        s_max[fx] = int(np.where(side, s_at, 0).max())
        # the smallest input on this side with the largest s
        x = int(np.argmax(side & (s_at == s_max[fx])))
        check = sensitivity_at(f, x, deadline)
        if (check.f_value, check.s_at_x) != (fx, s_max[fx]):
            raise EvaluatorMismatch(
                f"batch table gives f={fx}, s={s_max[fx]} at input {x};"
                f" scalar value gives f={check.f_value}, s={check.s_at_x}"
            )
    return GlobalSensitivity(
        value=max(s_max),
        argmax=int(np.argmax(s_at)),  # first occurrence = smallest input
        s0=s_max[0],
        s1=s_max[1],
    )


def _next_level(prev: np.ndarray, n: int) -> np.ndarray:
    """Sorted masks below 2^n with one bit more than the sorted masks prev.

    Each mask of prev gains one bit b above its top bit; grouped by b, the
    results come out already in ascending order.
    """
    return np.concatenate(
        [prev[: np.searchsorted(prev, 1 << b)] | np.uint32(1 << b) for b in range(n)]
    )


def _subset_rows(masks: np.ndarray, prev: np.ndarray, size: int) -> np.ndarray:
    """For each mask, the rows in prev of its `size` one-bit-smaller subsets."""
    rows = np.empty((len(masks), size), dtype=np.min_scalar_type(len(prev) - 1))
    rest = masks.copy()
    for j in range(size):
        low = rest & -rest
        rest ^= low
        rows[:, j] = np.searchsorted(prev, masks ^ low)
    return rows


@lru_cache(maxsize=64)
def _cached_level(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, subset rows) of one level; only for levels whose chain
    1..size stays within LEVEL_CACHE_MASKS, so rows fit in uint16."""
    prev = _cached_level(n, size - 1)[0] if size > 1 else np.zeros(1, np.uint32)
    masks = _next_level(prev, n)
    rows = _subset_rows(masks, prev, size)
    masks.flags.writeable = rows.flags.writeable = False
    return masks, rows


def minimal_sensitive_blocks(
    f, x, max_block_size: int, deadline=None
) -> list[tuple[int, ...]]:
    """All inclusion-minimal sensitive blocks of size <= max_block_size at x,
    as sorted position tuples in lexicographic order."""
    n = f.n
    if n > GLOBAL_BUDGET_BITS:
        raise TooLarge(f"block scan over an n={n} input is out of scope")
    if not 1 <= max_block_size <= n:
        raise TooLarge(f"need 1 <= max_block_size <= {n}")
    bits = as_bits(x, n)
    fx = bool(f.value(bits))
    found: list[int] = []
    # level 0 is the empty block, which flips nothing
    prev = np.zeros(1, dtype=np.uint32)
    held = np.zeros(1, dtype=bool)  # mask is or contains a sensitive block
    for size in range(1, max_block_size + 1):
        if math.comb(n, min(size, n // 2)) <= LEVEL_CACHE_MASKS:
            masks, rows = _cached_level(n, size)
        else:
            masks, rows = _next_level(prev, n), None
        level_held = np.empty(len(masks), dtype=bool)
        for start in range(0, len(masks), BATCH_CHUNK):
            _check_deadline(deadline)
            chunk = masks[start : start + BATCH_CHUNK]
            sub = (
                rows[start : start + BATCH_CHUNK]
                if rows is not None
                else _subset_rows(chunk, prev, size)
            )
            # a sensitive proper subset would contain a found minimal
            # block, and so would one of the one-bit-smaller subsets
            chunk_held = held[sub].any(axis=1)
            todo = np.flatnonzero(~chunk_held)
            if todo.size:
                candidates = chunk[todo]
                hit = evaluate_batch(f, np.uint64(bits) ^ candidates) != fx
                chunk_held[todo[hit]] = True
                found.extend(int(m) for m in candidates[hit])
            level_held[start : start + len(chunk)] = chunk_held
        if level_held.all():
            break  # every larger mask contains a found block
        prev, held = masks, level_held
    return sorted(tuple(i for i in range(n) if m >> i & 1) for m in found)


def _pack_blocks(blocks: list[int], deadline=None) -> tuple[int, list[int]]:
    """Maximum disjoint subfamily of bitmask blocks, by branch and bound.

    Each recursion level picks the next block from a candidate list that is
    already compatible with everything chosen; the candidate count is the
    pruning bound.
    """
    best_count = 0
    best: list[int] = []

    def rec(cands: list[int], chosen: list[int]):
        nonlocal best_count, best
        _check_deadline(deadline)
        if len(chosen) > best_count:
            best_count, best = len(chosen), list(chosen)
        for idx, j in enumerate(cands):
            if len(chosen) + len(cands) - idx <= best_count:
                break
            chosen.append(j)
            rec(
                [m for m in cands[idx + 1 :] if not blocks[m] & blocks[j]],
                chosen,
            )
            chosen.pop()

    rec(list(range(len(blocks))), [])
    return best_count, sorted(best)


def block_sensitivity_exact(
    f, x, max_block_size: int, deadline=None
) -> BlockSensitivity:
    """bs(f, x) over blocks of size <= max_block_size, with a certificate."""
    bits = as_bits(x, f.n)
    blocks = minimal_sensitive_blocks(f, x, max_block_size, deadline)
    if len(blocks) > MAX_PACKING_BLOCKS:
        raise TooLarge(f"{len(blocks)} blocks exceeds the packing budget")
    blocks.sort(key=lambda b: (len(b), b))
    masks = []
    for b in blocks:
        m = 0
        for i in b:
            m |= 1 << i
        masks.append(m)
    _, picked = _pack_blocks(masks, deadline)
    cert = certify_blocks(f, bits, [blocks[j] for j in picked])
    return BlockSensitivity(
        value=cert.count, certificate=cert, capped=max_block_size < f.n
    )


def certify_blocks(f, x, blocks) -> BlockCertificate:
    """Verify that the given disjoint blocks all flip f at x."""
    bits = as_bits(x, f.n)
    fx = f.value(bits)
    used = 0
    norm = []
    for idx, b in enumerate(blocks):
        mask = 0
        for i in b:
            mask |= 1 << i
        if mask & used:
            raise OverlappingBlocks(f"block #{idx} overlaps an earlier block")
        used |= mask
        if f.value(bits ^ mask) == fx:
            raise NonSensitiveBlock(idx)
        norm.append(tuple(sorted(b)))
    return BlockCertificate(
        digest=input_digest(f.n, bits), blocks=tuple(norm), count=len(norm)
    )


def enumerate_sensitive_tuples(spec, G) -> list[SensitiveTuple]:
    """All h-vertex sets one edge-flip away from being a desired isolated clique.

    `spec` is a graph property with isolation parameters i and h, such as an
    IsolatedCliqueProperty (IsolatedTriangleProperty is its k=2, i=1, h=3
    subclass); f(G) must be 0.
    """
    v, k, i, h = spec.v, spec.k, spec.i, spec.h
    bits = as_bits(G, spec.n)
    if spec.value(bits):
        raise ValueIsOne("sensitive tuples are defined on inputs with f = 0")
    rank_of = rank_lookup(v, k)
    edges = edges_of_bits(v, k, bits)
    out = []
    for S in _tuple_candidates(v, k, h, edges):
        inside = frozenset(S)
        missing = [
            rank_of(sub)
            for sub in combinations(S, k)
            if not bits >> rank_of(sub) & 1
        ]
        if len(missing) > 1:
            continue
        violators = []
        for e in edges:
            c = sum(1 for u in e if u in inside)
            if i <= c < k:
                violators.append(rank_of(e))
                if len(missing) + len(violators) > 1:
                    break
        if len(missing) == 1 and not violators:
            out.append(SensitiveTuple(S, missing[0], "add"))
        elif not missing and len(violators) == 1:
            out.append(SensitiveTuple(S, violators[0], "remove"))
    out.sort(key=lambda t: t.vertices)
    return out


def _tuple_candidates(v, k, h, edges):
    """Vertex sets that could be one flip away from an h-clique.

    For h = k+1 a near-clique keeps at least k of its k+1 edges, and any two
    of those share k-1 vertices and union to the whole tuple, so unions of
    edge pairs with |e & e'| = k-1 cover every candidate.  Otherwise fall
    back to combinations of vertices with enough incident edges.
    """
    if h == k + 1:
        by_sub: dict = {}
        cands = set()
        for e in edges:
            for drop in range(k):
                sub = e[:drop] + e[drop + 1 :]
                for other in by_sub.setdefault(sub, []):
                    cands.add(tuple(sorted(set(e) | set(other))))
                by_sub[sub].append(e)
        return sorted(cands)
    deg = [0] * v
    for e in edges:
        for u in e:
            deg[u] += 1
    min_deg = math.comb(h - 1, k - 1) - 1
    cand = [u for u in range(v) if deg[u] >= min_deg]
    return combinations(cand, h)
