"""Exact sensitivity and block-sensitivity computation.

`sensitivity_at` has two paths.  A graph property reads s(f, x) off its
terms.  Every property here is an OR of (care, want) terms, and x ^ e
matches a term T iff either x matches T and e is not a care bit of T, or x
misses T at exactly the one care bit e.  So only the near terms, those
within Hamming distance 1 of x, decide f at the flips of x.  For a graph
property the terms are the h-sets and the bits where x misses a term are
its defects, and the property itself owns the census of the h-sets with at
most one defect (GraphPropertyBase.census), so every sensitive bit comes
with a single evaluation of f; the census is checked against f(x), and at
f(x) = 1 the term of its first matched h-set, the witness, against x and
the closed-form care count.  Any other function, the block functions
included, is evaluated at x and at every single-bit flip, which is the
definition of s(f, x).

Exhaustive work runs on a batch evaluator: a property whose `patterns()`
gives (care, want) terms is evaluated on a uint64 numpy array of inputs as
the OR of x & care == want over its terms (bit-slicing in the sense of
Biham, FSE 1997: one pass of word operations covers a whole chunk of
inputs).  A function without terms, such as an arbitrary table, falls back
to one scalar `value` call per input.  `truth_table` evaluates chunks of
consecutive inputs.  `minimal_sensitive_blocks` at an input x where
f(x) = 0 reads the blocks off the terms in one pass: x ^ B matches a term
(care, want) iff B & care is its mismatch set (x ^ want) & care, so the
minimal blocks are the inclusion-minimal mismatch sets.  At f(x) = 1, or
for a function without terms, it walks the blocks level by level in
ascending size, flipped through `evaluate_batch`, and skips a mask
unflipped when one of its one-bit-smaller subsets already holds a
sensitive block; each level, masks in colex order with the rows of those
subsets, follows from the level below by a closed recurrence.
`block_sensitivity_global` reads every input's minimal blocks off the truth
table packed 64 inputs to a word instead: B is sensitive at x iff
table[x ^ B] != table[x], and an OR-zeta transform over the subsets marks
the sensitive blocks with a sensitive proper subset.  It packs an input's
blocks only when their count, and the bits of their union over the size of
the smallest one, both exceed the best packing so far.  bs(f, x) of a
graph property is invariant under relabelling its v vertices, so only the
least input of each S_v orbit is read, in ascending order.

Batch results are spot-checked against the scalar evaluator, not proved
by it.  `sensitivity_global` and `block_sensitivity_global` build the same
truth table, compared with scalar `value` at 256 fixed inputs, and
recompute their value at the argmax: s at the argmax of s0 and of s1 with
`sensitivity_at`, bs at the smallest input of largest bs with
`block_sensitivity_exact`; any difference raises EvaluatorMismatch.  A
graph property's terms must also have the shape check_patterns() asks
for, and its whole table must be invariant under two generators of S_v,
which the orbit read needs.  The term read of `minimal_sensitive_blocks`
raises EvaluatorMismatch when a term matches an input where scalar `value`
gives 0.  A wrong `patterns()` term that passes these checks and changes
neither a sampled input nor the argmax goes unseen: at n = 10 the samples
hit 231 of the 1,024 inputs.  The full guard is `TestBatchEvaluator` in
the tests, which compares every input for each property.
`block_sensitivity_exact` builds its certificate through `certify_blocks`,
which has the two paths of `sensitivity_at`.  It evaluates f once, at x.  A
graph property then decides each f(x ^ B) locally, from the h-sets that meet
V(B), the vertices of B's edges (GraphPropertyBase.flipped_ranks).  At
i = 1 that is one array pass over the flips of all blocks at once: per-vertex
degree changes by a segment sum, the candidate set N[u] of each vertex u of
the right degree, and a comparison of the candidates' sets.  At i >= 2 and
h = k+1 it is one edge index of x, patched by each block's edges.  Either way
a block costs time in the edges at V(B), not in n, and the h-sets found at x
must agree with f(x).  Any other function is evaluated at every x ^ B.

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
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

from .errors import (
    BadParameter,
    EvaluatorMismatch,
    NonSensitiveBlock,
    TooLarge,
    ValueIsOne,
    check_deadline,
)
from .hypergraphs import bits_of_ranks, edge_permutation, hex_digits, ranks_of_bits
from .properties import GraphPropertyBase, input_bits, split_blocks
from .rng import SplitMix64

GLOBAL_BUDGET_BITS = 24
# sensitivity_global compares its batch table with scalar value at this
# many inputs, drawn from a fixed seed
GLOBAL_CHECK_SAMPLES = 256
GLOBAL_CHECK_SEED = 0x5EED
MAX_PACKING_BLOCKS = 10_000
BATCH_BITS = 64  # inputs travel as uint64
BATCH_CHUNK = 1 << 14  # inputs or words per batch step, bounding temporaries
# in-word masks of the bits whose position has bit j clear, j = 0..5
WORD_MASKS = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
))


def input_digest(n: int, bits: int) -> str:
    """The hex sha256 of f"{n}:{bits:x}", the input's width and its bitset
    in lowercase hex without leading zeros, hashed from the codec's
    hex_digits, so that no formatted string of the whole bitset is built."""
    digest = hashlib.sha256(f"{n}:".encode())
    digest.update(hex_digits(bits))
    return digest.hexdigest()


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
class GlobalBlockSensitivity:
    value: int
    argmax: int
    certificate: BlockCertificate  # at argmax, through certify_blocks
    inputs_walked: int  # inputs whose minimal blocks the transform read


@dataclass(frozen=True)
class SensitiveTuple:
    vertices: tuple[int, ...]
    edge: int
    direction: str  # "add" | "remove"


def sensitivity_at(f, x, deadline=None) -> SensitivityReport:
    """f at x and its sensitive bits, in ascending bit order.

    For a graph property the bits come from f.census, by the rule that
    x ^ e matches a term T iff either x matches T and e is not in care(T),
    or x misses T at exactly the one care bit e:
      - at f(x) = 0 the sensitive bits are the single-mismatch bits, the
        one defect of each h-set with exactly one;
      - at f(x) = 1 they are the intersection of care(T) over the matched
        terms, the h-sets without a defect, minus the single-mismatch bits.
    f itself is evaluated once, at x.  The census must find a matched term
    iff f(x) = 1.  At f(x) = 1 its first matched set, the lexicographically
    first h-set without a defect, is the witness, and the witness's term
    must match x and have the closed-form care count; EvaluatorMismatch if
    not.  Only the witness term is built for a lone matched set.

    Any other function is evaluated at x and at every single-bit flip.
    """
    bits = input_bits(f, x)
    fx = f.value(bits)
    if isinstance(f, GraphPropertyBase):
        sensitive = _census_sensitive_bits(f, bits, fx, deadline)
    else:
        sensitive = _flipped_sensitive_bits(f, bits, fx, deadline)
    return SensitivityReport(
        digest=input_digest(f.n, bits),
        f_value=fx,
        sensitive_bits=tuple(sensitive),
        s_at_x=len(sensitive),
        polarity="s1" if fx else "s0",
    )


def _census_sensitive_bits(f, bits: int, fx: int, deadline) -> list[int]:
    """The graph property f's sensitive bits at bits, where f = fx, from
    its census (see sensitivity_at): the census gives the matched h-sets,
    the first of them the witness, and each one's term is built once."""
    matched, single = f.census(bits, deadline)
    if bool(matched) != bool(fx):
        raise EvaluatorMismatch(
            f"{f.name} gives f={fx}, but its census finds {len(matched)}"
            " h-sets without a defect"
        )
    mismatch = {r for _, _, r in single}
    if not fx:
        return sorted(mismatch)
    care, want = f._isolation_terms(matched[:1])[0]
    size = f.witness_term_size()
    if bits & care != want or care.bit_count() != size:
        raise EvaluatorMismatch(
            f"witness term of {f.name} does not match the input or has"
            f" {care.bit_count()} care bits instead of {size}"
        )
    common = care
    if len(matched) > 1:
        for other, _ in f._isolation_terms(matched[1:]):
            common &= other
    return [r for r in ranks_of_bits(common) if r not in mismatch]


def _flipped_sensitive_bits(f, bits: int, fx: int, deadline) -> list[int]:
    """f's sensitive bits at bits, where f = fx, by evaluating every flip."""
    sensitive = []
    for i in range(f.n):
        if i % 512 == 0:
            check_deadline(deadline)
        if f.value(bits ^ (1 << i)) != fx:
            sensitive.append(i)
    return sensitive


def evaluate_batch(f, xs: np.ndarray) -> np.ndarray:
    """f at every input of the uint64 array xs, as a bool array.

    The OR of xs & care == want over f.patterns(); one scalar `value` call
    per input when f has no patterns.
    """
    if f.n > BATCH_BITS:
        raise TooLarge(f"batch evaluation needs n <= {BATCH_BITS}, got {f.n}")
    terms = _terms(f)
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


def _terms(f) -> tuple[tuple[int, int], ...] | None:
    """f.patterns(), or None when f has no `patterns` or none to give."""
    patterns = getattr(f, "patterns", None)
    return patterns() if patterns is not None else None


def truth_table(f, deadline=None) -> np.ndarray:
    """f on all 2^n inputs as a uint8 array indexed by the input bitmask."""
    size = 1 << f.n
    table = np.empty(size, dtype=np.uint8)
    for start in range(0, size, BATCH_CHUNK):
        check_deadline(deadline)
        stop = min(start + BATCH_CHUNK, size)
        table[start:stop] = evaluate_batch(
            f, np.arange(start, stop, dtype=np.uint64)
        )
    return table


def _checked_table(f, deadline) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(f's batch truth table, the images of every input under generators of
    the vertex relabellings; see _relabelling_images).

    The table is compared with scalar `value` at GLOBAL_CHECK_SAMPLES fixed
    SplitMix64 inputs; EvaluatorMismatch on any difference.  A sample, not a
    proof: a wrong `patterns()` term off the sampled inputs goes unseen here
    (`TestBatchEvaluator` checks every input), except that a graph
    property's terms must first pass its check_patterns(), and its table
    must then be invariant under relabelling the vertices: table[g(x)] ==
    table[x] at every input x for both generators g, or EvaluatorMismatch
    naming the property.  Invariance under the generators is invariance
    under all of S_v, on which the orbit read of block_sensitivity_global
    rests."""
    n = f.n
    if n > GLOBAL_BUDGET_BITS:
        raise TooLarge(f"exhaustive sweep over 2^{n} inputs exceeds the budget")
    graph = isinstance(f, GraphPropertyBase)
    if graph:
        f.check_patterns()
    table = truth_table(f, deadline)
    rng = SplitMix64(GLOBAL_CHECK_SEED)
    for _ in range(GLOBAL_CHECK_SAMPLES):
        x = rng.bits(n)
        if f.value(x) != table[x]:
            raise EvaluatorMismatch(
                f"batch table gives f={table[x]} at input {x}; scalar value"
                f" gives f={f.value(x)}"
            )
    images = _relabelling_images(f.v, f.k) if graph else ()
    for image in images:
        moved = np.flatnonzero(table[image] != table)
        if moved.size:
            x = int(moved[0])
            raise EvaluatorMismatch(
                f"batch table of {f.name} is not invariant under relabelling"
                f" the vertices: f={table[x]} at input {x}, f={table[image[x]]}"
                f" at its image {image[x]}"
            )
    return table, images


def _relabelling_images(v: int, k: int) -> tuple[np.ndarray, ...]:
    """The image of every k-uniform hypergraph on v vertices, as an input of
    C(v, k) bits, under the transposition (0 1) and under the v-cycle
    (0 1 ... v-1) of the vertices, which generate S_v: two uint32 arrays
    indexed by the input.  Empty at v < 2, where S_v is trivial.

    Each vertex permutation moves edge position e to perm[e]; an input
    with top bit e is an input below 2^e plus bit e, so n passes, the
    e-th over 2^e entries, fill the 2^n images."""
    if v < 2:
        return ()
    n = math.comb(v, k)
    images = []
    for sigma in ([1, 0, *range(2, v)], [*range(1, v), 0]):
        image = np.zeros(1 << n, dtype=np.uint32)
        for e, p in enumerate(edge_permutation(v, k, sigma).tolist()):
            image[1 << e : 2 << e] = image[: 1 << e] | np.uint32(1 << p)
        images.append(image)
    return tuple(images)


def _orbit_minima(images, size: int, deadline) -> np.ndarray:
    """The least input of every orbit of the group that the input
    permutations `images` generate, ascending, as uint32; all `size`
    inputs when there is no image.

    Min-label propagation: every input starts labelled by itself, and a
    pass lowers each label to the least of its own, those of its images
    and the label of its label (pointer jumping), until a pass changes
    nothing.  A label is always a member of its input's orbit, no larger
    than the input; at the fixed point labels cannot fall along any cycle
    of a generator, so they are constant on each orbit, and an orbit's
    least input keeps its own label."""
    label = np.arange(size, dtype=np.uint32)
    while True:
        check_deadline(deadline)
        lowered = label.copy()
        for image in images:
            np.minimum(lowered, label[image], out=lowered)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return np.flatnonzero(label == np.arange(size)).astype(np.uint32)
        label = lowered


def sensitivity_global(f, deadline=None) -> GlobalSensitivity:
    """Exact max of s(f, x) over all inputs; ties go to the smallest bitmask.

    The batch truth table is checked by _checked_table, and s is recomputed
    by `sensitivity_at` at the argmax of s0 and of s1; EvaluatorMismatch on
    any difference.
    """
    n = f.n
    table, _ = _checked_table(f, deadline)
    s_at = np.zeros(1 << n, dtype=np.uint32)
    for i in range(n):
        check_deadline(deadline)
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


def _next_level(
    prev: np.ndarray, prev_rows: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(masks, subset rows) of the level above (prev, prev_rows): the sorted
    masks below 2^n with one bit more than the sorted masks prev, and for
    each mask the rows in prev of its one-bit-smaller subsets, column j
    dropping its j-th lowest bit.

    Sorted masks of one size are in colex order, so the masks with top bit
    b form one group, starting at row C(b, size): the first C(b, size - 1)
    masks of prev, each plus bit b.  The t-th mask of the group drops bit b
    to row t of prev, and drops its j-th lowest bit below b to row
    C(b, size - 1) + prev_rows[t, j], that subset of prev[t] plus bit b.
    """
    size = prev_rows.shape[1] + 1
    masks = np.empty(math.comb(n, size), dtype=np.uint32)
    rows = np.empty((len(masks), size), dtype=np.min_scalar_type(len(prev) - 1))
    for b in range(size - 1, n):
        start, count = math.comb(b, size), math.comb(b, size - 1)
        group = slice(start, start + count)
        np.bitwise_or(prev[:count], np.uint32(1 << b), out=masks[group])
        rows[group, :-1] = prev_rows[:count]
        rows[group, :-1] += count
        rows[group, -1] = np.arange(count, dtype=rows.dtype)
    return masks, rows


def minimal_sensitive_blocks(
    f, x, max_block_size: int, deadline=None
) -> list[tuple[int, ...]]:
    """All inclusion-minimal sensitive blocks of size <= max_block_size at x,
    as sorted position tuples in lexicographic order; the cap is at least 1,
    except at n = 0, where it is 0 and there is no block.

    Where f(x) = 0 and f has patterns(), the blocks are read off the terms
    by _term_blocks.  Elsewhere levels come in ascending size from
    _next_level, BATCH_CHUNK masks at a time; a mask is skipped unflipped
    when one of its one-bit-smaller subsets is or contains a found block,
    since then it is not minimal."""
    n = f.n
    if n > GLOBAL_BUDGET_BITS:
        raise TooLarge(f"block scan over an n={n} input is out of scope")
    least = min(1, n)
    if not least <= max_block_size <= n:
        raise BadParameter(f"need {least} <= max_block_size <= {n}")
    bits = input_bits(f, x)
    fx = bool(f.value(bits))
    terms = _terms(f)
    if not fx and terms is not None:
        return _term_blocks(f, terms, bits, max_block_size)
    base = np.uint64(bits)
    found = [np.zeros(0, np.uint32)]
    # level 0: the empty block, with no one-bit-smaller subset
    level = np.zeros(1, dtype=np.uint32), np.zeros((1, 0), dtype=np.uint8)
    held = np.zeros(1, dtype=bool)  # mask is or contains a block
    for size in range(1, max_block_size + 1):
        level = _next_level(*level, n)  # then the level below is freed
        masks, rows = level
        level_held = np.empty(len(masks), dtype=bool)
        for start in range(0, len(masks), BATCH_CHUNK):
            check_deadline(deadline)
            chunk = slice(start, start + BATCH_CHUNK)
            level_held[chunk] = held[rows[chunk, 0]]
            for j in range(1, size):
                level_held[chunk] |= held[rows[chunk, j]]
            todo = start + np.flatnonzero(~level_held[chunk])
            hit = todo[evaluate_batch(f, base ^ masks[todo]) != fx]
            level_held[hit] = True
            found.append(masks[hit])
        if level_held.all():
            break  # every larger mask contains a found block
        held = level_held
    return sorted(tuple(ranks_of_bits(m)) for m in np.concatenate(found).tolist())


def _term_blocks(f, terms, bits: int, cap: int) -> list[tuple[int, ...]]:
    """The minimal sensitive blocks of size <= cap at an input `bits` where
    scalar value gives f = 0, read off f's (care, want) terms in one pass,
    as minimal_sensitive_blocks returns them.

    Each term T = (care, want) has the mismatch set M_T = (x ^ want) & care.
    x ^ B matches T iff (x ^ B) & care == want, that is iff B & care == M_T:
    B holds every bit of M_T and no other bit of T's care.  As f(x) = 0, B
    is sensitive iff x ^ B matches some T.  So each M_T is itself a
    sensitive block, and every sensitive block contains some M_T.  A
    minimal block B thus equals the M_T inside it, and an M_T with no other
    M_T inside is minimal, since any sensitive subset of it holds an M_T.
    The minimal blocks are therefore the distinct M_T that hold no other
    M_T.  The M_T above the cap are dropped first, which changes no test
    among the rest, since an M_T inside a kept one is no larger.  An empty
    M_T means that x matches T, so f(x) = 1 by the terms:
    EvaluatorMismatch."""
    mismatch = {(bits ^ want) & care for care, want in terms}
    if 0 in mismatch:
        raise EvaluatorMismatch(
            f"scalar value gives f=0 at input {bits}, but a term of"
            f" {f.name}'s patterns() matches it"
        )
    masks = np.array([m for m in mismatch if m.bit_count() <= cap], dtype=np.uint64)
    # row i counts the masks inside mask i: only itself when it is minimal
    inside = (masks[:, None] & masks) == masks
    minimal = masks[inside.sum(axis=1) == 1]
    return sorted(tuple(ranks_of_bits(m)) for m in minimal.tolist())


def _minimal_blocks_everywhere(table: np.ndarray, n: int, inputs, deadline):
    """(x, the minimal sensitive blocks at x as masks in level order) for
    every input x of the uint32 array `inputs`, in its order, read off the
    truth table packed 64 inputs to a uint64 word (one word, zero past bit
    2^n, when n < 6), BATCH_CHUNK // words inputs per 2-D slab.

    Word w of D = {B : table[x ^ B] != table[x]} is table word w ^ (x >> 6),
    its bit b swapped with bit b ^ (x & 63), XORed with table[x].  n passes
    over D, one per bit j, OR each set without j into itself plus j: the
    OR-zeta transform (Yates 1937), after which up[B] says a subset of B is
    in D.  The same passes carry below[B], a proper subset of B in D, so
    the minimal blocks are D & ~below, sorted by (size, mask): level order."""
    padded = np.pad(table, (0, max(0, 64 - len(table))))  # to one word
    words = np.packbits(padded, bitorder="little").view("<u8")
    valid = np.uint64((1 << min(len(table), 64)) - 1)  # bits that are inputs
    step = max(1, BATCH_CHUNK // len(words))
    for start in range(0, len(inputs), step):
        check_deadline(deadline)
        xs = inputs[start : start + step]
        d = words[np.arange(len(words)) ^ (xs[:, None] >> 6)]
        for j, m in enumerate(WORD_MASKS[:n]):
            t = ((d >> np.uint64(1 << j)) ^ d) & np.where(xs >> j & 1, m, 0)[:, None]
            d ^= t | (t << np.uint64(1 << j))
        d ^= np.where(table[xs], valid, 0)[:, None]
        up, below = d.copy(), np.zeros_like(d)
        for j, m in enumerate(WORD_MASKS[:n]):
            moved = (up & m) << np.uint64(1 << j)
            below |= moved
            up |= moved
        for j in range(6, n):
            halves = up.reshape(len(xs), -1, 2, 1 << (j - 6))
            below.reshape(halves.shape)[:, :, 1] |= halves[:, :, 0]
            halves[:, :, 1] |= halves[:, :, 0]
        minimal = d & ~below
        rows, cols = np.nonzero(minimal)  # unpack only the words with a block
        unpacked = np.unpackbits(minimal[rows, cols].view(np.uint8), bitorder="little")
        hit, bit = np.nonzero(unpacked.reshape(-1, 64))
        rows, masks = rows[hit], cols[hit] * 64 + bit
        masks = masks[np.lexsort((masks, np.bitwise_count(masks), rows))].tolist()
        bounds = [0, *np.cumsum(np.bincount(rows, minlength=len(xs))).tolist()]
        for j, x in enumerate(xs.tolist()):
            yield x, masks[bounds[j] : bounds[j + 1]]


def block_sensitivity_global(f, deadline=None) -> GlobalBlockSensitivity:
    """Exact max of bs(f, x) over all inputs; ties go to the smallest bitmask.

    The minimal blocks are read off the truth table checked by
    _checked_table, in ascending input order.  An input is packed only when
    its blocks could beat the best packing so far: a disjoint family of
    them is no larger than their number, nor than the bits of their union
    over the size of the smallest block.  bs is recomputed by
    `block_sensitivity_exact` at the argmax, whose certificate
    `certify_blocks` re-verifies without the table; EvaluatorMismatch on
    any difference.

    A graph property's read covers only the least input of each orbit of
    S_v, the vertex relabellings; any other function's covers every input.
    It gives the same value and argmax as the read of every input, ties
    included.  _checked_table has shown the table invariant under S_v,
    and a relabelling maps the disjoint sensitive blocks at x one to one
    onto those at its image, so bs is constant on each orbit.  Let x* be
    the smallest input of largest bs.  An orbit-mate of x* has the same bs,
    so none lies below x*: x* is the least input of its orbit and is
    read.  Every read input below x* has a smaller bs, so the ascending
    read first reaches the largest bs at x*.
    """
    table, images = _checked_table(f, deadline)
    inputs = _orbit_minima(images, len(table), deadline)
    best, argmax = -1, 0
    for x, blocks in _minimal_blocks_everywhere(table, f.n, inputs, deadline):
        bound = 0
        if blocks:  # in level order, so the smallest block is first
            union = reduce(or_, blocks).bit_count()
            bound = min(len(blocks), union // blocks[0].bit_count())
        if bound > best:
            count, _ = _pack_blocks(blocks, deadline)
            if count > best:
                best, argmax = count, x
    try:
        check = block_sensitivity_exact(f, argmax, f.n, deadline)
    except NonSensitiveBlock as exc:
        raise EvaluatorMismatch(
            f"batch evaluation finds a block at input {argmax} that scalar"
            " value does not flip"
        ) from exc
    if check.value != best:
        raise EvaluatorMismatch(
            f"batch table gives bs={best} at input {argmax}; the certified"
            f" scan gives bs={check.value}"
        )
    return GlobalBlockSensitivity(
        value=best,
        argmax=argmax,
        certificate=check.certificate,
        inputs_walked=len(inputs),
    )


def _pack_blocks(blocks: list[int], deadline=None) -> tuple[int, list[int]]:
    """Maximum disjoint subfamily of bitmask blocks, by branch and bound.

    Each recursion level picks the next block from a candidate list that is
    already compatible with everything chosen; the candidate count is the
    pruning bound.
    """
    if len(blocks) > MAX_PACKING_BLOCKS:
        raise TooLarge(f"{len(blocks)} blocks exceeds the packing budget")
    best_count = 0
    best: list[int] = []

    def rec(cands: list[int], chosen: list[int]):
        nonlocal best_count, best
        check_deadline(deadline)
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
    bits = input_bits(f, x)
    blocks = minimal_sensitive_blocks(f, x, max_block_size, deadline)
    blocks.sort(key=lambda b: (len(b), b))
    _, picked = _pack_blocks([bits_of_ranks(b) for b in blocks], deadline)
    cert = certify_blocks(f, bits, [blocks[j] for j in picked])
    return BlockSensitivity(
        value=cert.count, certificate=cert, capped=max_block_size < f.n
    )


def certify_blocks(f, x, blocks) -> BlockCertificate:
    """Verify that the given disjoint blocks, each a sequence of input
    positions, all flip f at x.

    f is evaluated once at x.  A graph property gives f at each x ^ B by
    its local rule, from the h-sets that meet B (see its flipped_ranks);
    any other function is evaluated at each x ^ B.  The blocks are checked
    in order, and the first bad one raises: a position that is not an
    integer, a negative one, one shared with an earlier block or one >= n
    is a BadParameter, and a block that leaves f unchanged a
    NonSensitiveBlock.  The certificate holds each block's positions
    ascending, as Python ints.
    """
    bits = input_bits(f, x)
    fx = f.value(bits)
    rank, sizes, error = _checked_blocks(f.n, blocks)
    sorted_blocks = split_blocks(rank.tolist(), sizes)
    if isinstance(f, GraphPropertyBase):
        values = f.flipped_ranks(bits, fx, rank, sizes)
    else:
        values = (f.value(bits ^ bits_of_ranks(b)) for b in sorted_blocks)
    for idx, value in enumerate(values):
        if value == fx:
            raise NonSensitiveBlock(idx)
    if error is not None:
        raise error
    return BlockCertificate(
        digest=input_digest(f.n, bits),
        blocks=tuple(sorted_blocks),
        count=len(sizes),
    )


def _checked_blocks(
    n: int, blocks
) -> tuple[np.ndarray, list[int], BadParameter | None]:
    """(the positions of the blocks before the first bad one, as one int64
    array of each block's positions ascending, block after block; those
    blocks' sizes; the BadParameter of the first bad block or None).

    A block is bad when, checked in this order, it has a position that is
    not an integer (a bool or a float is not), a negative one, one shared
    with an earlier block or one >= n; the messages are those of
    bits_of_ranks and as_bits.  The non-integers are found by type, the
    rest by array passes over the positions of all blocks at once, tagged
    with their block ids: in a stable sort by position, an entry overlaps
    an earlier block when the entry before it holds the same position in
    another block.  A position past the int64 range is clamped to -1 or n, which
    keeps its block bad for the same reason, since every block before the
    first bad one lies in [0, n); the message then quotes the block's own
    least position."""
    blocks = list(map(tuple, blocks))
    sizes = list(map(len, blocks))
    flat = list(chain.from_iterable(blocks))
    nb, error = len(blocks), None
    odd = {
        kind
        for kind in set(map(type, flat))
        if kind is bool or not issubclass(kind, (int, np.integer))
    }
    if odd:
        at = next(j for j, p in enumerate(flat) if type(p) in odd)
        ends = np.cumsum(sizes)
        nb = int(np.searchsorted(ends, at, side="right"))
        error = BadParameter(f"block #{nb} has position {flat[at]!r}, not an integer")
        flat = flat[: int(ends[nb]) - sizes[nb]]
    try:
        rank = np.array(flat, dtype=np.int64)
    except OverflowError:
        rank = np.array([min(max(int(p), -1), n) for p in flat], dtype=np.int64)
    block = np.repeat(np.arange(nb), sizes[:nb])
    if len(rank) and (
        rank.min() < 0 or rank.max() >= n or len(set(flat)) < len(flat)
    ):
        order = np.argsort(rank, kind="stable")
        r, b = rank[order], block[order]
        again = b[1:][(r[1:] == r[:-1]) & (b[1:] != b[:-1])]
        firsts = [
            int(hit.min()) if len(hit) else nb
            for hit in (block[rank < 0], again, block[rank >= n])
        ]
        bad = min(firsts)
        if bad < nb:
            if firsts[0] == bad:
                error = BadParameter(f"negative edge id {min(blocks[bad])}")
            elif firsts[1] == bad:
                error = BadParameter(f"block #{bad} overlaps an earlier block")
            else:
                error = BadParameter(f"bitmask does not fit in {n} bits")
            keep = block < bad
            rank, block, nb = rank[keep], block[keep], bad
    # most blocks come sorted already: sort only when some block is not
    down = np.flatnonzero(rank[1:] < rank[:-1])
    if (block[down] == block[down + 1]).any():
        rank = rank[np.lexsort((rank, block))]
    return rank, sizes[:nb], error


def enumerate_sensitive_tuples(spec, G) -> list[SensitiveTuple]:
    """All h-sets with exactly one defect (see GraphPropertyBase), in
    lexicographic order: flipping that edge, by adding a missing inside edge
    or removing a present edge that crosses the set, makes the set a desired
    isolated clique.  These are the f = 0 side of the near-term census of
    sensitivity_at.

    `spec` is a graph property with isolation parameters i and h, such as an
    IsolatedCliqueProperty (IsolatedTriangleProperty is its k=2, i=1, h=3
    subclass).  f(G) must be 0: a set without a defect raises ValueIsOne.
    """
    matched, single = spec.census(input_bits(spec, G))
    if matched:
        raise ValueIsOne("sensitive tuples are defined on inputs with f = 0")
    return [
        SensitiveTuple(S, r, "add" if set(S).issuperset(e) else "remove")
        for S, e, r in single
    ]
