"""The Boolean functions under study, behind one uniform evaluator interface.

Everything specific to one property lives on its class.  Every property
exposes

    n            -- input length in bits
    name         -- its spec "variant", one of VARIANTS
    value(x)     -- the function value at the bitmask x, 0 or 1
    explain(x)   -- EvalResult with a re-verifiable witness when value is 1
    patterns()   -- (care, want) pairs with value(x) = 1 iff x & care == want
                    for some pair, the form the batch evaluator reads
    witness()    -- the canonical high-sensitivity input, as bits
    has_packing  -- whether packing() gives a Packing; read without building
                    one
    packing()    -- the edge-disjoint Packing whose blocks certify a bs
                    lower bound at the empty input, or None
    block_cap    -- the default largest block of the exact bs scan
    spec_json()  -- the JSON spec property_from_json rebuilds it from
    input_json(bits)
                 -- an input as reports show it: a hypergraph object for
                    graph properties, a 0/1 string for the block functions
    graph_bits(G)
                 -- the bits of a Hypergraph input, checked against the
                    property's (v, k); only graph properties take one, and
                    value, explain and the sensitivity engines pass a
                    Hypergraph through it (see input_bits)

and the graph properties (GraphPropertyBase) alone also expose

    witness_term_size()
                 -- popcount of the care of every h-set's (care, want)
                    term, by closed form; at f(x) = 1 every y that matches
                    the witness's term has f(y) = 1, so only a care bit of
                    x can be sensitive
    census(bits, deadline)
                 -- the near terms at bits, those within one flip of being
                    matched, from which sensitivity_at reads s(f, x): the
                    h-sets of the matched terms, and the h-sets with one
                    defect with that defect
    flipped_values(bits, fx, blocks)
                 -- f(bits ^ B) for each block B, from the h-sets that meet
                    B; flipped_ranks(bits, fx, rank, sizes) the same for
                    blocks given as one flat rank array, which
                    certify_blocks reads
    check_patterns()
                 -- EvaluatorMismatch unless patterns() has the shape of the
                    isolation terms

Inputs are integers with bit i = variable i.  For the block-structured
functions the variables are positions 0..k^2-1 split into k consecutive
blocks of k; for graph and hypergraph properties bit i is the edge with
colex rank i (see hypergraphs).
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import BadParameter, EvaluatorMismatch, TooLarge, check_deadline
from .hypergraphs import (
    Hypergraph,
    _unrank,
    bits_of_ranks,
    boundary_count,
    colex_ranks,
    degrees,
    edges_of_bits,
    lex_subsets,
    ranks_of_bits,
    unrank_rows,
)

# the most care bits _isolation_terms builds in one call, summed over its
# sets: each is a row of k int64 vertices before it is ranked
MAX_TERM_ROWS = 1 << 22


@dataclass(frozen=True)
class EvalResult:
    value: int
    witness: object | None = None


@dataclass(frozen=True)
class RubinsteinWitness:
    """Block index whose pattern matched, after rotating left by `shift`."""

    block: int
    shift: int


def rotate_left(x: int, l: int, n: int) -> int:
    """Cyclic shift: bit j of the result is bit (j + l) mod n of x."""
    l %= n
    if l == 0:
        return x
    mask = (1 << n) - 1
    return ((x >> l) | (x << (n - l))) & mask


def as_bits(x, n: int) -> int:
    """Coerce an input (int, 0/1 string, bit sequence) to an n-bit mask."""
    if isinstance(x, str):
        if len(x) != n:
            raise BadParameter(f"input string has length {len(x)}, need {n}")
        if set(x) - {"0", "1"}:
            raise BadParameter("input string must consist of 0s and 1s")
        x = [c == "1" for c in x]
    elif isinstance(x, int):
        if x < 0 or x >> n:
            raise BadParameter(f"bitmask does not fit in {n} bits")
        return x
    bits = list(x)
    if len(bits) != n:
        raise BadParameter(f"input has length {len(bits)}, need {n}")
    return bits_of_ranks(i for i, b in enumerate(bits) if b)


def input_bits(f, x) -> int:
    """f's input x as a bitmask: a Hypergraph goes through f.graph_bits,
    which checks its (v, k), anything else through as_bits."""
    return f.graph_bits(x) if isinstance(x, Hypergraph) else as_bits(x, f.n)


# the spec "variant" of every property; the graph properties, which take a
# vertex count v, come last
VARIANTS = (
    "rubinstein",
    "cyclic-rubinstein",
    "isolated-vertex",
    "isolated-triangle",
    "isolated-clique",
)
GRAPH_VARIANTS = VARIANTS[2:]


class Property:
    """Shared plumbing.  Subclasses set n, name and block_cap, inherit or
    implement _find(bits) -- the witness at a 1-input, None at a 0-input --
    and define value over it in their own body, because perfbench/tracing.py
    times value per class."""

    n: int
    name: str
    block_cap: int

    def value(self, x) -> int:
        raise NotImplementedError

    def explain(self, x) -> EvalResult:
        w = self._find(input_bits(self, x))
        return EvalResult(0) if w is None else EvalResult(1, w)

    def patterns(self) -> tuple[tuple[int, int], ...] | None:
        """The (care, want) pairs whose OR of x & care == want is value(x).

        None when the function has no such form.  Built on first use and
        cached on the instance.
        """
        if not hasattr(self, "_patterns"):
            self._patterns = self._make_patterns()
        return self._patterns

    def _make_patterns(self):
        return None

    def witness(self) -> int:
        """The canonical high-sensitivity input, as bits."""
        raise NotImplementedError

    has_packing = False

    def packing(self):
        """The edge-disjoint Packing certifying bs at the empty input (from
        _make_packing), or None when has_packing is False.  Built on first
        use and cached on the instance, so that a caller that only asks
        whether there is one reads has_packing and builds nothing."""
        if not self.has_packing:
            return None
        if not hasattr(self, "_packing"):
            self._packing = self._make_packing()
        return self._packing

    def spec_json(self) -> dict:
        raise NotImplementedError

    def input_json(self, bits: int):
        return format(bits, f"0{self.n}b")[::-1]

    def graph_bits(self, G: Hypergraph) -> int:
        raise BadParameter("a hypergraph input needs a graph property")


class RubinsteinProperty(Property):
    """1 iff some length-k block holds exactly two adjacent ones, rest zero."""

    name = "rubinstein"
    block_cap = 2

    def __init__(self, k: int):
        if k % 2:
            raise BadParameter(f"block count k must be even, got {k}")
        if k < 2:
            raise BadParameter("need k >= 2")
        self.k = k
        self.n = k * k
        self._block_mask = (1 << k) - 1
        self._good = frozenset((1 << j) | (1 << (j + 1)) for j in range(k - 1))

    def _match(self, x: int) -> int | None:
        for b in range(self.k):
            if (x >> (b * self.k)) & self._block_mask in self._good:
                return b
        return None

    def _find(self, bits: int):
        b = self._match(bits)
        return None if b is None else RubinsteinWitness(block=b, shift=0)

    def value(self, x) -> int:
        return 0 if self._match(input_bits(self, x)) is None else 1

    def _make_patterns(self):
        k = self.k
        return tuple(
            (self._block_mask << b * k, good << b * k)
            for b in range(k)
            for good in sorted(self._good)
        )

    def witness(self) -> int:
        # one 1 at in-block position 1 of every block: 2k sensitive bits
        return bits_of_ranks(b * self.k + 1 for b in range(self.k))

    def spec_json(self) -> dict:
        return {"variant": self.name, "rubinstein_k": self.k}


class CyclicRubinsteinProperty(RubinsteinProperty):
    """Cyclic closure: 1 iff some left-rotation satisfies the block pattern."""

    name = "cyclic-rubinstein"

    def _find(self, bits: int):
        for l in range(self.n):
            b = self._match(rotate_left(bits, l, self.n))
            if b is not None:
                return RubinsteinWitness(block=b, shift=l)
        return None

    def value(self, x) -> int:
        return 0 if self._find(input_bits(self, x)) is None else 1

    def _make_patterns(self):
        # rotate_left(x, l) matches (care, want) iff x matches both rotated
        # right by l; rotations by a multiple of k repeat block terms
        n = self.n
        blocks = super()._make_patterns()
        return tuple(
            dict.fromkeys(
                (rotate_left(care, -l, n), rotate_left(want, -l, n))
                for l in range(n)
                for care, want in blocks
            )
        )


class GraphPropertyBase(Property):
    """Common plumbing for the graph/hypergraph properties, each of which is
    1 iff some h-set S has no defect (an isolated vertex is h = 1, a
    triangle h = 3, both with i = 1).

    A defect of S is one of its C(h,k) inside edges that is missing, or a
    present edge meeting S in i..k-1 vertices.  A set without defects
    witnesses f = 1; at f = 0, a set with exactly one defect becomes a
    witness when that one edge is flipped, which makes it a sensitive tuple.

    At i = 1 no present edge may even touch S without lying inside it, so
    S has no defect iff every vertex w of S has degree d = C(h-1,k-1) and
    closed neighbourhood N[w] = S (w and every vertex sharing an edge with
    w): then the d edges at w are distinct k-subsets of S through w, all
    C(h-1,k-1) of them.  Two such sets are therefore disjoint, and the
    lexicographically first one is the one with the least vertex.
    """

    v: int
    k: int
    i: int
    h: int

    def _isolation_terms(self, sets) -> list[tuple[int, int]]:
        """The term of each sorted h-set S in `sets`: want is the C(h,k)
        edges inside S, and care is every k-set meeting S in at least i
        vertices, so care minus want is the edges that must be absent.

        The k-sets meeting S in j vertices are a j-subset of S joined to a
        (k-j)-subset of the vertices outside S; for each j, those of every S
        are ranked in one gather, after the closed-form count of all their
        care bits is checked against MAX_TERM_ROWS (TooLarge past it)."""
        v, k, h = self.v, self.k, self.h
        m = len(sets)
        size = self.witness_term_size()
        if m * size > MAX_TERM_ROWS:
            raise TooLarge(
                f"{m} isolation term(s) of {h}-sets at (v={v}, k={k}) need"
                f" {m * size} care bits, past the term budget of {MAX_TERM_ROWS}"
            )
        if not m:
            return []
        sets = np.array(sets, dtype=np.int64).reshape(m, h)
        inside = np.zeros((m, v), dtype=bool)
        inside[np.arange(m)[:, None], sets] = True
        outside = np.nonzero(~inside)[1].reshape(m, v - h)
        blocks = []
        for j in range(self.i, k + 1):
            a = sets[:, lex_subsets(h, j)]
            b = outside[:, lex_subsets(v - h, k - j)]
            shape = (m, a.shape[1], b.shape[1])
            rows = np.concatenate(
                [
                    np.broadcast_to(a[:, :, None], shape + (j,)),
                    np.broadcast_to(b[:, None], shape + (k - j,)),
                ],
                axis=-1,
            )
            ranks = colex_ranks(v, k, rows)
            blocks.append(ranks.reshape(m, shape[1] * shape[2]).tolist())
        # the last block, j = k, is the edges inside S
        return [
            (bits_of_ranks(sum(parts, [])), bits_of_ranks(parts[-1]))
            for parts in zip(*blocks)
        ]

    def _make_patterns(self):
        return tuple(
            self._isolation_terms(list(combinations(range(self.v), self.h)))
        )

    def _edge_index(self, edges):
        """The present edges as a set, and each i-subset of a present edge
        mapped to the present edges holding it: what _defects reads, built
        once per input."""
        return set(edges), _by_subset(edges, self.i)

    def _defects(self, index, S, limit: int) -> list[tuple[int, ...]]:
        """The defects of the sorted h-set S, as sorted edge tuples, at the
        input that `index` (see _edge_index) was built from: its missing
        inside edges, then the present edges meeting it in i..k-1 vertices.
        Those edges hold an i-subset of S, so only the edges indexed under
        the C(h,i) i-subsets of S are met.  Stops once it has more than
        limit."""
        present, by_sub = index
        out = []
        for e in combinations(S, self.k):
            if e not in present:
                out.append(e)
                if len(out) > limit:
                    return out
        inside = frozenset(S)
        crossing = set()
        for sub in combinations(S, self.i):
            for e in by_sub.get(sub, ()):
                if e not in crossing and not inside.issuperset(e):
                    crossing.add(e)
                    out.append(e)
                    if len(out) > limit:
                        return out
        return out

    def _closed_neighbourhoods(self, edges, deg) -> dict[int, set[int]]:
        """N[u], u and every vertex sharing an edge with u, for each vertex u
        of degree C(h-1,k-1), the degree of every vertex of an h-set without
        defects at i = 1."""
        d = math.comb(self.h - 1, self.k - 1)
        if not d:  # h = 1: a vertex of degree 0 is its own N[u]
            return {u: {u} for u in range(self.v) if not deg[u]}
        closed: dict = {}
        for e in edges:
            for u in e:
                if deg[u] == d:
                    closed.setdefault(u, {u}).update(e)
        return closed

    def _candidates(self, bits: int, slack: int, deadline=None):
        """(S, its defects up to slack + 1 of them) for each candidate S of
        _near_cliques at bits, in lexicographic order of S; the deadline is
        checked every 512 candidates."""
        edges = edges_of_bits(self.v, self.k, bits)
        index = self._edge_index(edges)
        for count, S in enumerate(self._near_cliques(edges, slack)):
            if count % 512 == 0:
                check_deadline(deadline)
            yield S, self._defects(index, S, slack)

    def census(self, bits: int, deadline=None):
        """The near terms at bits, for the sensitivity engine: the h-sets
        without a defect, whose terms x matches, and (S, e, colex rank of e)
        for each h-set S whose one defect is the edge tuple e, both in
        lexicographic order of S.  No term is built here: the caller builds
        those it reads (_isolation_terms).  CellBudgetExceeded past the
        deadline."""
        matched, single = [], []
        for S, defects in self._candidates(bits, 1, deadline):
            if not defects:
                matched.append(S)
            elif len(defects) == 1:
                single.append((S, defects[0]))
        rows = np.array([e for _, e in single], dtype=np.int64)
        ranks = colex_ranks(self.v, self.k, rows.reshape(len(single), self.k))
        return matched, [(S, e, r) for (S, e), r in zip(single, ranks.tolist())]

    def check_patterns(self) -> None:
        """EvaluatorMismatch unless patterns() has the shape of the isolation
        terms: C(v, h) terms, each with a care of witness_term_size() bits
        and a want of C(h, k) bits inside it.  This catches a dropped term,
        which the samples of the sensitivity engine's table check can miss.
        When h >= k the wanted edges of an h-set cover it, so the terms of
        distinct h-sets differ and none may repeat; when h < k nothing is
        wanted, and two h-sets can share a care (both vertices at v = 2)."""
        terms = self.patterns()
        count = math.comb(self.v, self.h)
        size, inside = self.witness_term_size(), math.comb(self.h, self.k)
        if len(terms) != count or (inside and len(set(terms)) != count) or any(
            care.bit_count() != size or want.bit_count() != inside or want & ~care
            for care, want in terms
        ):
            raise EvaluatorMismatch(
                f"patterns() of {self.name} are not C({self.v},{self.h}) terms"
                f" of its {self.h}-sets with {size} care bits, {inside} of them"
                " wanted"
            )

    def flipped_values(self, bits: int, fx: int, blocks):
        """f(bits ^ B) for each block B, a sequence of edge ranks below n,
        in order; fx must be f(bits).  The blocks go to flipped_ranks as one
        flat array."""
        sizes = [len(b) for b in blocks]
        rank = np.fromiter(chain.from_iterable(blocks), np.int64, sum(sizes))
        block = np.repeat(np.arange(len(sizes)), sizes)
        return self.flipped_ranks(bits, fx, rank[np.lexsort((rank, block))], sizes)

    def flipped_ranks(self, bits: int, fx: int, rank: np.ndarray, sizes):
        """f(bits ^ B) for each block B, in order, where the int64 array
        rank holds the blocks' edge ranks, each below n, block after block
        and ascending inside each block, and sizes their lengths; fx must
        be f(bits).  At i = 1 the values of all blocks come from one array
        pass (_isolated_flips).  At i >= 2 and h = k+1 they come lazily from
        one edge index of x = bits, patched by each block's edges, so a
        block costs time in the edges at V(B), the vertices of B's edges,
        not in n.  Every other (i, h) evaluates f at each x ^ B.

        Why the h-sets that meet V(B) decide f at y = x ^ B.  The defects of
        an h-set S are edges that meet S in at least i >= 1 vertices.  So an
        S that misses V(B) has the same defects at x and at y, and f(y) = 1
        iff some h-set without a defect at x misses V(B), or some S that
        meets V(B) has no defect at y; at f(x) = 0 only the second can hold.
        The sets of the second kind are the h-sets without a defect at y
        through each u in V(B):
          - at i = 1 such a set is N_y[u], by the rule of the class
            docstring, and deg_y(u) = d = C(h-1, k-1) (at h = 1: d = 0 and
            the set is {u});
          - at i >= 2 and h = k+1 its k inside edges through u are present
            at y, and any two of them share k-1 vertices and unite to S, as
            _near_cliques argues; each such union's defects are read off
            the index (_isolated_at).
        The h-sets without a defect at x come from the same rule through
        every vertex at i = 1, and from _near_cliques at i >= 2.  There must
        be some iff fx = 1: EvaluatorMismatch if not.
        """
        v, k, i, h = self.v, self.k, self.i, self.h
        if i == 1:
            yield from self._isolated_flips(bits, fx, rank, sizes)
            return
        if h != k + 1:
            for b in split_blocks(rank.tolist(), sizes):
                yield self.value(bits ^ bits_of_ranks(b))
            return
        edges = edges_of_bits(v, k, bits)
        present, by_sub = index = self._edge_index(edges)
        at = _by_subset(edges, 1)
        cands = self._near_cliques(edges, 0)
        matched = {S for S in cands if not self._defects(index, S, 0)}
        self._check_matched(len(matched), fx)
        owners: dict = {}
        for S in matched:
            for u in S:
                owners.setdefault(u, []).append(S)
        for flip in split_blocks(_unrank(v, k, rank), sizes):
            flip = set(flip)
            flip_at = _by_subset(flip, 1)
            if matched:
                met = {S for (u,) in flip_at for S in owners.get(u, ())}
                if len(met) < len(matched):
                    yield 1  # an h-set without a defect misses V(B)
                    continue
            y_at = _Flipped(present, at, flip, flip_at)
            y_sub = _Flipped(present, by_sub, flip, _by_subset(flip, i))
            yield int(any(self._isolated_at(u, y_sub, y_at) for (u,) in flip_at))

    def _check_matched(self, count: int, fx: int) -> None:
        """EvaluatorMismatch unless the edge index of x finds some h-set
        without a defect (count of them) iff fx = 1."""
        if bool(count) != bool(fx):
            raise EvaluatorMismatch(
                f"{self.name} gives f={fx}, but its edge index finds"
                f" {count} h-sets without a defect"
            )

    def _isolated_flips(self, bits: int, fx: int, rank, sizes) -> list[int]:
        """flipped_ranks at i = 1, for every block in one array pass.

        The test is the rule of the class docstring: with d = C(h-1, k-1),
        an h-set S has no defect at y iff every w in S has deg_y(w) = d and
        N_y[w] = S.  So the candidates are N_y[u], the union of u's edges at
        y, for each vertex u of V(B) with deg_y(u) = d (the only h-set
        through u that can lack a defect, see flipped_ranks), and for each
        vertex u with deg_x(u) = d, under a pseudo-block after the last one.
        A vertex w outside V(B) keeps its edges, so deg_y(w) = d and N_y[w]
        come from its candidate at x.  A candidate S of block B passes iff
        it has h vertices and each w in S has a candidate in B, or at x when
        w is outside V(B), whose set is S.  Those of the pseudo-block are
        the h-sets without a defect at x, each found through each of its h
        vertices.  f(x ^ B) = 1 iff some candidate of B passes, or some
        h-set without a defect at x misses V(B).

        Every step is a sort, a segment sum or a search over the flips of
        all blocks together, none of them per block."""
        v, k, h = self.v, self.k, self.h
        d = math.comb(h - 1, k - 1)
        nb = len(sizes)
        # x: its ascending edge ranks, their vertex rows, the degrees, and
        # the ids of its edges grouped by vertex, those of u from first[u]
        xr = np.array(ranks_of_bits(bits), dtype=np.int64)
        m = len(xr)
        xe = unrank_rows(v, k, xr)
        deg = np.bincount(xe.ravel(), minlength=v)
        at_x = np.argsort(xe.ravel(), kind="stable") // k
        first = np.cumsum(deg) - deg
        # the flips, one per (block, rank), which come sorted by block then
        # rank; a rank repeated inside a block is one flip
        block = np.repeat(np.arange(nb), sizes)
        fresh = np.ones(len(rank), dtype=bool)
        fresh[1:] = (rank[1:] != rank[:-1]) | (block[1:] != block[:-1])
        rank, block = rank[fresh], block[fresh]
        pos, removed = _search(xr, rank)
        flip_e = unrank_rows(v, k, rank)
        # deg_y - deg_x at each (block, vertex of V(B)) pair, keyed
        # block * v + vertex, by one segment sum over the sorted entries
        entry = (block[:, None] * v + flip_e).ravel()
        by_pair = np.argsort(entry, kind="stable")
        entry = entry[by_pair]
        added = ~np.repeat(removed, k)[by_pair]
        starts = np.flatnonzero(np.diff(entry, prepend=-1))
        pair = entry[starts]
        delta = np.add.reduceat(np.where(added, 1, -1), starts)
        pair_b, pair_u = pair // v, pair % v
        # the candidates (block, u), in ascending order of block * v + u
        near = deg[pair_u] + delta == d
        at_d = np.flatnonzero(deg == d)
        cand_b = np.concatenate([pair_b[near], np.full(len(at_d), nb)])
        cand_u = np.concatenate([pair_u[near], at_d])
        count = len(cand_u)
        # the d edges at y of each candidate: x's edges at u that B keeps,
        # then the edges B adds at u
        deg_c = deg[cand_u]
        owner_x = np.repeat(np.arange(count), deg_c)
        skip = np.repeat(first[cand_u] - (np.cumsum(deg_c) - deg_c), deg_c)
        eid = at_x[np.arange(len(owner_x)) + skip]
        _, gone = _search(
            block[removed] * m + pos[removed], cand_b[owner_x] * m + eid
        )
        owner_b, mine = _search(cand_b * v + cand_u, entry[added])
        owner = np.concatenate([owner_x[~gone], owner_b[mine]])
        rows = np.concatenate([xe[eid[~gone]], flip_e[by_pair[added][mine] // k]])
        rows = rows[np.argsort(owner, kind="stable")].reshape(count, d * k)
        # N_y[u] as a sorted row; row_of[c] is candidate c's row in sets,
        # which keeps the rows of h vertices, or -1
        sets = np.concatenate([cand_u[:, None], rows], axis=1)
        sets.sort(axis=1)
        step = sets[:, 1:] != sets[:, :-1]
        size_h = step.sum(axis=1) == h - 1
        row_of = np.where(size_h, np.cumsum(size_h) - 1, -1)
        sets, cand_b, cand_u = sets[size_h], cand_b[size_h], cand_u[size_h]
        head = np.ones((len(sets), 1), dtype=bool)
        sets = sets[np.concatenate([head, step[size_h]], axis=1)].reshape(-1, h)
        # the row of the candidate of each w in S: (block, w) when w is in
        # V(B), else (x, w), whose edges B keeps; S passes iff every one is
        # a row equal to S
        n_near = count - len(at_d)
        row_at_pair = np.full(len(pair), -1)
        row_at_pair[near] = row_of[:n_near]
        row_at_x = np.full(v, -1)
        row_at_x[at_d] = row_of[n_near:]
        at_p, moved = _search(pair, cand_b[:, None] * v + sets)
        other = row_at_x[sets]
        other[moved] = row_at_pair[at_p[moved]]
        passed = (other >= 0).all(axis=1) & (sets[other] == sets[:, None]).all(
            axis=(1, 2)
        )
        of_x = passed & (cand_b == nb)
        self._check_matched(int(of_x.sum()) // h, fx)
        values = np.zeros(nb + 1, dtype=bool)
        values[cand_b[passed]] = True
        # the h-sets without a defect at x are disjoint (class docstring);
        # B misses one of them iff V(B) meets fewer distinct ones than all
        matched = sets[of_x & (sets[:, 0] == cand_u)]
        if len(matched):
            set_of = np.full(v, -1)
            set_of[matched] = np.arange(len(matched))[:, None]
            hit = set_of[pair_u] >= 0
            met = np.sort(pair_b[hit] * len(matched) + set_of[pair_u][hit])
            met = met[np.diff(met, prepend=-1) != 0] // len(matched)
            values[:nb] |= np.bincount(met, minlength=nb) < len(matched)
        return values[:nb].astype(int).tolist()

    def _isolated_at(self, u: int, y, at):
        """An h-set through the vertex u without a defect, as a sorted tuple,
        or None, at i >= 2 and h = k+1, at the input y whose edges at each
        vertex w are at.get((w,), ()), by the rule of flipped_ranks; y is a
        _Flipped view that serves as both parts of _edge_index's index."""
        index = (y, y)
        by_rest: dict = {}  # the edges through u by their k-1 vertices with u
        seen = set()
        for e in at.get((u,), ()):
            for drop in e:
                if drop == u:
                    continue
                rest = tuple(w for w in e if w != drop)
                for other in by_rest.setdefault(rest, []):
                    S = tuple(sorted(set(e) | set(other)))
                    if S not in seen:
                        seen.add(S)
                        if not self._defects(index, S, 0):
                            return S
                by_rest[rest].append(e)
        return None

    def _find(self, bits: int):
        """The lexicographically first h-set without a defect, or None."""
        if self.i > 1:
            for S, defects in self._candidates(bits, 0):
                if not defects:
                    return S
            return None
        edges = edges_of_bits(self.v, self.k, bits)
        # i = 1: the candidates are the closed neighbourhoods N[u] of the
        # vertices of degree d, each tried only from its least vertex
        closed = self._closed_neighbourhoods(edges, degrees(self.v, edges))
        for u in sorted(closed):
            N = closed[u]
            if len(N) == self.h and min(N) == u and all(closed.get(w) == N for w in N):
                return tuple(sorted(N))
        return None

    def _near_cliques(self, edges, slack: int):
        """The h-sets, in lexicographic order, that may have at most `slack`
        (0 or 1) defects, as candidates for _defects: slack 0 for _find at
        i >= 2, slack 1 for census.

        At i = 1 and h >= k+1 such a set S holds a vertex w of degree
        exactly d = C(h-1,k-1) with closed neighbourhood N[w] = S: S has
        h > k vertices, so some w in S lies outside its one missing or
        crossing edge, if any.  Then all d inside edges through w are
        present and cover S (k >= 2), and no other present edge holds w,
        since it would meet S and be a second defect.  So the candidates
        are the distinct N[w] of size h, whatever the slack.  At h = 1 the
        set {w} has deg w defects.

        At i >= 2 each vertex of such a set lies in C(h-1,k-1) inside edges,
        so its degree is at least C(h-1,k-1) - slack.  For h = k+1 the set
        keeps at least k >= 2 of its k+1 inside edges; any two of those
        share k-1 vertices and unite to the set, so the unions of such edge
        pairs are the candidates.
        """
        v, k, h = self.v, self.k, self.h
        if self.i > 1 and h == k + 1:
            by_sub: dict = {}
            cands = set()
            for e in edges:
                for drop in range(k):
                    sub = e[:drop] + e[drop + 1 :]
                    for other in by_sub.setdefault(sub, []):
                        cands.add(tuple(sorted(set(e) | set(other))))
                    by_sub[sub].append(e)
            return sorted(cands)
        deg = degrees(v, edges)
        if self.i == 1:
            if h == 1:
                return [(u,) for u in range(v) if deg[u] <= slack]
            closed = self._closed_neighbourhoods(edges, deg)
            return sorted({tuple(sorted(N)) for N in closed.values() if len(N) == h})
        min_deg = math.comb(h - 1, k - 1) - slack
        return combinations([u for u in range(v) if deg[u] >= min_deg], h)

    def witness_term_size(self) -> int:
        """Closed-form popcount of the care of every h-set's term, the
        witness's included (see _isolation_terms)."""
        return math.comb(self.h, self.k) + boundary_count(
            self.v, self.h, self.i, self.k
        )

    def spec_json(self) -> dict:
        return {"variant": self.name, "v": self.v, "k": self.k}

    def input_json(self, bits: int):
        # Hypergraph.to_json's form, built without a Hypergraph, which needs
        # k <= v: IsolatedVertexProperty(1) has k = 2 and no input bits
        edges = edges_of_bits(self.v, self.k, bits)
        return {
            "v": self.v,
            "k": self.k,
            "edges": [[u + 1 for u in e] for e in edges],
        }

    def graph_bits(self, G: Hypergraph) -> int:
        if (G.v, G.k) != (self.v, self.k):
            raise BadParameter(
                f"input is on (v={G.v}, k={G.k}), property on (v={self.v}, k={self.k})"
            )
        return G.bits


def _search(keys: np.ndarray, queries) -> tuple[np.ndarray, np.ndarray]:
    """(at, found) for each query in the ascending array keys: found says
    whether keys holds it, and at is its position there when found (a
    position inside keys otherwise).  Sort and search, not np.isin, which
    imports numpy.ma on first use, about 9 ms of a fresh process."""
    at = np.searchsorted(keys, queries)
    if not len(keys):
        return at, np.zeros(at.shape, dtype=bool)
    at = np.minimum(at, len(keys) - 1)
    return at, keys[at] == queries


def split_blocks(flat: list, sizes) -> list[tuple]:
    """The blocks that lie one after another in flat, as tuples of the
    given sizes."""
    out, start = [], 0
    for size in sizes:
        out.append(tuple(flat[start : start + size]))
        start += size
    return out


def _by_subset(edges, size: int) -> dict:
    """Each size-subset of an edge, as a sorted tuple, mapped to the edges
    holding it (size 1: each vertex, as a 1-tuple, to its edges)."""
    by_sub: dict = {}
    for e in edges:
        for sub in combinations(e, size):
            by_sub.setdefault(sub, []).append(e)
    return by_sub


class _Flipped:
    """The index of y = x ^ B, read through a _by_subset map of x's present
    edges and the same map of B's edges: `e in view` says whether e is
    present at y, and view.get(key, ()) lists the edges of y under key, as
    _defects and _isolated_at read them."""

    def __init__(self, present, by_key, flip, flip_by_key):
        self.present, self.by_key = present, by_key
        self.flip, self.flip_by_key = flip, flip_by_key

    def __contains__(self, e) -> bool:
        return (e in self.present) != (e in self.flip)

    def get(self, key, default=()):
        flipped = self.flip_by_key.get(key)
        if not flipped:
            return self.by_key.get(key, default)
        kept = self.by_key.get(key)
        added = [e for e in flipped if e not in self.present]
        if not kept:
            return added
        return [e for e in kept if e not in self.flip] + added


class IsolatedVertexProperty(GraphPropertyBase):
    """1 iff some vertex of the graph has degree zero."""

    name = "isolated-vertex"

    def __init__(self, v: int):
        if v < 1:
            raise BadParameter("need v >= 1")
        self.v = v
        self.k = 2
        self.i = 1
        self.h = 1
        self.n = math.comb(v, 2)
        self.block_cap = v - 1

    def value(self, x) -> int:
        return 0 if self._find(input_bits(self, x)) is None else 1

    def witness(self) -> int:
        from .witnesses import build_isolated_vertex_witness

        return build_isolated_vertex_witness(self.v).bits


class IsolatedCliqueProperty(GraphPropertyBase):
    """1 iff some h-clique H exists with every outside edge meeting H in < i vertices.

    The isolation level must satisfy 1 <= i < k; i = k (which makes the
    isolation requirement vacuous for k-uniform edges) is allowed only with
    allow_i_equal_k=True.
    """

    name = "isolated-clique"

    def __init__(self, v: int, k: int, i: int, h: int, allow_i_equal_k: bool = False):
        if k < 2 or k > v:
            raise BadParameter(f"need 2 <= k <= v, got k={k}, v={v}")
        hi = k if allow_i_equal_k else k - 1
        if not 1 <= i <= hi:
            raise BadParameter(
                f"need 1 <= i < k (i = k only with the override), got i={i}, k={k}"
            )
        if not k + 1 <= h <= v:
            raise BadParameter(f"need k+1 <= h <= v, got h={h}")
        self.v = v
        self.k = k
        self.i = i
        self.h = h
        self.allow_i_equal_k = allow_i_equal_k
        self.n = math.comb(v, k)
        self.block_cap = k + 1
        self.has_packing = h == k + 1

    @staticmethod
    def from_t(
        v: int, k: int, i: int, t: float, allow_i_equal_k: bool = False
    ) -> "IsolatedCliqueProperty":
        """Resolve a clique-size exponent t to h = max(k+1, floor(v^t))."""
        h = max(k + 1, math.floor(v**t + 1e-9))
        return IsolatedCliqueProperty(v, k, i, h, allow_i_equal_k)

    def value(self, x) -> int:
        return 0 if self._find(input_bits(self, x)) is None else 1

    def witness(self) -> int:
        from .witnesses import build_s1_witness

        return build_s1_witness(self.v, self.k, self.i, self.h).bits

    def _make_packing(self):
        from .witnesses import clique_packing

        return clique_packing(self.v, self.k)

    def spec_json(self) -> dict:
        spec = {**super().spec_json(), "i": self.i, "h": self.h}
        if self.allow_i_equal_k:
            spec["allow_i_equal_k"] = True
        return spec


class IsolatedTriangleProperty(IsolatedCliqueProperty):
    """1 iff the graph has a triangle with no edges leaving it.

    IsolatedCliqueProperty(v, k=2, i=1, h=3) under its own name, spec
    and Steiner-triple-system packing.
    """

    name = "isolated-triangle"

    def __init__(self, v: int):
        if v < 3:
            raise BadParameter("need v >= 3")
        super().__init__(v, 2, 1, 3)

    def value(self, x) -> int:
        return 0 if self._find(input_bits(self, x)) is None else 1

    def _make_packing(self):
        from .witnesses import triangle_packing

        return triangle_packing(self.v)

    spec_json = GraphPropertyBase.spec_json


def property_from_json(obj) -> Property:
    """The property of a JSON spec (see each class's spec_json).  A null
    value counts as absent; a malformed spec is a BadParameter that names
    the problem."""
    if not isinstance(obj, dict):
        raise BadParameter("a property spec must be a JSON object")
    variant = obj.get("variant")
    if variant not in VARIANTS:
        raise BadParameter(f"unknown property variant {variant!r}")

    def need(key, number=int):
        val = obj.get(key)
        if isinstance(val, bool) or not isinstance(val, number):
            what = "an integer" if number is int else "a number"
            raise BadParameter(f"{variant} spec needs {what} {key!r}")
        return val

    if variant == "rubinstein":
        return RubinsteinProperty(need("rubinstein_k"))
    if variant == "cyclic-rubinstein":
        return CyclicRubinsteinProperty(need("rubinstein_k"))
    if variant == "isolated-vertex":
        return IsolatedVertexProperty(need("v"))
    if variant == "isolated-triangle":
        return IsolatedTriangleProperty(need("v"))
    v, k, i = need("v"), need("k"), need("i")
    allow = obj.get("allow_i_equal_k")
    if allow is not None and not isinstance(allow, bool):
        raise BadParameter(f"{variant} spec needs a boolean 'allow_i_equal_k'")
    allow = bool(allow)
    if obj.get("h") is not None:
        return IsolatedCliqueProperty(v, k, i, need("h"), allow)
    if obj.get("t") is not None:
        return IsolatedCliqueProperty.from_t(v, k, i, need("t", (int, float)), allow)
    raise BadParameter("isolated-clique spec needs 'h' or 't'")
