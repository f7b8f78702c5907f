"""The Boolean functions under study, behind one uniform evaluator interface.

Everything specific to one property lives on its class.  Every property
exposes

    n            -- input length in bits
    name         -- its spec "variant", one of VARIANTS
    value(x)     -- the function value at the bitmask x, 0 or 1
    explain(x)   -- EvalResult with a re-verifiable witness when value is 1
    patterns()   -- (care, want) pairs with value(x) = 1 iff x & care == want
                    for some pair, the form the batch evaluator reads
    witness_term(x)
                 -- at f(x) = 1, the (care, want) term of the witness that
                    explain(x) finds; every y with y & care == want has
                    f(y) = 1, so only a care bit of x can be sensitive
    witness_term_size()
                 -- popcount of every witness term's care, by closed form
    witness()    -- the canonical high-sensitivity input, as bits
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

Inputs are integers with bit i = variable i.  For the block-structured
functions the variables are positions 0..k^2-1 split into k consecutive
blocks of k; for graph and hypergraph properties bit i is the edge with
colex rank i (see hypergraphs).
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BadLength,
    BadParameter,
    IOutOfRange,
    LengthMismatch,
    OddK,
    WrongArity,
)
from .hypergraphs import Hypergraph, boundary_count, edges_of_bits, rank_lookup


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
            raise BadLength(f"input string has length {len(x)}, need {n}")
        if set(x) - {"0", "1"}:
            raise BadLength("input string must consist of 0s and 1s")
        return sum(1 << i for i, c in enumerate(x) if c == "1")
    if isinstance(x, int):
        if x < 0 or x >> n:
            raise LengthMismatch(f"bitmask does not fit in {n} bits")
        return x
    bits = list(x)
    if len(bits) != n:
        raise BadLength(f"input has length {len(bits)}, need {n}")
    return sum(1 << i for i, b in enumerate(bits) if b)


def input_bits(f, x) -> int:
    """f's input x as a bitmask: a Hypergraph goes through f.graph_bits,
    which checks its (v, k), anything else through as_bits."""
    return f.graph_bits(x) if isinstance(x, Hypergraph) else as_bits(x, f.n)


def bits_to_string(x: int, n: int) -> str:
    return "".join("1" if x >> i & 1 else "0" for i in range(n))


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

    def __call__(self, x) -> int:
        return self.value(x)

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

    def witness_term(self, x) -> tuple[int, int] | None:
        """The (care, want) term of explain(x)'s witness, None at f(x) = 0
        or when the function has no such form."""
        return None

    def witness_term_size(self) -> int | None:
        """Closed-form popcount of the care of every witness_term."""
        return None

    def witness(self) -> int:
        """The canonical high-sensitivity input, as bits."""
        raise NotImplementedError

    def packing(self):
        """The edge-disjoint Packing certifying bs at the empty input, or
        None when the property has none."""
        return None

    def spec_json(self) -> dict:
        raise NotImplementedError

    def input_json(self, bits: int):
        return bits_to_string(bits, self.n)

    def graph_bits(self, G: Hypergraph) -> int:
        raise BadParameter("a hypergraph input needs a graph property")


class RubinsteinProperty(Property):
    """1 iff some length-k block holds exactly two adjacent ones, rest zero."""

    name = "rubinstein"
    block_cap = 2

    def __init__(self, k: int):
        if k % 2:
            raise OddK(f"block count k must be even, got {k}")
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

    def witness_term(self, x):
        """The term of the witness block, rotated back by the witness shift."""
        res = self.explain(x)
        if res.value == 0:
            return None
        w = res.witness
        care = rotate_left(self._block_mask << w.block * self.k, -w.shift, self.n)
        return care, input_bits(self, x) & care

    def witness_term_size(self) -> int:
        return self.k

    def witness(self) -> int:
        # one 1 at in-block position 1 of every block: 2k sensitive bits
        return sum(1 << (b * self.k + 1) for b in range(self.k))

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

    def _edges(self, bits: int):
        return edges_of_bits(self.v, self.k, bits)

    def graph(self, bits: int) -> Hypergraph:
        return Hypergraph(self.v, self.k, bits)

    def _isolation_term(self, S) -> tuple[int, int]:
        """The term of the sorted h-set S: want is the C(h,k) edges inside S,
        and care is every k-set meeting S in at least i vertices, so care
        minus want is the edges that must be absent."""
        k = self.k
        rank_of = rank_lookup(self.v, k)
        inside = set(S)
        outside = [u for u in range(self.v) if u not in inside]
        care = 0
        for j in range(self.i, k + 1):
            for a in combinations(S, j):
                for b in combinations(outside, k - j):
                    care |= 1 << rank_of(tuple(sorted(a + b)))
        want = 0
        for e in combinations(S, k):
            want |= 1 << rank_of(e)
        return care, want

    def _make_patterns(self):
        return tuple(
            self._isolation_term(S) for S in combinations(range(self.v), self.h)
        )

    def _defects(self, bits: int, edges, S, limit: int) -> list[int]:
        """The ranks of the sorted h-set S's defects at bits, whose present
        edges are `edges`: its missing inside edges, then the present edges
        meeting it in i..k-1 vertices.  Stops once it has more than limit."""
        i, k = self.i, self.k
        rank_of = rank_lookup(self.v, k)
        out = []
        for r in map(rank_of, combinations(S, k)):
            if not bits >> r & 1:
                out.append(r)
                if len(out) > limit:
                    return out
        inside = frozenset(S)
        for e in edges:
            if i <= len(inside.intersection(e)) < k:
                out.append(rank_of(e))
                if len(out) > limit:
                    break
        return out

    def _degrees(self, edges) -> list[int]:
        deg = [0] * self.v
        for e in edges:
            for u in e:
                deg[u] += 1
        return deg

    def _find(self, bits: int):
        """The lexicographically first h-set without a defect, or None."""
        edges = self._edges(bits)
        if self.i > 1:
            for S in self._near_cliques(edges, 0):
                if not self._defects(bits, edges, S, 0):
                    return S
            return None
        # i = 1: the candidates are the closed neighbourhoods N[u] of the
        # vertices of degree d, each tried only from its least vertex
        d = math.comb(self.h - 1, self.k - 1)
        deg = self._degrees(edges)
        if d:
            closed = {}
            for e in edges:
                for u in e:
                    if deg[u] == d:
                        closed.setdefault(u, {u}).update(e)
        else:  # h = 1: a vertex of degree 0 is its own N[u]
            closed = {u: {u} for u in range(self.v) if not deg[u]}
        for u in sorted(closed):
            N = closed[u]
            if len(N) == self.h and min(N) == u and all(closed.get(w) == N for w in N):
                return tuple(sorted(N))
        return None

    def _near_cliques(self, edges, slack: int):
        """The h-sets, in lexicographic order, that may miss at most `slack`
        (0 or 1) of their inside edges, as candidates for _defects: slack 0
        for _find at i >= 2, slack 1 for enumerate_sensitive_tuples.

        Each vertex of such a set lies in C(h-1,k-1) inside edges, so its
        degree is at least C(h-1,k-1) - slack.  For h = k+1 and slack 1,
        the set keeps at least k of its k+1 inside edges; any two of those
        share k-1 vertices and unite to the set, so the unions of such edge
        pairs are the candidates.
        """
        v, k, h = self.v, self.k, self.h
        if h == k + 1 and slack:
            by_sub: dict = {}
            cands = set()
            for e in edges:
                for drop in range(k):
                    sub = e[:drop] + e[drop + 1 :]
                    for other in by_sub.setdefault(sub, []):
                        cands.add(tuple(sorted(set(e) | set(other))))
                    by_sub[sub].append(e)
            return sorted(cands)
        deg = self._degrees(edges)
        min_deg = math.comb(h - 1, k - 1) - slack
        return combinations([u for u in range(v) if deg[u] >= min_deg], h)

    def witness_term(self, x):
        res = self.explain(x)
        return None if res.value == 0 else self._isolation_term(res.witness)

    def witness_term_size(self) -> int:
        return math.comb(self.h, self.k) + boundary_count(
            self.v, self.h, self.i, self.k
        )

    def spec_json(self) -> dict:
        return {"variant": self.name, "v": self.v, "k": self.k}

    def input_json(self, bits: int):
        return self.graph(bits).to_json()

    def graph_bits(self, G: Hypergraph) -> int:
        if (G.v, G.k) != (self.v, self.k):
            raise BadParameter(
                f"input is on (v={G.v}, k={G.k}), property on (v={self.v}, k={self.k})"
            )
        return G.bits


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
            raise WrongArity(f"need 2 <= k <= v, got k={k}, v={v}")
        hi = k if allow_i_equal_k else k - 1
        if not 1 <= i <= hi:
            raise IOutOfRange(
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

    def packing(self):
        if self.h != self.k + 1:
            return None
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

    def packing(self):
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
