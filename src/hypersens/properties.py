"""The Boolean functions under study, behind one uniform evaluator interface.

Every property exposes

    n            -- input length in bits
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

Inputs are integers with bit i = variable i.  For the block-structured
functions the variables are positions 0..k^2-1 split into k consecutive
blocks of k; for graph and hypergraph properties bit i is the edge with
colex rank i (see hypergraphs).
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BadLength,
    BadParameter,
    IOutOfRange,
    LengthMismatch,
    OddK,
    SpecMismatch,
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
    """Coerce an input (int, 0/1 string, bit sequence, Hypergraph) to a bitmask."""
    if isinstance(x, Hypergraph):
        if x.num_slots != n:
            raise LengthMismatch(f"hypergraph has {x.num_slots} slots, need {n}")
        return x.bits
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


def bits_to_string(x: int, n: int) -> str:
    return "".join("1" if x >> i & 1 else "0" for i in range(n))


class Property:
    """Shared plumbing; subclasses set n/name and implement value/explain."""

    n: int
    name: str

    def value(self, x) -> int:
        raise NotImplementedError

    def explain(self, x) -> EvalResult:
        raise NotImplementedError

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

    def spec_json(self) -> dict:
        raise NotImplementedError


class RubinsteinProperty(Property):
    """1 iff some length-k block holds exactly two adjacent ones, rest zero."""

    def __init__(self, k: int):
        if k % 2:
            raise OddK(f"block count k must be even, got {k}")
        if k < 2:
            raise BadParameter("need k >= 2")
        self.k = k
        self.n = k * k
        self.name = "rubinstein"
        self._block_mask = (1 << k) - 1
        self._good = frozenset((1 << j) | (1 << (j + 1)) for j in range(k - 1))

    def _match(self, x: int) -> int | None:
        for b in range(self.k):
            if (x >> (b * self.k)) & self._block_mask in self._good:
                return b
        return None

    def value(self, x) -> int:
        return 0 if self._match(as_bits(x, self.n)) is None else 1

    def explain(self, x) -> EvalResult:
        b = self._match(as_bits(x, self.n))
        if b is None:
            return EvalResult(0)
        return EvalResult(1, RubinsteinWitness(block=b, shift=0))

    def _make_patterns(self):
        k = self.k
        return tuple(
            (self._block_mask << b * k, good << b * k)
            for b in range(k)
            for good in sorted(self._good)
        )

    def _block_term(self, x, res: EvalResult) -> tuple[int, int] | None:
        """The term of the witness block, rotated back by the witness shift."""
        if res.value == 0:
            return None
        w = res.witness
        care = rotate_left(self._block_mask << w.block * self.k, -w.shift, self.n)
        return care, as_bits(x, self.n) & care

    def witness_term(self, x):
        return self._block_term(x, self.explain(x))

    def witness_term_size(self) -> int:
        return self.k

    def spec_json(self) -> dict:
        return {"variant": "rubinstein", "rubinstein_k": self.k}


class CyclicRubinsteinProperty(Property):
    """Cyclic closure: 1 iff some left-rotation satisfies the block pattern."""

    def __init__(self, k: int):
        self._base = RubinsteinProperty(k)
        self.k = k
        self.n = k * k
        self.name = "cyclic-rubinstein"

    def value(self, x) -> int:
        bits = as_bits(x, self.n)
        return int(
            any(
                self._base._match(rotate_left(bits, l, self.n)) is not None
                for l in range(self.n)
            )
        )

    def explain(self, x) -> EvalResult:
        bits = as_bits(x, self.n)
        for l in range(self.n):
            b = self._base._match(rotate_left(bits, l, self.n))
            if b is not None:
                return EvalResult(1, RubinsteinWitness(block=b, shift=l))
        return EvalResult(0)

    def _make_patterns(self):
        # rotate_left(x, l) matches (care, want) iff x matches both rotated
        # right by l; rotations by a multiple of k repeat block terms
        n = self.n
        return tuple(
            dict.fromkeys(
                (rotate_left(care, -l, n), rotate_left(want, -l, n))
                for l in range(n)
                for care, want in self._base.patterns()
            )
        )

    def witness_term(self, x):
        return self._base._block_term(x, self.explain(x))

    def witness_term_size(self) -> int:
        return self.k

    def spec_json(self) -> dict:
        return {"variant": "cyclic-rubinstein", "rubinstein_k": self.k}


class GraphPropertyBase(Property):
    """Common plumbing for the graph/hypergraph properties, each of which is
    1 iff some h-set S holds all C(h,k) edges inside it and no edge meeting
    it in i..k-1 vertices (an isolated vertex is h = 1, a triangle h = 3,
    both with i = 1)."""

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

    def witness_term(self, x):
        res = self.explain(x)
        return None if res.value == 0 else self._isolation_term(res.witness)

    def witness_term_size(self) -> int:
        return math.comb(self.h, self.k) + boundary_count(
            self.v, self.h, self.i, self.k
        )


class IsolatedVertexProperty(GraphPropertyBase):
    """1 iff some vertex of the graph has degree zero."""

    def __init__(self, v: int):
        if v < 1:
            raise BadParameter("need v >= 1")
        self.v = v
        self.k = 2
        self.i = 1
        self.h = 1
        self.n = math.comb(v, 2)
        self.name = "isolated-vertex"

    def value(self, x) -> int:
        bits = as_bits(x, self.n)
        touched = set()
        for e in self._edges(bits):
            touched.update(e)
        return int(len(touched) < self.v)

    def explain(self, x) -> EvalResult:
        bits = as_bits(x, self.n)
        touched = set()
        for e in self._edges(bits):
            touched.update(e)
        for u in range(self.v):
            if u not in touched:
                return EvalResult(1, (u,))
        return EvalResult(0)

    def spec_json(self) -> dict:
        return {"variant": "isolated-vertex", "v": self.v, "k": 2}


class IsolatedTriangleProperty(GraphPropertyBase):
    """1 iff the graph has a triangle with no edges leaving it.

    Equivalent to IsolatedCliqueProperty(v, k=2, i=1, h=3); kept as a
    dedicated evaluator because isolation at i=1 reduces to a degree check,
    which the scaling sweeps lean on.
    """

    def __init__(self, v: int):
        if v < 3:
            raise BadParameter("need v >= 3")
        self.v = v
        self.k = 2
        self.i = 1
        self.h = 3
        self.n = math.comb(v, 2)
        self.name = "isolated-triangle"

    def _find(self, bits: int):
        edges = self._edges(bits)
        deg = Counter()
        adj = {}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        # an isolated triangle is exactly three mutually adjacent vertices
        # of degree 2, and its least vertex determines it
        for a in sorted(adj):
            if deg[a] != 2:
                continue
            b, c = sorted(adj[a])
            if deg[b] == 2 and deg[c] == 2 and c in adj[b]:
                return tuple(sorted((a, b, c)))
        return None

    def value(self, x) -> int:
        return 0 if self._find(as_bits(x, self.n)) is None else 1

    def explain(self, x) -> EvalResult:
        S = self._find(as_bits(x, self.n))
        return EvalResult(0) if S is None else EvalResult(1, S)

    def spec_json(self) -> dict:
        return {"variant": "isolated-triangle", "v": self.v, "k": 2}


class IsolatedCliqueProperty(GraphPropertyBase):
    """1 iff some h-clique H exists with every outside edge meeting H in < i vertices.

    The isolation level must satisfy 1 <= i < k; i = k (which makes the
    isolation requirement vacuous for k-uniform edges) is allowed only with
    allow_i_equal_k=True.
    """

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
        self.n = math.comb(v, k)
        self.name = "isolated-clique"
        self._min_deg = math.comb(h - 1, k - 1)

    @classmethod
    def from_t(
        cls, v: int, k: int, i: int, t: float, allow_i_equal_k: bool = False
    ) -> "IsolatedCliqueProperty":
        """Resolve a clique-size exponent t to h = max(k+1, floor(v^t))."""
        h = max(k + 1, math.floor(v**t + 1e-9))
        return cls(v, k, i, h, allow_i_equal_k)

    def _find(self, bits: int):
        edges = self._edges(bits)
        if len(edges) < math.comb(self.h, self.k):
            return None
        deg = Counter()
        for e in edges:
            for u in e:
                deg[u] += 1
        # every vertex of an h-clique lies in C(h-1, k-1) of its edges
        cand = sorted(u for u, d in deg.items() if d >= self._min_deg)
        if len(cand) < self.h:
            return None
        rank_of = rank_lookup(self.v, self.k)
        for S in combinations(cand, self.h):
            inside = frozenset(S)
            if not all(
                bits >> rank_of(sub) & 1 for sub in combinations(S, self.k)
            ):
                continue
            if self._isolated(edges, inside):
                return S
        return None

    def _isolated(self, edges, inside: frozenset) -> bool:
        for e in edges:
            c = sum(1 for u in e if u in inside)
            if self.i <= c < self.k:
                return False
        return True

    def value(self, x) -> int:
        return 0 if self._find(as_bits(x, self.n)) is None else 1

    def explain(self, x) -> EvalResult:
        S = self._find(as_bits(x, self.n))
        return EvalResult(0) if S is None else EvalResult(1, S)

    def spec_json(self) -> dict:
        return {
            "variant": "isolated-clique",
            "v": self.v,
            "k": self.k,
            "i": self.i,
            "h": self.h,
        }


def eval_rubinstein(k: int, x) -> EvalResult:
    return RubinsteinProperty(k).explain(x)


def eval_cyclic_rubinstein(k: int, x) -> EvalResult:
    return CyclicRubinsteinProperty(k).explain(x)


def eval_isolated_vertex(G: Hypergraph) -> EvalResult:
    if G.k != 2:
        raise WrongArity("isolated-vertex is a graph (k=2) property")
    return IsolatedVertexProperty(G.v).explain(G)


def eval_isolated_clique(spec: IsolatedCliqueProperty, G: Hypergraph) -> EvalResult:
    if (spec.v, spec.k) != (G.v, G.k):
        raise SpecMismatch(
            f"spec is on (v={spec.v}, k={spec.k}), input on (v={G.v}, k={G.k})"
        )
    return spec.explain(G)


def property_from_json(obj: dict) -> Property:
    variant = obj["variant"]
    if variant == "rubinstein":
        return RubinsteinProperty(obj["rubinstein_k"])
    if variant == "cyclic-rubinstein":
        return CyclicRubinsteinProperty(obj["rubinstein_k"])
    if variant == "isolated-vertex":
        return IsolatedVertexProperty(obj["v"])
    if variant == "isolated-triangle":
        return IsolatedTriangleProperty(obj["v"])
    if variant == "isolated-clique":
        v, k, i = obj["v"], obj["k"], obj["i"]
        allow = bool(obj.get("allow_i_equal_k", False))
        if "h" in obj:
            return IsolatedCliqueProperty(v, k, i, obj["h"], allow)
        return IsolatedCliqueProperty.from_t(v, k, i, obj["t"], allow)
    raise BadParameter(f"unknown property variant {variant!r}")
