"""Right-angled Artin groups: words, exact normal forms, group operations.

The canonical representative of a group element is its shortlex-minimal
geodesic word, with letters ordered by (generator index, sign) and +1 before
-1. Elements store that word as syllables (generator, nonzero exponent), so
a run of a billion equal letters costs one syllable and all arithmetic stays
exact on plain ints. A literal Word, read from text and not yet reduced,
is stored the same way, as its maximal runs.

The syllable engine (_append_syllable and friends) is the only decision
procedure here. Its test oracle, the piling invariant with a BFS distance,
shares no code with it and lives in tests/oracles.py.

CertificateViolation, the error every layer raises when a proof obligation
fails, the two input errors of the builders, ConfigError and
PreconditionFailed, and the truncation limits with their defaults are
defined here so that each layer can import them from the bottom one.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple


class WordError(ValueError):
    """Malformed word, generator, or defining-graph input."""


class UnknownGenerator(WordError):
    pass


class MalformedExponent(WordError):
    pass


class ZeroExponent(WordError):
    pass


class MixedGraphs(WordError):
    """Two values built over different defining graphs met in one operation."""


class CertificateViolation(RuntimeError):
    """A proof obligation behind a certified value failed. This is a fault
    in the program, not in its input, and no `python -O` run skips it."""


class ConfigError(ValueError):
    """A builder was asked for parameters outside its domain."""


class PreconditionFailed(ValueError):
    """Input data violates a stated precondition of the construction."""


class TruncationLimit(ValueError):
    """A query reached a truncation limit, a ray depth or a ball cap; a
    larger limit may settle it. Not bad input."""


DEFAULT_DEPTH = 40  # letters of a ray read by the boundary products
DEFAULT_BALL_CAP = 12  # largest ball radius enumerated


class _Frozen:
    """Base of the immutable records of the word, wall and ray layers,
    and of cubemorse.records._Record, the base of all the others.
    Each subclass's __init__ sets its fields once with object.__setattr__,
    which keeps them in the instance's compact attribute storage, and
    nothing may assign or delete them later: their hashes key caches.
    Equality follows the dataclass rule, field by field and only between
    instances of one class. They are not dataclasses because a cold
    command that loads these layers would then import dataclasses and
    inspect and generate every method, which costs it more than its own
    work on small inputs."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class DefiningGraph(_Frozen):
    """Finite simplicial graph; vertices are generator names, edges are
    commutation relations. Generator order is file order and is total."""

    def __init__(self, generators: tuple[str, ...], edges: frozenset[tuple[int, int]]):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.edges) == (other.generators, other.edges)

    def __hash__(self) -> int:
        return hash((self.generators, self.edges))

    def __repr__(self) -> str:
        return f"DefiningGraph(generators={self.generators!r}, edges={self.edges!r})"

    @classmethod
    def from_data(cls, data: dict) -> "DefiningGraph":
        if not isinstance(data, dict):
            raise WordError("defining graph must be a JSON object")
        gens = data.get("generators")
        if not isinstance(gens, list) or not gens:
            raise WordError("defining graph needs a nonempty generator list")
        seen: dict[str, int] = {}
        for name in gens:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise WordError(f"bad generator name: {name!r}")
            if name in seen:
                raise WordError(f"duplicate generator name: {name!r}")
            seen[name] = len(seen)
        edges = set()
        for pair in data.get("edges", []):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise WordError(f"bad edge: {pair!r}")
            u, v = pair
            if u not in seen or v not in seen:
                raise UnknownGenerator(f"edge references unknown generator: {pair!r}")
            if u == v:
                raise WordError(f"self-loop on {u!r}")
            i, j = sorted((seen[u], seen[v]))
            edges.add((i, j))
        return cls(generators=tuple(gens), edges=frozenset(edges))

    @classmethod
    def from_json(cls, path: str) -> "DefiningGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_data(json.load(fh))

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.generators)}

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in self.generators]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        return tuple(sum(1 << j for j in link) for link in self.adjacency)

    def gen_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator: {name!r}") from None

    def adjacent(self, g: int, h: int) -> bool:
        return (self.adj_mask[g] >> h) & 1 == 1

    def link(self, g: int) -> frozenset[int]:
        return self.adjacency[g]

    def mask_of(self, gens: Iterable[int]) -> int:
        m = 0
        for g in gens:
            m |= 1 << g
        return m

    def __len__(self) -> int:
        return len(self.generators)


class Letter(NamedTuple):
    gen: int
    sign: int


class Word(_Frozen):
    """A literal letter sequence; may be non-reduced.

    runs accepts any iterable of (gen, exp) runs with exp nonzero, and is
    stored as the maximal runs it spells: a run (g, -3) stands for the
    three letters g^-1 g^-1 g^-1, and plain Letter tuples are the special
    case of length-one runs. Length, equality, hashing, indexing and
    slicing cost O(runs), so words with astronomically long runs stay
    cheap. Iterating yields one Letter per letter; do that only on short
    words.
    """

    def __init__(self, graph: DefiningGraph, runs: Iterable[tuple[int, int]]):
        n = len(graph.generators)
        merged: list[tuple[int, int]] = []
        for g, e in runs:
            if e == 0:
                raise ZeroExponent("zero-length run")
            if not 0 <= g < n:
                raise WordError(f"letter out of range: generator index {g}")
            if merged and merged[-1][0] == g and (merged[-1][1] > 0) == (e > 0):
                merged[-1] = (g, merged[-1][1] + e)
            else:
                merged.append((g, e))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "runs", tuple(merged))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph, self.runs) == (other.graph, other.runs)

    def __hash__(self) -> int:
        return hash((self.graph, self.runs))

    def __repr__(self) -> str:
        return f"Word(graph={self.graph!r}, runs={self.runs!r})"

    @cached_property
    def _length(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Letter]:
        for g, e in self.runs:
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield Letter(g, s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                raise WordError("letter slices must have step 1")
            out: list[tuple[int, int]] = []
            pos = 0
            for g, e in self.runs:
                if pos >= stop:
                    break
                k = abs(e)
                lo, hi = max(start, pos), min(stop, pos + k)
                if lo < hi:
                    out.append((g, hi - lo if e > 0 else lo - hi))
                pos += k
            return Word(self.graph, out)
        i = index + self._length if index < 0 else index
        if not 0 <= i < self._length:
            raise IndexError(index)
        for g, e in self.runs:
            k = abs(e)
            if i < k:
                return Letter(g, 1 if e > 0 else -1)
            i -= k
        raise IndexError(index)

    def text(self) -> str:
        return _runs_to_text(self.graph, self.runs)

    def __str__(self) -> str:
        return self.text()


def _runs_to_text(graph: DefiningGraph, runs) -> str:
    out: list[str] = []
    for g, e in runs:
        name = graph.generators[g]
        out.append(name if e == 1 else f"{name}^{e}")
    return " ".join(out)


def parse_word(text: str, graph: DefiningGraph) -> Word:
    """Literal reading of the word grammar; performs no reduction.

    Grammar: space-separated tokens, each NAME or NAME^INT with INT a
    nonzero signed decimal. The empty string is the identity.
    """
    runs: list[tuple[int, int]] = []
    for token in text.split():
        name, caret, exp_text = token.partition("^")
        if not _NAME_RE.match(name):
            raise UnknownGenerator(f"bad token {token!r}: not a generator name")
        g = graph.gen_index(name)
        if caret:
            if not _INT_RE.match(exp_text):
                raise MalformedExponent(f"bad exponent in token {token!r}")
            e = int(exp_text)
            if e == 0:
                raise ZeroExponent(f"zero exponent in token {token!r}")
        else:
            e = 1
        runs.append((g, e))
    return Word(graph, runs)


# --- syllable engine ---------------------------------------------------------
#
# A canonical syllable list is the shortlex normal form with maximal runs of
# one letter merged into (gen, exp) pairs. _append_syllable keeps the list
# canonical under right multiplication by gen**exp:
#
#   scan right to left through syllables commuting with gen;
#   - same generator reached: merge exponents (cancel on zero, and if the
#     cancellation makes the two neighbours same-generator, merge them too;
#     their signs must then agree or the original word was not geodesic);
#   - non-commuting generator reached: the new syllable belongs after it,
#     slid left past any commuting syllables with larger letter key.


def _letter_key(gen: int, exp: int) -> tuple[int, int]:
    return (gen, 0 if exp > 0 else 1)


def _append_syllable(graph: DefiningGraph, out: list, gen: int, exp: int) -> None:
    adj = graph.adj_mask[gen]
    i = len(out) - 1
    while i >= 0:
        g2, e2 = out[i]
        if g2 == gen:
            merged = e2 + exp
            if merged == 0:
                del out[i]
                if 0 < i < len(out) and out[i - 1][0] == out[i][0]:
                    ga, ea = out[i - 1]
                    eb = out[i][1]
                    if (ea > 0) != (eb > 0):
                        raise CertificateViolation("cancellation broke geodesy")
                    out[i - 1] = (ga, ea + eb)
                    del out[i]
            else:
                out[i] = (gen, merged)
            return
        if not (adj >> g2) & 1:
            break
        i -= 1
    key = _letter_key(gen, exp)
    j = i + 1
    while j < len(out) and _letter_key(*out[j]) < key:
        j += 1
    out.insert(j, (gen, exp))


def _fold(graph: DefiningGraph, items: Iterable[tuple[int, int]]) -> tuple:
    out: list = []
    for gen, exp in items:
        if exp:
            _append_syllable(graph, out, gen, exp)
    return tuple(out)


def _strip_left(graph: DefiningGraph, syllables, gens_mask: int):
    """Split off the maximal removable prefix whose generators lie in
    gens_mask. Returns (removed, kept) with element == removed * kept and
    kept a geodesic word for the minimal representative of the right coset
    <gens>*element. Neither half need be in normal form. Both halves hold
    the input's own syllable objects, so a stripped word shares them.

    A syllable is removable when its generator is masked and commutes with
    every kept syllable so far. Kept syllables only accumulate, so once
    every masked generator is blocked the rest of the word is kept whole:
    stripping a long word costs the syllables up to that point."""
    kept: list = []
    removed: list = []
    open_mask = gens_mask  # masked generators that no kept syllable blocks
    for i, syllable in enumerate(syllables):
        gen = syllable[0]
        if (open_mask >> gen) & 1:
            removed.append(syllable)
        else:
            kept.append(syllable)
            open_mask &= graph.adj_mask[gen]  # adj_mask excludes gen itself
            if not open_mask:
                kept.extend(islice(syllables, i + 1, None))
                break
    return tuple(removed), tuple(kept)


def _strip_right(graph: DefiningGraph, syllables, gens_mask: int):
    """Mirror of _strip_left on the reversed word: (kept, removed) with
    element == kept * removed. On canonical input kept is canonical too,
    the minimal representative of the left coset element*<gens>; removed,
    a word in the masked generators, need not be.

    The scan runs from the end of the word, and once every masked
    generator is blocked the untouched prefix is kept as one slice, so a
    strip costs the syllables it scans, not the length of the word."""
    tail: list = []  # kept syllables after the untouched prefix, last first
    removed: list = []
    open_mask = gens_mask
    stop = 0
    for i in range(len(syllables) - 1, -1, -1):
        syllable = syllables[i]
        gen = syllable[0]
        if (open_mask >> gen) & 1:
            removed.append(syllable)
        else:
            tail.append(syllable)
            open_mask &= graph.adj_mask[gen]
            if not open_mask:
                stop = i
                break
    tail.reverse()
    removed.reverse()
    return tuple(syllables[:stop]) + tuple(tail), tuple(removed)


class GroupElement(_Frozen):
    """A RAAG element in canonical form. Do not call the constructor with
    non-canonical syllables; use normal_form, *, or the methods."""

    def __init__(self, graph: DefiningGraph, syllables: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "syllables", syllables)

    # hot path: elements live in large sets during ball enumeration, so
    # equality short-circuits on syllables and the hash is cached (colliding
    # across graphs is fine; mixing graphs in one container is not done)
    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.syllables == other.syllables and (
            self.graph is other.graph or self.graph == other.graph
        )

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.syllables)
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def identity(cls, graph: DefiningGraph) -> "GroupElement":
        return cls(graph, ())

    @classmethod
    def from_text(cls, graph: DefiningGraph, text: str) -> "GroupElement":
        return normal_form(parse_word(text, graph))

    @cached_property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def normal(self) -> Word:
        return Word(self.graph, self.syllables)

    def text(self) -> str:
        return _runs_to_text(self.graph, self.syllables)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"<{self.text() or '1'}>"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.graph is not other.graph and self.graph != other.graph:
            raise MixedGraphs("cannot multiply over different defining graphs")
        return self.append_syllables(other.syllables)

    def inverse(self) -> "GroupElement":
        return GroupElement(
            self.graph,
            _fold(self.graph, ((g, -e) for g, e in reversed(self.syllables))),
        )

    def __pow__(self, n: int) -> "GroupElement":
        if n == 0:
            return GroupElement.identity(self.graph)
        base = self if n > 0 else self.inverse()
        if len(base.syllables) == 1:
            g, e = base.syllables[0]
            return GroupElement(base.graph, ((g, e * abs(n)),))
        return base.append_syllables(base.syllables * (abs(n) - 1))

    def append_syllables(self, syllables) -> "GroupElement":
        """self times the element spelled by nonzero (gen, exp) syllables,
        which need not be canonical: the engine refolds them one by one."""
        out = list(self.syllables)
        for gen, exp in syllables:
            _append_syllable(self.graph, out, gen, exp)
        return GroupElement(self.graph, tuple(out))

    def append_run(self, gen: int, exp: int) -> "GroupElement":
        if exp == 0:
            return self
        out = list(self.syllables)
        _append_syllable(self.graph, out, gen, exp)
        return GroupElement(self.graph, tuple(out))


def normal_form(w: Word) -> GroupElement:
    """Unique shortlex-minimal geodesic representative."""
    return GroupElement(w.graph, _fold(w.graph, w.runs))


def quotient(a: GroupElement, b: GroupElement) -> GroupElement:
    """a^-1 · b, with work in the syllables after their common prefix.

    Normal forms are words, so with c the longest common syllable prefix,
    a = c·a' and b = c·b' as words, and a^-1·b = a'^-1·b'. The prefix is
    found by tuple comparisons; only a' and b' reach the syllable engine.
    The first probe assumes b shares all but the last few syllables of a,
    as a vertex near a wall's base or a frame's origin does."""
    if a.graph is not b.graph and a.graph != b.graph:
        raise MixedGraphs("cannot multiply over different defining graphs")
    x, y = a.syllables, b.syllables
    lo, hi = 0, min(len(x), len(y))  # x[:lo] == y[:lo], and no longer prefix beyond hi
    mid = max(hi - 8, 0)
    while lo < hi:
        if x[lo:mid] == y[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
        mid = (lo + hi + 1) // 2
    inv_x = [(g, -e) for g, e in reversed(x[lo:])]
    return GroupElement(a.graph, _fold(a.graph, inv_x + list(y[lo:])))


def distance(x: GroupElement, y: GroupElement) -> int:
    """Graph distance in the Cayley 1-skeleton."""
    if x.graph is not y.graph and x.graph != y.graph:
        raise MixedGraphs("cannot measure distance across defining graphs")
    return quotient(x, y).length
