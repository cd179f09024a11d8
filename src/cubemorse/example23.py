"""The glued labeled graph of Example 2.3 and its small-cancellation check.

A spine of edge labels with one loop glued on at each position i, of a
length set by a polynomial f, used to measure how the fellow-travel
radius of two basepoints depends on the basepoint; and the piece
overlap bound for the loops read as relators. None of it uses the cube
complex: words live in the free group on the 14 edge labels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .raag import (
    CertificateViolation,
    ConfigError,
    DefiningGraph,
    MixedGraphs,
    PreconditionFailed,
    Word,
    parse_word,
)
from .records import _Record


# --- glued labeled graph ---------------------------------------------------------


ALPHABET14 = ("a", "b1", "b2", "b3", "b4", "b5", "b6", "c", "d1", "d2", "d3", "d4", "d5", "d6")


def free_alphabet_graph() -> DefiningGraph:
    """The 14 edge labels as a free (edgeless) generator set."""
    return DefiningGraph.from_data({"generators": list(ALPHABET14), "edges": []})


class PolySpec(_Record):
    """Integer-coefficient polynomial, coefficients by ascending degree."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_text(cls, text: str) -> "PolySpec":
        parts = text.replace(":", " ").split()
        if parts and parts[0].lower() == "poly":
            parts = parts[1:]
        if not parts:
            raise ConfigError("empty polynomial spec")
        try:
            return cls(tuple(Fraction(p) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad polynomial spec {text!r}: {exc}") from None

    def __call__(self, i: int) -> Fraction:
        acc = Fraction(0)
        for k, c in enumerate(self.coeffs):
            acc += c * Fraction(i) ** k
        return acc


def _as_f(f) -> Callable[[int], Fraction]:
    if isinstance(f, str):
        return PolySpec.from_text(f)
    if callable(f):
        return lambda i: Fraction(f(i))
    raise ConfigError("f must be a polynomial spec or a callable")


def _check_f(fn: Callable[[int], Fraction], i_max: int) -> dict[int, int]:
    values: dict[int, int] = {}
    for i in range(1, i_max + 1):
        v = fn(i)
        if v.denominator != 1:
            raise PreconditionFailed(f"f({i}) = {v} is not an integer")
        values[i] = int(v)
    for i, v in values.items():
        if v <= i:
            raise PreconditionFailed(f"f({i}) = {v} must exceed {i}")
    # superlinearity proxy on the sampled range; with f(i) > i it makes f
    # increasing: f(i+1) > f(i)*(i+1)/i > f(i)
    for i in range(1, i_max):
        if Fraction(values[i + 1], i + 1) <= Fraction(values[i], i):
            raise PreconditionFailed(f"f(i)/i does not increase at i = {i}")
    return values


class LabeledGraph:
    """Finite graph with string vertices, labeled edges, deterministic BFS."""

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, str]] = {}

    def add_vertex(self, name: str) -> None:
        if name in self._adj:
            raise ConfigError(f"vertex exists: {name}")
        self._adj[name] = {}

    def add_edge(self, u: str, v: str, label: str) -> None:
        if u == v:
            raise ConfigError("no loops")
        if v in self._adj[u]:
            raise ConfigError(f"edge exists: {u} {v}")
        self._adj[u][v] = label
        self._adj[v][u] = label

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._adj)

    def neighbors(self, u: str) -> tuple[str, ...]:
        return tuple(sorted(self._adj[u]))

    def label(self, u: str, v: str) -> str:
        return self._adj[u][v]

    def _bfs(self, *sources: str) -> dict[str, tuple[int, Optional[str]]]:
        """{vertex: (distance to the nearest source, BFS parent)} over every
        vertex reachable from the sources. Neighbours are visited in sorted
        order and a parent is set when a vertex is first found, so the
        lexicographically least parent wins and the tree is deterministic."""
        tree: dict[str, tuple[int, Optional[str]]] = {s: (0, None) for s in sources}
        queue = list(tree)
        for x in queue:
            dy = tree[x][0] + 1
            for y in self.neighbors(x):
                if y not in tree:
                    tree[y] = (dy, x)
                    queue.append(y)
        return tree

    def distance(self, u: str, v: str) -> int:
        return len(self.geodesic(u, v)) - 1

    def geodesic(self, u: str, v: str) -> list[str]:
        """The BFS geodesic from u to v in the tree of _bfs(u)."""
        return _path_to(self._bfs(u), u, v)


def _path_to(tree: dict[str, tuple[int, Optional[str]]], u: str, v: str) -> list[str]:
    if v not in tree:
        raise ValueError(f"{v} unreachable from {u}")
    out = [v]
    while (up := tree[out[-1]][1]) is not None:
        out.append(up)
    return out[::-1]


class Example23(_Record):
    """Finite truncation of the glued ray space.

    The base ray R runs o, a1 .. a{tail} with label a. Branch ray R_i
    leaves R at a{i}: six blocks of f(i) edges labeled b1 .. b6, then a
    c-labeled tail. The shortcut S_i leaves the shared c-spine at c{i}
    with one b1 edge and six descending d-blocks, rejoining R_i at the
    junction after its b-blocks. o' is c1, the common second vertex of
    every shortcut."""

    graph: LabeledGraph
    f_items: tuple[tuple[int, int], ...]
    i_max: int
    tail: int

    @property
    def o(self) -> str:
        return "o"

    @property
    def o_prime(self) -> str:
        return "c1"

    @property
    def f_values(self) -> dict[int, int]:
        return dict(self.f_items)

    @property
    def spine(self) -> tuple[str, ...]:
        return ("o",) + tuple(f"a{k}" for k in range(1, self.tail + 1))

    def ray_end(self, i: int) -> str:
        return f"r{i}.{6 * self.f_values[i] + self.tail}"


def build_example23(f, i_max: int, tail: int) -> Example23:
    """Assemble the truncation; f is checked on [1, i_max] first."""
    if i_max < 1:
        raise ConfigError("need i_max >= 1")
    fn = _as_f(f)
    values = _check_f(fn, i_max)
    if tail < i_max:
        raise ConfigError("tail must reach every branch point: tail >= i_max")

    g = LabeledGraph()
    g.add_vertex("o")
    prev = "o"
    for k in range(1, tail + 1):
        g.add_vertex(f"a{k}")
        g.add_edge(prev, f"a{k}", "a")
        prev = f"a{k}"
    prev = "o"
    for k in range(1, i_max + 1):
        g.add_vertex(f"c{k}")
        g.add_edge(prev, f"c{k}", "c")
        prev = f"c{k}"
    for i in range(1, i_max + 1):
        fi = values[i]
        prev = f"a{i}"
        for k in range(1, 6 * fi + tail + 1):
            name = f"r{i}.{k}"
            label = f"b{(k - 1) // fi + 1}" if k <= 6 * fi else "c"
            g.add_vertex(name)
            g.add_edge(prev, name, label)
            prev = name
        prev = f"c{i}"
        for k in range(1, 6 * fi + 1):
            name = f"s{i}.{k}"
            # d-blocks descend from d6 to d1 so the reversed reading
            # of the shortcut starts with d1
            label = "b1" if k == 1 else f"d{6 - (k - 2) // fi}"
            g.add_vertex(name)
            g.add_edge(prev, name, label)
            prev = name
        g.add_edge(prev, f"r{i}.{6 * fi}", "d1")

    n_branch = sum(12 * v + tail for v in values.values())
    want = (1 + tail + i_max + n_branch, tail + i_max + n_branch + i_max)
    if (g.vertex_count, g.edge_count) != want:
        raise CertificateViolation("glued graph has the wrong vertex or edge count")
    return Example23(g, tuple(sorted(values.items())), i_max, tail)


class BasepointRow(_Record):
    i: int
    d_o: int
    d_oprime: int
    radius_o: int
    radius_oprime: int


def basepoint_experiment(
    ex: Example23, kappa_val: int, i_range: Optional[Iterable[int]] = None
) -> tuple[BasepointRow, ...]:
    """Fellow-travel radii of branch-ray geodesics against the base ray.

    For each i, a BFS geodesic is traced to the end of R_i from o and
    from o'. The radius is how far from the basepoint the geodesic stays
    within kappa_val of R. From o the geodesic must ride R to the branch
    point, so the radius grows with i; from o' it shortcuts through the
    spine of c-edges and leaves the neighbourhood of R immediately.

    Three BFS passes answer every row: one from all of R gives d(v, R),
    and the trees from o and from o' give the geodesics. The k-th vertex
    of a geodesic is k from its start, so the radius is the largest k
    with d(geo[k], R) <= kappa_val, or 0 when there is none."""
    if kappa_val < 0:
        raise ConfigError(f"need kappa >= 0, got {kappa_val}")
    g = ex.graph
    near = g._bfs(*ex.spine)
    trees = {b: g._bfs(b) for b in (ex.o, ex.o_prime)}

    def measure(base: str, end: str) -> tuple[int, int]:
        # the geodesic's length and its fellow-travel radius
        geo = _path_to(trees[base], base, end)
        close = [k for k, v in enumerate(geo) if near[v][0] <= kappa_val]
        return len(geo) - 1, max(close, default=0)

    rows = []
    for i in i_range if i_range is not None else range(1, ex.i_max + 1):
        end = ex.ray_end(i)
        d_o, r_o = measure(ex.o, end)
        d_op, r_op = measure(ex.o_prime, end)
        rows.append(BasepointRow(i, d_o, d_op, r_o, r_op))
    return tuple(rows)


def example23_relators(f, i_max: int) -> tuple[Word, ...]:
    """The glued loops for i = 1..i_max read as words over the 14-letter
    alphabet, f checked on [1, i_max] as build_example23 checks it.

    Loop i goes out along R to the branch point, through the b-blocks of
    R_i to the junction, then back through the shortcut and the c-spine:
    a^i b1^f .. b6^f d1^-f .. d6^-f b1^-1 c^-i."""
    graph = free_alphabet_graph()
    words = []
    for i, fi in _check_f(_as_f(f), i_max).items():
        text = (
            f"a^{i} "
            + " ".join(f"b{j}^{fi}" for j in range(1, 7))
            + " "
            + " ".join(f"d{j}^-{fi}" for j in range(1, 7))
            + f" b1^-1 c^-{i}"
        )
        words.append(parse_word(text, graph))
    return tuple(words)


# --- small cancellation ----------------------------------------------------------


class SmallCancellationReport(_Record):
    max_ratio: Fraction
    piece_length: int
    relator_pair: tuple[int, int]
    piece: str
    relator_lengths: tuple[int, ...]
    passes_sixth: bool


def _encode(w: Word) -> bytes:
    return bytes(lt.gen * 2 + (0 if lt.sign > 0 else 1) for lt in w)


def _invert_bytes(b: bytes) -> bytes:
    return bytes(x ^ 1 for x in reversed(b))


def _substrings(doubled: bytes, n: int, L: int) -> set[bytes]:
    return {doubled[k : k + L] for k in range(n)}


def _longest(exists: Callable[[int], Optional[bytes]], hi: int) -> tuple[int, bytes]:
    """The largest L in [0, hi] with a witness exists(L), and that witness,
    by binary search: a witness of length L has witnesses of every shorter
    length inside it."""
    lo, best = 0, b""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        w = exists(mid)
        if w is None:
            hi = mid - 1
        else:
            lo, best = mid, w
    return lo, best


def _max_common(d1: bytes, n1: int, d2: bytes, n2: int, cap: int) -> tuple[int, bytes]:
    """Longest common cyclic substring up to cap, with one witness."""

    def exists(L: int) -> Optional[bytes]:
        common = _substrings(d1, n1, L) & _substrings(d2, n2, L)
        return min(common) if common else None

    return _longest(exists, cap)


def _max_repeated(doubled: bytes, n: int) -> tuple[int, bytes]:
    """Longest substring occurring at two distinct cyclic starts."""

    def exists(L: int) -> Optional[bytes]:
        seen: set[bytes] = set()
        for k in range(n):
            sub = doubled[k : k + L]
            if sub in seen:
                return sub
            seen.add(sub)
        return None

    return _longest(exists, n - 1)


def small_cancellation_check(relators: Sequence[Word]) -> SmallCancellationReport:
    """Classical C'(1/6) proxy over the symmetrized relator set.

    A piece is a common subword of two distinct elements of the
    symmetrized set: cyclic shifts of distinct relators or their
    inverses, a subword repeated at two cyclic starts of one relator, or
    a common subword of a relator and its own inverse. The ratio of a
    piece is its length over the shorter relator involved."""
    if not relators:
        raise ValueError("need at least one relator")
    graph = relators[0].graph
    encoded: list[bytes] = []
    for w in relators:
        if w.graph is not graph and w.graph != graph:
            raise MixedGraphs("relators must share one alphabet")
        b = _encode(w)
        if not b:
            raise ValueError("empty relator")
        for k in range(len(b)):
            if b[k] ^ 1 == b[(k + 1) % len(b)]:
                raise ValueError("relator is not cyclically reduced")
        encoded.append(b)
    for i in range(len(encoded)):
        for j in range(i + 1, len(encoded)):
            if encoded[i] == encoded[j]:
                raise ValueError(f"relators {i} and {j} are equal")

    doubled = [b + b for b in encoded]
    inv_doubled = []
    for b in encoded:
        ib = _invert_bytes(b)
        inv_doubled.append(ib + ib)
    lengths = tuple(len(b) for b in encoded)

    best_ratio = Fraction(0)
    best = (0, (0, 0), b"")
    for i in range(len(encoded)):
        ni = lengths[i]
        cands: list[tuple[int, bytes, tuple[int, int]]] = []
        lam, w = _max_repeated(doubled[i], ni)
        cands.append((lam, w, (i, i)))
        lam, w = _max_common(doubled[i], ni, inv_doubled[i], ni, ni)
        cands.append((lam, w, (i, i)))
        for j in range(i + 1, len(encoded)):
            nj = lengths[j]
            cap = min(ni, nj)
            lam, w = _max_common(doubled[i], ni, doubled[j], nj, cap)
            cands.append((lam, w, (i, j)))
            lam, w = _max_common(doubled[i], ni, inv_doubled[j], nj, cap)
            cands.append((lam, w, (i, j)))
        for lam, w, pair in cands:
            denom = min(lengths[pair[0]], lengths[pair[1]])
            ratio = Fraction(lam, denom)
            if ratio > best_ratio or (ratio == best_ratio and lam > best[0]):
                best_ratio = ratio
                best = (lam, pair, w)

    lam, pair, w = best
    return SmallCancellationReport(
        best_ratio,
        lam,
        pair,
        Word(graph, ((x // 2, 1 - 2 * (x % 2)) for x in w)).text(),
        lengths,
        best_ratio < Fraction(1, 6),
    )
