"""Test oracles that share no code with the library's engines.

The piling invariant (_pile_key) and the BFS distance over literal letter
moves decide equality and distance in a RAAG by a procedure deliberately
different from the syllable engine in cubemorse.raag, so tests can check
the engine against them.
"""

from __future__ import annotations

from cubemorse.raag import (
    DefiningGraph,
    GroupElement,
    MixedGraphs,
    Word,
    WordError,
    parse_word,
)


class NotInBall(ValueError):
    """BFS oracle ran out of radius before reaching the target."""


def _pile_key(graph: DefiningGraph, letters) -> tuple:
    """The piling of a word: per generator column, the sequence of beads a
    left-to-right reading drops there (+1/-1 on the letter's own column, 0 on
    every non-commuting column). A letter cancels the previous letter of its
    own generator exactly when that letter's bead is still on top of the
    column; its sync beads are then necessarily topped only by other sync
    beads, so popping one 0 from each blocked column keeps the pile faithful.

    Two words represent the same group element iff their piles are equal,
    which makes the pile a canonical state key that shares no code with the
    syllable engine. The number of nonzero beads is the geodesic length.
    """
    n = len(graph.generators)
    cols: list[list[int]] = [[] for _ in range(n)]
    blockers = [
        [h for h in range(n) if h != g and not graph.adjacent(g, h)]
        for g in range(n)
    ]
    for gen, sign in letters:
        if cols[gen] and cols[gen][-1] == -sign:
            cols[gen].pop()
            for h in blockers[gen]:
                popped = cols[h].pop()
                assert popped == 0, "piling invariant broken"
        else:
            cols[gen].append(sign)
            for h in blockers[gen]:
                cols[h].append(0)
    return tuple(tuple(col) for col in cols)


def _pile_append(graph: DefiningGraph, pile: tuple, gen: int, sign: int) -> tuple:
    """One-letter extension of a pile; same rules as _pile_key."""
    cols = list(pile)
    if cols[gen] and cols[gen][-1] == -sign:
        cols[gen] = cols[gen][:-1]
        for h in range(len(cols)):
            if h != gen and not graph.adjacent(gen, h):
                assert cols[h][-1] == 0, "piling invariant broken"
                cols[h] = cols[h][:-1]
    else:
        cols[gen] = cols[gen] + (sign,)
        for h in range(len(cols)):
            if h != gen and not graph.adjacent(gen, h):
                cols[h] = cols[h] + (0,)
    return tuple(cols)


def _raw_letters(value, graph: DefiningGraph) -> list:
    """Letters of a word-like value without invoking the syllable engine.

    Accepts 1 (the identity), a string, a Word, or a GroupElement.
    """
    if isinstance(value, int):
        if value != 1:
            raise WordError("only the integer 1 (identity) names a group element")
        return []
    if isinstance(value, str):
        value = parse_word(value, graph)
    if isinstance(value, Word):
        if value.graph is not graph and value.graph != graph:
            raise MixedGraphs("word belongs to a different defining graph")
        return list(value.letters)
    if isinstance(value, GroupElement):
        if value.graph is not graph and value.graph != graph:
            raise MixedGraphs("element belongs to a different defining graph")
        return list(value.letters())
    raise WordError(f"cannot interpret {value!r} as a word")


def bfs_oracle_distance(x, y, radius: int, graph: DefiningGraph | None = None) -> int:
    """Exact distance by breadth-first search over literal letter moves,
    deduplicated with the piling invariant (never the syllable engine).

    Raises NotInBall when the distance exceeds radius.
    """
    if graph is None:
        graph = getattr(x, "graph", None) or getattr(y, "graph", None)
    if graph is None:
        raise WordError("bfs_oracle_distance needs a defining graph")
    start = _pile_key(graph, _raw_letters(x, graph))
    target = _pile_key(graph, _raw_letters(y, graph))
    if start == target:
        return 0
    n = len(graph.generators)
    moves = [(g, s) for g in range(n) for s in (1, -1)]
    # Bidirectional level-synchronized BFS. Expanding one full level of the
    # smaller frontier and scanning every generated child against the other
    # side's depth map finds the minimum meet at the first level any meet
    # exists, so the sum below is the exact distance.
    seen_a = {start: 0}
    seen_b = {target: 0}
    front_a, front_b = [start], [target]
    depth_a = depth_b = 0
    while depth_a + depth_b < radius:
        if len(front_a) <= len(front_b):
            front, seen, other, depth_a = front_a, seen_a, seen_b, depth_a + 1
            depth = depth_a
        else:
            front, seen, other, depth_b = front_b, seen_b, seen_a, depth_b + 1
            depth = depth_b
        nxt = []
        best = None
        for pile in front:
            for g, s in moves:
                child = _pile_append(graph, pile, g, s)
                met = other.get(child)
                if met is not None and (best is None or depth + met < best):
                    best = depth + met
                if child not in seen:
                    seen[child] = depth
                    nxt.append(child)
        if best is not None:
            return best
        if not nxt:
            raise NotInBall(f"distance exceeds radius {radius}")
        if front is front_a:
            front_a = nxt
        else:
            front_b = nxt
    raise NotInBall(f"distance exceeds radius {radius}")
