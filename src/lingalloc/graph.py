"""Maximum spanning arborescence decoding and arborescence partition functions.

Sentences are rooted graphs: node 0 is an artificial ROOT, nodes 1..n are the
tokens. Arc scores live in log space; a -inf score (no arc) and the FORBIDDEN
sentinel it is stored as behave alike, and a token's arc to itself is masked
wherever trees are decoded or counted. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter, sub

import numpy as np

from .errors import DataError, InfeasibleTreeError, NumericalError

# Finite stand-in for -inf: hugely negative but safe to add/subtract a few
# times without producing NaN. Anything at or below FORBIDDEN_THRESHOLD is
# treated as a forbidden arc.
FORBIDDEN = -np.finfo(np.float64).max / 4.0
FORBIDDEN_THRESHOLD = FORBIDDEN / 2.0


@dataclass(frozen=True)
class Arborescence:
    """Head assignment for tokens 1..n; heads[i] is the head of token i+1.

    Exactly one token has head 0 (single root) and the assignment is acyclic,
    so every token is reachable from ROOT.
    """

    heads: tuple[int, ...]

    def __post_init__(self):
        n = len(self.heads)
        if n == 0:
            raise DataError("arborescence over zero tokens")
        roots = [d for d, h in enumerate(self.heads, start=1) if h == 0]
        if len(roots) != 1:
            raise DataError(f"expected exactly one root attachment, found {len(roots)}")
        for d, h in enumerate(self.heads, start=1):
            if h == d:
                raise DataError(f"token {d} is its own head")
            if not 0 <= h <= n:
                raise DataError(f"head {h} out of range for dependent {d} (n={n})")
        cycle = _find_cycle([0, *self.heads])
        if cycle is not None:
            raise DataError(f"cycle through token {cycle[0]}")

    @property
    def n(self) -> int:
        return len(self.heads)


class ArcScores:
    """Dense (n+1) x n matrix of arc log-scores.

    Row h in {0..n} is the head (0 = ROOT), column j holds dependent d = j+1.
    -inf entries (no arc) become the finite FORBIDDEN sentinel, which every
    function here treats as -inf, so arithmetic stays NaN-free. Self-arcs
    (row d, column d-1) are kept as given; decoding and counting mask them.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] + 1 or m.shape[1] < 1:
            raise DataError(f"arc score matrix must be (n+1) x n, got {m.shape}")
        if not (m < np.inf).all():  # NaN or +inf
            raise DataError("arc scores must be finite or -inf")
        m[m == -np.inf] = FORBIDDEN
        self.n = m.shape[1]
        self.scores = m

    def square(self) -> np.ndarray:
        """(n+1) x (n+1) copy whose column 0 and diagonal are -inf (no arc)."""
        n = self.n
        sq = np.full((n + 1, n + 1), -np.inf)
        sq[:, 1:] = self.scores
        sq.flat[n + 2 :: n + 2] = -np.inf
        return sq


def _find_cycle(heads: list[int]) -> list[int] | None:
    """Ascending nodes of one cycle of the head pointers, or None.

    heads[v] is the head of node v for v >= 1; node 0 is ROOT and ends every
    walk. Each node is walked over once, so this is O(len(heads)).
    """
    state = [0] * len(heads)  # 0 = unvisited, 1 = on the current walk, 2 = done
    state[0] = 2
    for start in range(1, len(heads)):
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = heads[v]
        if state[v] == 1:
            return sorted(path[path.index(v):])
        for u in path:
            state[u] = 2
    return None


def _best_heads(sq: np.ndarray) -> tuple[list, list, list, list]:
    """The rows of a square score matrix as lists, and per column its best
    non-ROOT score, the first head with that score and how many heads have it."""
    inner = sq[1:]
    top = inner.max(axis=0)
    ties = (inner == top).sum(axis=0).tolist()
    return sq.tolist(), top.tolist(), (inner.argmax(axis=0) + 1).tolist(), ties


def _contract(w: list, score: list, best: list, ties: list) -> list[int]:
    """Single-root maximum arborescence by contracting the tokens to one node.

    Each node takes its best non-ROOT head; those choices close a cycle,
    which becomes one node whose incoming arcs are scored relative to the
    cycle arc they would replace. Once one node is left it takes the ROOT
    arc, so the tree has exactly one. Some optimal single-root tree keeps
    all but one arc of each cycle, the one ROOT entry into the cycle
    included (Zmigrod, Vieira & Cotterell, EMNLP 2020), so expanding the
    contractions in reverse gives an optimum. A ROOT arc into a node with
    no permitted non-ROOT head becomes hugely positive, as that node must
    take it.

    `w` holds the scores of the square matrix as Python lists, one per head
    row, and `score`, `best` and `ties` each token's best non-ROOT score,
    that head and how many heads tie it (`_best_heads`); all four change in
    place, but rows 0..n keep their first n+1 entries. A cycle becomes a new
    node numbered after all others: it gets a row of its arcs out, and each
    live row gets its arc into it appended. So the live nodes in ascending
    order are the tokens left, then the cycles in the order they were made,
    and a tie goes to the first of them. Each live node keeps its best head,
    that head's score and how many live heads tie it from one level to the
    next (Tarjan, Networks 1977): a node's best score stays the same while
    it lives, and a column is searched again only when its best head joins
    the cycle while another head ties it. A level is then one pass over the
    cycle's rows and one over its columns. Returns the full head list
    (index 0 unused).
    """
    n = len(w) - 1
    live = list(range(1, n + 1))
    levels = []
    while len(live) > 1:
        # each live node's best head is another live node, so the walk from
        # the first one ends on the first cycle `_find_cycle` would report
        walk = {}
        v = live[0]
        while v not in walk:
            walk[v] = len(walk)
            v = best[v]
        cycle = sorted(list(walk)[walk[v]:])
        c = len(w)
        if len(cycle) == len(live):  # the last node: only the ROOT arc enters it
            root = w[0]
            root.append(max([root[m] - score[m] for m in cycle]))
            levels.append((c, cycle, [], []))
            break
        members = set(cycle)
        rest = [v for v in live if v not in members]
        take = itemgetter(0, *rest)  # ROOT first, so one token left still gives a tuple
        # arcs out: into each outside node from its first best cycle member
        cols = list(zip(*[take(w[m]) for m in cycle]))[1:]
        leave = list(map(max, cols))
        leave_from = list(map(cycle.__getitem__, map(tuple.index, cols, leave)))
        out = [-math.inf] * (c + 1)
        for j, s in zip(rest, leave):
            out[j] = s
        for j in compress(rest, map(eq, leave, map(score.__getitem__, rest))):
            if ties[j] == 1:  # its one best head is in the cycle
                best[j] = c
                continue
            s = score[j]
            ties[j] -= sum(w[m][j] == s for m in cycle) - 1  # the new node ties in their place
            if best[j] in members:
                best[j] = next(i for i in rest if w[i][j] == s) if ties[j] > 1 else c
        # arcs in: each head's best gain over the cycle arc it would replace
        rows = take(w)
        enter = list(map(max, *[map(sub, map(itemgetter(m), rows), repeat(score[m]))
                                for m in cycle]))
        for row, s in zip(rows, enter):
            row.append(s)
        w.append(out)
        levels.append((c, cycle, rest, leave_from))
        into = enter[1:]
        s = max(into)
        best.append(rest[into.index(s)])
        ties.append(into.count(s))
        score.append(s)
        live = [*rest, c]
    heads = [0] * (len(w) + 1)  # the last node hangs off ROOT
    for c, cycle, rest, leave_from in reversed(levels):
        for j, m in zip(rest, leave_from):
            if heads[j] == c:
                heads[j] = m
        h = heads[c]  # enters at the first member where its gain is largest
        row = w[h]
        for m in cycle:
            heads[m] = best[m]
        heads[next(m for m in cycle if row[m] - score[m] == row[c])] = h
    return heads[: n + 1]


def chu_liu_edmonds(scores: ArcScores) -> Arborescence:
    """Maximum-score arborescence with exactly one ROOT attachment.

    If every token's best head, ROOT included, already forms a tree with one
    ROOT arc, that tree is returned, also when another tree ties with it.
    Otherwise the tokens are contracted down to one node that takes the ROOT
    arc (`_contract`). Ties go to the smallest head at each choice, a
    contracted cycle being numbered after the nodes left outside it. Raises
    InfeasibleTreeError when no single-root tree of permitted arcs exists.
    """
    w, score, best, ties = _best_heads(scores.square())
    # each token's best head, ROOT included and winning a tie; entry 0 is unused
    heads = [0 if r >= s else b for r, s, b in zip(w[0], score, best)]
    if heads.count(0) != 2 or _find_cycle(heads) is not None:  # not one ROOT arc, or a cycle
        heads = _contract(w, score, best, ties)
    for d, h in enumerate(heads[1:], start=1):  # `_contract` leaves rows 0..n as they were
        if w[h][d] <= FORBIDDEN_THRESHOLD:
            raise InfeasibleTreeError(f"no single-root tree of permitted arcs (dependent {d})")
    return Arborescence(tuple(heads[1:]))


def tree_log_prob(arc_probas: np.ndarray, tree: Arborescence) -> float:
    """Sum over dependents of log P(head | dependent).

    `arc_probas` is (n+1) x n with columns summing to one. A zero-probability
    arc yields -inf, which is a valid (maximally urgent) score.
    """
    probas = np.asarray(arc_probas, dtype=np.float64)
    n = tree.n
    if probas.shape != (n + 1, n):
        raise DataError(f"probability matrix {probas.shape} does not match n={n}")
    arcs = probas[tree.heads, np.arange(n)]
    if (arcs <= 0.0).any():
        return float("-inf")
    total = 0.0
    for logp in np.log(arcs).tolist():  # left to right, as the per-token sum
        total += logp
    return total


def log_partition(scores: ArcScores) -> float:
    """Log of the summed exponentiated scores of all single-root arborescences.

    Uses the directed matrix-tree construction restricted to single-root
    trees: build the in-degree Laplacian over tokens from non-ROOT arc
    weights, replace its first row with the ROOT arc weights, and take the
    log-determinant. Self-arcs are masked to -inf. Each dependent's column
    is shifted by its maximum log-score before exponentiation, all in one
    copy of the scores; the shifts are added back at the end. A FORBIDDEN
    arc and a -inf one both get weight exactly 0.0. Raises
    InfeasibleTreeError when no single-root tree of permitted arcs exists,
    and NumericalError when one exists but the determinant is not positive
    (the permitted trees' weights underflow).
    """
    n = scores.n
    weights = scores.scores.copy()
    weights.flat[n :: n + 1] = -np.inf  # the self-arcs, (d, d-1) for d = 1..n
    col_max = weights.max(axis=0)
    if (col_max <= FORBIDDEN_THRESHOLD).any():
        bad = int(np.argmax(col_max <= FORBIDDEN_THRESHOLD)) + 1
        raise InfeasibleTreeError(f"dependent {bad} has no permitted head arc")
    weights -= col_max
    with np.errstate(under="ignore"):
        np.exp(weights, out=weights)  # forbidden arcs and self-arcs become exactly 0
    inner = weights[1:]  # inner[h-1, d-1] = weight of arc h -> d; diagonal is 0
    lap_hat = -inner
    lap_hat.flat[:: n + 1] = inner.sum(axis=0)
    lap_hat[0] = weights[0]
    sign, logdet = np.linalg.slogdet(lap_hat)
    if sign <= 0 or not math.isfinite(logdet):
        chu_liu_edmonds(ArcScores(np.where(scores.scores > FORBIDDEN_THRESHOLD, 0.0, -np.inf)))
        cond = float(np.linalg.cond(lap_hat)) if n > 0 else float("nan")
        raise NumericalError(
            f"laplacian determinant not positive (sign={sign}, cond={cond:.3e})"
        )
    return float(col_max.sum() + logdet)
