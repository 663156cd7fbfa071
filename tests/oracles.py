"""Independent brute-force oracles used to pin expected values.

Everything here enumerates exhaustively, loops one example or one key at a
time or, for `per_root_decoder`, re-solves once per candidate ROOT arc, and
stays deliberately naive; none of it shares code with the implementations
under test. The one exception is the per-batch SGD loops, the reference for
the epoch trainers: they take each batch's rows with `Rows.take` and call
the objectives, which the example loops here and finite differences check.
`sub_matrix_contract` is the decoder's earlier numpy form, kept to pin every
tie of the list-based contraction that replaced it, and `square_log_partition`
the log-partition's earlier form on the square matrix, kept to pin its bits.
"""

import itertools
import math
import zlib
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def all_single_root_trees(n):
    """All head tuples over tokens 1..n with one ROOT arc and no cycles."""
    trees = []
    candidates = [[h for h in range(n + 1) if h != d] for d in range(1, n + 1)]
    for heads in itertools.product(*candidates):
        if sum(1 for h in heads if h == 0) != 1:
            continue
        ok = True
        for start in range(1, n + 1):
            seen = set()
            v = start
            while v != 0:
                if v in seen:
                    ok = False
                    break
                seen.add(v)
                v = heads[v - 1]
            if not ok:
                break
        if ok:
            trees.append(heads)
    return trees


def tree_total(score_matrix, heads):
    """Sum of score_matrix[h][d-1] over dependents; plain python floats."""
    return sum(score_matrix[h][d - 1] for d, h in enumerate(heads, start=1))


def best_tree(score_matrix, n):
    """(max total, argmax heads) by exhaustive enumeration."""
    best = None
    for heads in all_single_root_trees(n):
        t = tree_total(score_matrix, heads)
        if best is None or t > best[0] or (t == best[0] and heads < best[1]):
            best = (t, heads)
    return best


def logsumexp_over_trees(score_matrix, n):
    """log sum over all single-root arborescences of exp(total score)."""
    totals = [tree_total(score_matrix, heads) for heads in all_single_root_trees(n)]
    m = max(totals)
    return m + math.log(sum(math.exp(t - m) for t in totals))


def _log_softmax(z):
    m = z.max()
    return z - (m + np.log(np.exp(z - m).sum()))


def _logit(weights, idx, vals):
    """Scores of one sparse vector, added feature by feature."""
    z = np.zeros(weights.shape[0])
    for i, v in zip(idx, vals):
        z += weights[:, i] * v
    return z


def example_loop_class_objective(weights, examples):
    """Softmax log-likelihood and gradient, one ((idx, vals), y) example at a time."""
    value = 0.0
    grad = np.zeros_like(weights)
    for (idx, vals), y in examples:
        logp = _log_softmax(_logit(weights, idx, vals))
        value += logp[y]
        coef = -np.exp(logp)
        coef[y] += 1.0
        grad[:, idx] += np.outer(coef, vals)
    return value, grad


def example_loop_parser_objective(arc_w, label_w, sentences):
    """Head-softmax plus label log-likelihood and gradients, one dependent at a time."""
    value = 0.0
    grad_arc = np.zeros_like(arc_w)
    for arc_groups, _ in sentences:
        for cand_vecs, gold in arc_groups:
            z = np.array([_logit(arc_w[None], idx, vals)[0] for idx, vals in cand_vecs])
            logp = _log_softmax(z)
            value += logp[gold]
            p = np.exp(logp)
            for k, (idx, vals) in enumerate(cand_vecs):
                grad_arc[idx] += ((1.0 if k == gold else 0.0) - p[k]) * vals
    label_examples = [example for _, examples in sentences for example in examples]
    label_value, grad_label = example_loop_class_objective(label_w, label_examples)
    return value + label_value, grad_arc, grad_label


def _batches(orders, batch_size):
    for order in orders:
        for start in range(0, len(order), batch_size):
            yield order[start : start + batch_size]


def batch_loop_softmax(weights, rows, gold, orders, batch_size, lr, l2):
    """SGD in place over each epoch's `order`, one batch at a time:
    `softmax_objective` on `rows.take(batch)`, then
    `weights += lr / len(batch) * grad`."""
    from lingalloc.models import softmax_objective

    for batch in _batches(orders, batch_size):
        _, grad = softmax_objective(weights, rows.take(batch), gold[batch], l2)
        weights += lr / len(batch) * grad
    return weights


def batch_loop_parser(weights, arcs, trees, label_index, orders, batch_size, lr, l2):
    """SGD in place over each epoch's order of `trees`, one batch of sentences
    at a time: `arc_objective` on the batch's arcs, taken from `arcs` (n*n
    rows per tree), then each weight row plus lr / len(batch) times its
    gradient. Row 0 of `weights` scores arcs, rows 1.. labels."""
    from lingalloc.models import arc_objective

    arc_rows, dep_rows, sizes, gold, labels = [], [], [], [], []
    n_arcs = 0
    for tree in trees:
        n = len(tree.tokens)
        arc_rows.append(n_arcs)
        n_arcs += n * n
        dep_rows.append(len(gold))
        for d, (h, label) in enumerate(zip(tree.heads, tree.labels), start=1):
            gold.append(h if h < d else h - 1)
            labels.append(label_index[label])
            sizes.append(n)
    for batch in _batches(orders, batch_size):
        arcs_of, deps_of = [], []
        for t in batch.tolist():
            n = len(trees[t].tokens)
            arcs_of += range(arc_rows[t], arc_rows[t] + n * n)
            deps_of += range(dep_rows[t], dep_rows[t] + n)
        _, g_arc, g_label = arc_objective(
            weights[0], weights[1:], arcs.take(arcs_of), np.array(sizes)[deps_of],
            np.array(gold)[deps_of], np.array(labels)[deps_of], l2,
        )
        weights[0] += lr / len(batch) * g_arc
        weights[1:] += lr / len(batch) * g_label
    return weights


_FORBIDDEN = -np.finfo(np.float64).max / 4.0


def _greedy_heads(sq):
    """Best head per dependent, ties broken toward the smallest head index."""
    m = sq.shape[0]
    heads = np.zeros(m, dtype=np.int64)
    for d in range(1, m):
        col = sq[:, d].copy()
        col[d] = -np.inf
        heads[d] = int(np.argmax(col))
    return heads


def _head_cycle(heads):
    m = len(heads)
    color = [0] * m  # 0 = unvisited, 1 = on current path, 2 = finished
    color[0] = 2
    for start in range(1, m):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = int(heads[v])
        if color[v] == 1:
            return sorted(path[path.index(v):])
        for u in path:
            color[u] = 2
    return None


def _unconstrained_mst(sq):
    """Maximum arborescence of a square score matrix, any number of ROOT arcs.

    Greedy heads, then one contraction per cycle, built entry by entry.
    """
    heads = _greedy_heads(sq)
    cycle = _head_cycle(heads)
    if cycle is None:
        return heads
    in_cycle = set(cycle)
    cycle_score = {v: sq[heads[v], v] for v in cycle}
    rest = [0] + [v for v in range(1, sq.shape[0]) if v not in in_cycle]
    k = len(rest)  # contracted node gets index k
    sub = np.full((k + 1, k + 1), _FORBIDDEN)
    for xi, x in enumerate(rest):
        for yi, y in enumerate(rest):
            if xi != yi and yi != 0:
                sub[xi, yi] = sq[x, y]
    exit_choice = {}
    for yi, y in enumerate(rest):
        if yi == 0:
            continue
        vals = [sq[v, y] for v in cycle]
        best = int(np.argmax(vals))
        sub[k, yi] = vals[best]
        exit_choice[yi] = cycle[best]
    enter_choice = {}
    for xi, x in enumerate(rest):
        vals = [sq[x, v] - cycle_score[v] for v in cycle]
        best = int(np.argmax(vals))
        sub[xi, k] = vals[best]
        enter_choice[xi] = cycle[best]
    sub_heads = _unconstrained_mst(sub)
    out = heads.copy()  # cycle-internal arcs kept unless broken below
    for yi in range(1, k):
        h = int(sub_heads[yi])
        out[rest[yi]] = exit_choice[yi] if h == k else rest[h]
    entry = int(sub_heads[k])
    out[enter_choice[entry]] = rest[entry]
    return out


def sub_matrix_contract(sq):
    """Heads by the earlier numpy form of `graph._contract`: each level
    rebuilds the contracted graph as a numpy sub-matrix, the cycle node last.

    Same rules and ties as the list-based contraction (best non-ROOT head by
    `np.argmax`, first cycle from the lowest start, first maximum for the
    arcs out of and into the cycle), so the two must agree head for head.
    """
    w = sq
    levels = []
    while w.shape[0] > 2:
        best = np.argmax(w[1:], axis=0) + 1
        best[0] = 0
        cycle = np.array(_head_cycle(best))
        outside = np.ones(w.shape[0], dtype=bool)
        outside[cycle] = False
        rest = np.flatnonzero(outside)  # ROOT first
        k = len(rest)
        leave = w[cycle[:, None], rest]
        with np.errstate(over="ignore"):  # a must-take ROOT arc may reach +inf
            enter = w[rest[:, None], cycle] - w[best[cycle], cycle]
        sub = np.empty((k + 1, k + 1))
        sub[:k, :k] = w[rest[:, None], rest]
        sub[k, :k] = leave.max(axis=0)
        sub[:k, k] = enter.max(axis=1)
        sub[k, k] = -np.inf
        levels.append((rest, cycle, best[cycle], cycle[leave.argmax(axis=0)],
                       cycle[enter.argmax(axis=1)]))
        w = sub
    heads = np.zeros(2, dtype=np.int64)  # the last node hangs off ROOT
    for rest, cycle, cycle_heads, leave_from, enter_at in reversed(levels):
        k = len(rest)  # the cycle is node k of the contracted graph
        inner = heads
        heads = np.zeros(k + len(cycle), dtype=np.int64)
        heads[cycle] = cycle_heads
        h = inner[1:k]
        heads[rest[1:]] = np.where(h == k, leave_from[1:], rest[np.minimum(h, k - 1)])
        heads[enter_at[inner[k]]] = rest[inner[k]]
    return [int(h) for h in heads]


def _single_root_tree_exists(permitted):
    """Whether some token with a permitted ROOT arc reaches every token over
    permitted non-ROOT arcs; `permitted` is (n+1) x n, self-arcs ignored."""
    n = permitted.shape[1]
    for r in range(1, n + 1):
        if not permitted[0, r - 1]:
            continue
        seen, todo = {r}, [r]
        while todo:
            h = todo.pop()
            for d in range(1, n + 1):
                if d != h and d not in seen and permitted[h, d - 1]:
                    seen.add(d)
                    todo.append(d)
        if len(seen) == n:
            return True
    return False


def square_log_partition(matrix):
    """`graph.log_partition(ArcScores(matrix))` as it was computed on the
    (n+1) x (n+1) square matrix with -inf in column 0 and on the diagonal,
    raising the same errors: DataError for a NaN or +inf score,
    InfeasibleTreeError when no single-root tree of permitted arcs exists and
    NumericalError when the trees' weights underflow."""
    from lingalloc.errors import DataError, InfeasibleTreeError, NumericalError

    m = np.asarray(matrix, dtype=np.float64).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1] + 1 or m.shape[1] < 1:
        raise DataError(f"arc score matrix must be (n+1) x n, got {m.shape}")
    absent = ~np.isfinite(m)
    if absent.any():
        if not (m[absent] < 0).all():
            raise DataError("arc scores must be finite or -inf")
        m[absent] = _FORBIDDEN
    n = m.shape[1]
    sq = np.full((n + 1, n + 1), -np.inf)
    sq[:, 1:] = m
    sq[np.arange(1, n + 1), np.arange(1, n + 1)] = -np.inf
    col_max = sq[:, 1:].max(axis=0)
    if (col_max <= _FORBIDDEN / 2).any():
        raise InfeasibleTreeError("a dependent has no permitted head arc")
    shifted = sq[:, 1:] - col_max[None, :]
    with np.errstate(under="ignore"):
        weights = np.exp(shifted)
    inner = weights[1:, :]
    lap_hat = -inner.copy()
    lap_hat[np.diag_indices(n)] = inner.sum(axis=0)
    lap_hat[0, :] = weights[0]
    sign, logdet = np.linalg.slogdet(lap_hat)
    if sign <= 0 or not np.isfinite(logdet):
        if not _single_root_tree_exists(m > _FORBIDDEN / 2):
            raise InfeasibleTreeError("no single-root tree of permitted arcs")
        raise NumericalError("laplacian determinant not positive")
    return float(col_max.sum() + logdet)


def token_loop_tree_log_prob(probas, heads):
    """Sum of log P(head | dependent), one token at a time; -inf at a zero."""
    total = 0.0
    for d, h in enumerate(heads, start=1):
        p = probas[h, d - 1]
        if p <= 0.0:
            return float("-inf")
        total += float(np.log(p))
    return total


def per_root_decoder(score_matrix):
    """Best single-root heads tuple, re-solving once per candidate ROOT arc.

    Solves without the root constraint first; if that optimum has several
    ROOT arcs, solves again with all ROOT arcs but one forbidden, for each
    permitted ROOT arc, and keeps the best total (ties: smallest heads).
    Slow on long sentences, but independent of the contraction under test.
    """
    m = np.array(score_matrix, dtype=np.float64)
    m[np.isneginf(m)] = _FORBIDDEN
    n = m.shape[1]
    sq = np.full((n + 1, n + 1), _FORBIDDEN)
    sq[:, 1:] = m
    sq[np.arange(1, n + 1), np.arange(1, n + 1)] = _FORBIDDEN
    heads = _unconstrained_mst(sq)
    if sum(1 for d in range(1, n + 1) if heads[d] == 0) == 1:
        return tuple(int(h) for h in heads[1:])
    best = None
    for d in range(1, n + 1):
        if sq[0, d] <= _FORBIDDEN / 2:
            continue
        forced = sq.copy()
        forced[0, 1:] = _FORBIDDEN
        forced[0, d] = sq[0, d]
        cand = tuple(int(h) for h in _unconstrained_mst(forced)[1:])
        key = (tree_total(m, cand), cand)
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key
    return best[1]


def char_ngrams(text, lo, hi):
    """Character n-grams of text, lo <= n <= hi, shortest first, left to right."""
    grams = []
    for k in range(lo, hi + 1):
        grams.extend(text[i : i + k] for i in range(len(text) - k + 1))
    return grams


def key_loop_hash(keys, dim):
    """(sorted indices, counts) of string keys, one `zlib.crc32` and one dict update per key."""
    counts = {}
    for key in keys:
        idx = zlib.crc32(key.encode("utf-8")) & (dim - 1)
        counts[idx] = counts.get(idx, 0.0) + 1.0
    indices = np.array(sorted(counts), dtype=np.int64)
    return indices, np.array([counts[i] for i in indices], dtype=np.float64)


def key_loop_text(text, space):
    return key_loop_hash(char_ngrams(text, space.ngram_min, space.ngram_max), space.hash_dimension)


def key_loop_tokens(tokens, space):
    """One vector per token: "t:" n-grams of the token, "p:"/"n:" n-grams of its neighbours."""
    vecs = []
    for i, token in enumerate(tokens):
        prev_tok = tokens[i - 1] if i > 0 else "<s>"
        next_tok = tokens[i + 1] if i + 1 < len(tokens) else "</s>"
        keys = []
        for prefix, word in (("t:", token), ("p:", prev_tok), ("n:", next_tok)):
            keys += [prefix + g for g in char_ngrams(word, space.ngram_min, space.ngram_max)]
        vecs.append(key_loop_hash(keys, space.hash_dimension))
    return vecs


def key_loop_arcs(tokens, upos, space, arc_keys):
    """One vector per candidate arc, dependent-major, heads ascending; `arc_keys(tokens,
    upos, head, dep)` names the arc's feature strings."""
    n = len(tokens)
    return [
        key_loop_hash(arc_keys(tokens, upos, h, d), space.hash_dimension)
        for d in range(1, n + 1)
        for h in range(n + 1)
        if h != d
    ]


def key_loop_block(vecs):
    """Per-row vectors packed as a feature-cache block: (row lengths as int64,
    indices as int32, counts as float32)."""
    if not vecs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.float32)
    return (
        np.array([len(idx) for idx, _ in vecs], dtype=np.int64),
        np.concatenate([idx for idx, _ in vecs]).astype(np.int32),
        np.concatenate([vals for _, vals in vecs]).astype(np.float32),
    )


def first_fit_selection(pool, budget):
    """(ids, spend) of walking (id, score, cost) triples in ascending (score, id)
    order, taking each one whose cost still fits what is left of the budget."""
    taken, remaining = [], budget
    for score, iid, cost in sorted((score, iid, cost) for iid, score, cost in pool):
        if cost <= remaining:
            taken.append(iid)
            remaining -= cost
    return taken, budget - remaining


def instance_loop_counts(task, predictions, payloads):
    """The task's counts summed over instances, each prediction compared with
    its gold annotation on its own: a text's label equal to its gold one; a
    sentence's gold BIO spans found exactly; a token's head, and head and label."""
    if task == "classification":
        return {"correct": sum(y == p.label for y, p in zip(predictions, payloads)),
                "total": len(payloads)}
    if task == "tagging":
        counts = {"tp": 0, "pred_spans": 0, "gold_spans": 0}
        for pred, p in zip(predictions, payloads):
            pred_spans, gold_spans = _bio_spans(pred), _bio_spans(p.tags)
            counts["tp"] += len(pred_spans & gold_spans)
            counts["pred_spans"] += len(pred_spans)
            counts["gold_spans"] += len(gold_spans)
        return counts
    counts = {"head_correct": 0, "label_correct": 0, "total": 0}
    for pred, p in zip(predictions, payloads):
        for ph, gh, pl, gl in zip(pred.heads, p.heads, pred.labels, p.labels):
            counts["total"] += 1
            counts["head_correct"] += ph == gh
            counts["label_correct"] += ph == gh and pl == gl
    return counts


def _bio_spans(tags):
    """The (type, start, end) of every entity: a B- tag and the I- tags of its
    type after it; an I- tag after anything else starts one, as a B- would."""
    spans, current = set(), None
    for i, tag in enumerate(list(tags) + ["O"]):
        inside = tag.startswith("I-") and current is not None and current[0] == tag[2:]
        if inside:
            continue
        if current is not None:
            spans.add((current[0], current[1], i))
            current = None
        if tag.startswith(("B-", "I-")):
            current = (tag[2:], i)
    return spans
