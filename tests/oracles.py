"""Independent brute-force oracles used to pin expected values.

Everything here enumerates exhaustively or loops one example at a time and
stays deliberately naive; none of it shares code with the implementations
under test.
"""

import itertools
import math
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
