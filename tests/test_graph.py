import math
import time

import numpy as np
import pytest

from lingalloc.acquisition import StrategyKind, nlpdt_score
from lingalloc.errors import DataError, InfeasibleTreeError, LingallocError, NumericalError
from lingalloc.graph import (
    FORBIDDEN,
    Arborescence,
    ArcScores,
    _best_heads,
    _contract,
    chu_liu_edmonds,
    log_partition,
    tree_log_prob,
)

from oracles import (
    all_single_root_trees,
    best_tree,
    logsumexp_over_trees,
    per_root_decoder,
    square_log_partition,
    sub_matrix_contract,
    token_loop_tree_log_prob,
    tree_total,
)


def random_scores(rng, n, low=-5.0, high=5.0):
    return ArcScores(rng.uniform(low, high, size=(n + 1, n)))


def root_preferring(rng, n, k, boost=8.0):
    """Log-probabilities of random heads where k tokens prefer ROOT."""
    logits = rng.normal(size=(n + 1, n))
    logits[np.arange(1, n + 1), np.arange(n)] = -np.inf
    logits[0, rng.choice(n, size=k, replace=False)] += boost
    return logits - np.log(np.exp(logits).sum(axis=0))


def random_tree(rng, n):
    """Heads of a random tree: the tokens in a random order, each after the
    first hanging off one placed before it."""
    order = rng.permutation(np.arange(1, n + 1))
    heads = [0] * n
    for i in range(1, n):
        heads[order[i] - 1] = int(order[rng.integers(i)])
    return tuple(heads)


def greedy_roots(m):
    """Tokens whose best head, ignoring self-loops, is ROOT."""
    m = np.array(m, dtype=np.float64)
    n = m.shape[1]
    m[np.arange(1, n + 1), np.arange(n)] = -np.inf
    return int((m.argmax(axis=0) == 0).sum())


def partition_cases(rng):
    """Log-score matrices for n = 1..25: random, tie-heavy, with forbidden
    arcs, with arcs far enough below their column's best to underflow, and
    with tokens preferring ROOT; then a few holding NaN or +inf."""
    for n in range(1, 26):
        for _ in range(3):
            yield rng.uniform(-5.0, 5.0, size=(n + 1, n))
            yield rng.integers(-2, 3, size=(n + 1, n)).astype(np.float64)
            for m in (rng.integers(-2, 3, size=(n + 1, n)).astype(np.float64),
                      rng.uniform(-700.0, 0.0, size=(n + 1, n))):
                m[rng.random(size=m.shape) < rng.uniform(0.0, 0.8)] = -np.inf
                yield m
            yield root_preferring(rng, n, int(rng.integers(1, n + 1)))
    for bad in (np.nan, np.inf):
        for n in (1, 4, 25):
            m = rng.uniform(-5.0, 5.0, size=(n + 1, n))
            m[int(rng.integers(n + 1)), int(rng.integers(n))] = bad
            yield m


def outcome(f, *args):
    """The hex of what f returns, or the name of the package error it raises."""
    try:
        return float.hex(f(*args))
    except LingallocError as exc:
        return type(exc).__name__


class TestArborescence:
    def test_single_token(self):
        t = Arborescence((0,))
        assert t.n == 1

    def test_rejects_multi_root(self):
        with pytest.raises(DataError):
            Arborescence((0, 0))

    def test_rejects_cycle(self):
        with pytest.raises(DataError):
            Arborescence((0, 3, 2))

    def test_rejects_self_head(self):
        with pytest.raises(DataError, match=r"^token 2 is its own head$"):
            Arborescence((0, 2))
        # the first token in order that breaks a rule is the one named
        with pytest.raises(DataError, match=r"^head 7 out of range for dependent 2 \(n=3\)$"):
            Arborescence((0, 7, 3))
        with pytest.raises(DataError, match=r"^token 2 is its own head$"):
            Arborescence((0, 2, 7))

    def test_long_chain_and_long_cycle(self):
        n = 175
        assert Arborescence(tuple(range(n))).n == n
        # token 1 is the root; tokens 2..n form one cycle of length n-1
        with pytest.raises(DataError, match="cycle"):
            Arborescence((0, n) + tuple(range(2, n)))


class TestArcScores:
    def test_shape_check(self):
        with pytest.raises(DataError):
            ArcScores(np.zeros((3, 3)))

    def test_neg_inf_becomes_sentinel(self):
        s = ArcScores([[0.0], [-np.inf]])
        assert s.scores[1, 0] == FORBIDDEN

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            ArcScores([[np.nan], [0.0]])

    def test_rejects_pos_inf(self):
        with pytest.raises(DataError, match="finite or -inf"):
            ArcScores([[0.0, 1.0], [np.inf, 0.0], [-np.inf, 2.0]])


class TestChuLiuEdmonds:
    def test_single_token(self):
        tree = chu_liu_edmonds(ArcScores([[1.5], [0.0]]))
        assert tree.heads == (0,)

    def test_two_token_example(self):
        # arcs: 0->1 = 0, 0->2 = -5, 1->2 = -1, 2->1 = -3
        m = np.array([[0.0, -5.0], [FORBIDDEN, -1.0], [-3.0, FORBIDDEN]])
        tree = chu_liu_edmonds(ArcScores(m))
        assert tree.heads == (0, 1)
        assert tree_total(m, tree.heads) == -1.0

    def test_cycle_contraction_matches_enumeration(self):
        # strong 2-cycle between tokens 1 and 2 forces a contraction
        m = np.array(
            [
                [0.5, -4.0, -3.0],
                [FORBIDDEN, 9.0, 0.1],
                [9.0, FORBIDDEN, 0.2],
                [-1.0, -1.0, FORBIDDEN],
            ]
        )
        tree = chu_liu_edmonds(ArcScores(m))
        expected_total, _ = best_tree(m, 3)
        assert tree_total(m, tree.heads) == pytest.approx(expected_total, abs=1e-9)

    def test_all_root_arcs_forbidden(self):
        m = np.array([[FORBIDDEN, FORBIDDEN], [FORBIDDEN, 1.0], [1.0, FORBIDDEN]])
        with pytest.raises(InfeasibleTreeError):
            chu_liu_edmonds(ArcScores(m))

    def test_dependent_without_permitted_head(self):
        # token 2 has no permitted head, so no tree exists; the best heads
        # would otherwise give (2, 0) through the forbidden arc 0 -> 2
        m = [[0.0, -np.inf], [-np.inf, -np.inf], [1.0, -np.inf]]
        with pytest.raises(InfeasibleTreeError):
            chu_liu_edmonds(ArcScores(m))

    def test_two_tokens_only_root_may_head(self):
        m = [[0.0, 0.0], [-np.inf, -np.inf], [-np.inf, -np.inf]]
        with pytest.raises(InfeasibleTreeError):
            chu_liu_edmonds(ArcScores(m))

    def test_forbidden_arcs_match_enumeration_of_permitted_trees(self):
        # with random forbidden arcs, the decoder returns the best tree of
        # permitted arcs, or raises exactly when there is none
        rng = np.random.default_rng(13)
        outcomes = set()
        for _ in range(400):
            n = int(rng.integers(1, 6))
            m = rng.uniform(-5, 5, size=(n + 1, n))
            if rng.random() < 0.5:
                m[0] += rng.uniform(0, 6)
            m[rng.random(size=m.shape) < rng.uniform(0, 0.8)] = -np.inf
            permitted = [
                heads
                for heads in all_single_root_trees(n)
                if all(np.isfinite(m[h, d]) for d, h in enumerate(heads))
            ]
            if not permitted:
                with pytest.raises(InfeasibleTreeError):
                    chu_liu_edmonds(ArcScores(m))
                outcomes.add("infeasible")
                continue
            tree = chu_liu_edmonds(ArcScores(m))
            best = max(tree_total(m, heads) for heads in permitted)
            assert tree_total(m, tree.heads) == pytest.approx(best, abs=1e-9)
            outcomes.add("feasible")
        assert outcomes == {"feasible", "infeasible"}

    def test_single_root_enforced(self):
        # unconstrained optimum would attach both tokens to ROOT
        m = np.array([[5.0, 5.0], [FORBIDDEN, 1.0], [1.0, FORBIDDEN]])
        tree = chu_liu_edmonds(ArcScores(m))
        assert sum(1 for h in tree.heads if h == 0) == 1
        expected_total, _ = best_tree(m, 2)
        assert tree_total(m, tree.heads) == pytest.approx(expected_total, abs=1e-12)

    def test_matches_enumeration_on_randoms(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            s = random_scores(rng, n)
            tree = chu_liu_edmonds(s)
            expected_total, _ = best_tree(s.scores, n)
            assert tree_total(s.scores, tree.heads) == pytest.approx(
                expected_total, abs=1e-9
            )

    def test_matches_enumeration_on_larger_sentences(self):
        # longer sentences exercise chained contractions and forced-root
        # re-solves; boosted ROOT rows provoke multi-root greedy optima
        rng = np.random.default_rng(71)
        for n, count in ((5, 30), (6, 15)):
            for _ in range(count):
                m = rng.uniform(-5, 5, size=(n + 1, n))
                if rng.random() < 0.5:
                    m[0] += rng.uniform(0, 6)
                tree = chu_liu_edmonds(ArcScores(m))
                expected_total, _ = best_tree(m, n)
                assert tree_total(m, tree.heads) == pytest.approx(
                    expected_total, abs=1e-9
                )

    def test_deterministic_on_ties(self):
        m = np.zeros((4, 3))
        first = chu_liu_edmonds(ArcScores(m))
        second = chu_liu_edmonds(ArcScores(m))
        assert first.heads == second.heads

    def test_tie_rule(self):
        # all-zero scores: every token's best head is ROOT, so the tokens are
        # contracted: the best non-ROOT heads close the cycle {1, 2}, which
        # closes the next cycle with token 3; each tie goes to the lowest
        # node, so token 3 takes ROOT and enters the first cycle at token 1
        assert chu_liu_edmonds(ArcScores(np.zeros((4, 3)))).heads == (3, 1, 0)
        # a greedy tree with one ROOT arc is kept; token 2's tie goes to head 1
        m = np.array(
            [
                [5.0, -9.0, -9.0],
                [-np.inf, 1.0, 1.0],
                [0.0, -np.inf, 0.0],
                [0.0, 1.0, -np.inf],
            ]
        )
        assert chu_liu_edmonds(ArcScores(m)).heads == (0, 1, 1)

    def test_matches_per_root_decoder(self):
        # the contraction agrees with re-solving once per candidate ROOT arc
        rng = np.random.default_rng(17)
        multi_root = 0
        for _ in range(60):
            n = int(rng.integers(2, 31))
            m = rng.uniform(-5, 5, size=(n + 1, n))
            m[0] += rng.uniform(0, 8)
            multi_root += greedy_roots(m) > 1
            tree = chu_liu_edmonds(ArcScores(m))
            expected = per_root_decoder(m)
            assert tree.heads == expected
            assert tree_total(m, tree.heads) == pytest.approx(
                tree_total(m, expected), abs=1e-9
            )
        assert multi_root > 30

    def test_matches_enumeration_when_most_tokens_prefer_root(self):
        rng = np.random.default_rng(19)
        for n, count in ((6, 30), (7, 6)):
            trees = np.array(all_single_root_trees(n))
            deps = np.arange(n)
            for _ in range(count):
                k = int(rng.integers(n // 2 + 1, n + 1))
                m = root_preferring(rng, n, k)
                assert greedy_roots(m) > n // 2
                totals = m[trees, deps].sum(axis=1)
                tree = chu_liu_edmonds(ArcScores(m))
                assert tree_total(m, tree.heads) == pytest.approx(totals.max(), abs=1e-9)

    def test_contract_matches_sub_matrix_oracle_on_ties(self):
        # small integer scores tie often, and with many -inf arcs some tokens
        # must take their ROOT arc; every head, ties included, is the old
        # decoder's
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n = int(rng.integers(1, 31))
            m = rng.integers(-2, 3, size=(n + 1, n)).astype(np.float64)
            m[rng.random(size=m.shape) < rng.uniform(0, 0.6)] = -np.inf
            sq = ArcScores(m).square()
            assert _contract(*_best_heads(sq)) == sub_matrix_contract(sq)

    @pytest.mark.parametrize("n", [50, 100, 175])
    def test_contract_matches_sub_matrix_oracle_on_long_sentences(self, n):
        rng = np.random.default_rng(n)
        for k in (2, 8, n // 2):
            sq = ArcScores(root_preferring(rng, n, k)).square()
            assert _contract(*_best_heads(sq)) == sub_matrix_contract(sq)

    def test_many_root_preferring_tokens_decode_quickly(self):
        m = root_preferring(np.random.default_rng(23), 150, 8)
        assert greedy_roots(m) >= 8
        start = time.perf_counter()
        tree = chu_liu_edmonds(ArcScores(m))
        assert time.perf_counter() - start < 1.0
        assert tree.heads.count(0) == 1

    def test_shift_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            s = random_scores(rng, n)
            d = int(rng.integers(1, n + 1))
            c = float(rng.uniform(-3, 3))
            shifted = s.scores.copy()
            shifted[:, d - 1] += c
            base = chu_liu_edmonds(s)
            moved = chu_liu_edmonds(ArcScores(shifted))
            assert moved.heads == base.heads
            assert tree_total(shifted, moved.heads) == pytest.approx(
                tree_total(s.scores, base.heads) + c, rel=1e-12, abs=1e-9
            )


class TestTreeLogProb:
    def test_certain_arcs(self):
        probas = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert tree_log_prob(probas, Arborescence((0, 1))) == 0.0

    def test_half_half(self):
        probas = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        got = tree_log_prob(probas, Arborescence((0, 1)))
        assert got == pytest.approx(2 * math.log(0.5), abs=1e-12)

    def test_zero_probability_arc(self):
        probas = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert tree_log_prob(probas, Arborescence((0, 1))) == float("-inf")

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(3)
        n = 4
        raw = rng.uniform(0.05, 1.0, size=(n + 1, n))
        for d in range(1, n + 1):
            raw[d, d - 1] = 0.0
        probas = raw / raw.sum(axis=0, keepdims=True)
        for heads in all_single_root_trees(n)[:25]:
            expected = sum(
                math.log(probas[h, d - 1]) for d, h in enumerate(heads, start=1)
            )
            got = tree_log_prob(probas, Arborescence(heads))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_equals_token_loop_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            raw = rng.uniform(0.0, 1.0, size=(n + 1, n)) ** 3
            probas = raw / raw.sum(axis=0)
            heads = random_tree(rng, n)
            assert tree_log_prob(probas, Arborescence(heads)) == token_loop_tree_log_prob(
                probas, heads
            )


class TestLogPartition:
    def test_single_token(self):
        s = ArcScores([[2.25], [FORBIDDEN]])
        assert log_partition(s) == pytest.approx(2.25, abs=1e-12)

    def test_two_tokens_all_zero(self):
        s = ArcScores(np.zeros((3, 2)))
        assert log_partition(s) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_enumeration_on_randoms(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            s = random_scores(rng, n)
            assert log_partition(s) == pytest.approx(
                logsumexp_over_trees(s.scores, n), abs=1e-9
            )

    def test_dominates_any_single_tree(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            s = random_scores(rng, n)
            z = log_partition(s)
            best_total, _ = best_tree(s.scores, n)
            assert z > best_total

    def test_equals_tree_score_when_unique(self):
        s = ArcScores([[1.25], [FORBIDDEN]])
        assert log_partition(s) == pytest.approx(1.25, abs=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            s = random_scores(rng, n)
            d = int(rng.integers(1, n + 1))
            c = float(rng.uniform(-4, 4))
            shifted = s.scores.copy()
            shifted[:, d - 1] += c
            assert log_partition(ArcScores(shifted)) == pytest.approx(
                log_partition(s) + c, rel=1e-12, abs=1e-9
            )

    def test_infeasible_dependent(self):
        m = np.array([[1.0, FORBIDDEN], [FORBIDDEN, FORBIDDEN], [1.0, FORBIDDEN]])
        with pytest.raises(InfeasibleTreeError):
            log_partition(ArcScores(m))

    def test_no_single_root_tree_is_infeasible(self):
        # each dependent has a permitted head, yet no single-root tree exists
        m = np.array([[0.0, 0.0], [FORBIDDEN, FORBIDDEN], [FORBIDDEN, FORBIDDEN]])
        with pytest.raises(InfeasibleTreeError):
            log_partition(ArcScores(m))
        with pytest.raises(InfeasibleTreeError):
            chu_liu_edmonds(ArcScores(m))

    def test_underflowing_determinant_is_numerical_error(self):
        # trees exist, but every one has a weight that underflows after the column shift
        m = np.array([[0.0, 0.0], [-np.inf, -800.0], [-800.0, -np.inf]])
        assert chu_liu_edmonds(ArcScores(m)).n == 2
        with pytest.raises(NumericalError):
            log_partition(ArcScores(m))

    def test_large_scores_are_stabilized(self):
        s = ArcScores(np.full((3, 2), 500.0))
        assert log_partition(s) == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_equals_square_oracle_bit_for_bit(self):
        seen = set()
        for m in partition_cases(np.random.default_rng(41)):
            got = outcome(lambda: log_partition(ArcScores(m)))
            assert got == outcome(square_log_partition, m)
            seen.add(got if got.endswith("Error") else "value")
        assert seen == {"value", "DataError", "InfeasibleTreeError", "NumericalError"}

    def test_global_score_equals_square_oracle_bit_for_bit(self):
        rng = np.random.default_rng(43)
        seen = set()
        for m in partition_cases(rng):
            probs = np.exp(m)  # NaN and +inf stay, -inf becomes a zero probability
            n = probs.shape[1]
            heads = random_tree(rng, n)
            tree = Arborescence(heads)
            got = outcome(nlpdt_score, probs, tree, n, StrategyKind.NLPDT_GLOBAL)
            with np.errstate(divide="ignore"):
                log_probs = np.log(probs)
            want = outcome(lambda: token_loop_tree_log_prob(probs, heads)
                           - square_log_partition(log_probs))
            assert got == want
            seen.add(got if got.endswith("Error") else "value")
        assert seen == {"value", "DataError", "InfeasibleTreeError", "NumericalError"}
