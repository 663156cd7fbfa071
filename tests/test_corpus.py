import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingalloc.corpus import (
    TSV_HEADER,
    ClassificationText,
    DepTree,
    Instance,
    Pool,
    SplitSpec,
    TaggedSentence,
    dedup,
    first_fit,
    ingest_conll_ner,
    ingest_conllu,
    ingest_tsv_classification,
    length_filter,
    sample_splits,
    write_conll_ner,
    write_conllu,
    write_tsv_classification,
)
from lingalloc.errors import ConfigError, DataError, FormatError, ParseError
from oracles import first_fit_selection

NER_FIXTURE = """\
John B-PER
works O
. O

-DOCSTART- O

Maria B-PER
lives O
in O
Berlin B-LOC

EU B-ORG
. O
"""

CONLLU_FIXTURE = """\
# sent_id = 1
1\tHi\thi\tINTJ\t_\t_\t2\tdiscourse\t_\t_
2\tthere\tthere\tADV\t_\t_\t0\troot\t_\t_

# a multiword token line and an empty node must be skipped
1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_
1\tde\tde\tADP\t_\t_\t2\tcase\t_\t_
1.1\tva\tir\tVERB\t_\t_\t_\t_\t0:root\t_
2\tel\tel\tDET\t_\t_\t0\troot\t_\t_
"""


class TestIngestNer:
    def test_basic_sentence(self, tmp_path):
        path = tmp_path / "a.conll"
        path.write_text("John B-PER\nworks O\n. O\n\n", encoding="utf-8")
        got = ingest_conll_ner(path, "en")
        assert len(got) == 1
        assert got[0].payload.tokens == ("John", "works", ".")
        assert got[0].cost == 3
        assert got[0].language == "en"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert ingest_conll_ner(path, "en") == []

    def test_docstart_skipped(self, tmp_path):
        path = tmp_path / "fix.conll"
        path.write_text(NER_FIXTURE, encoding="utf-8")
        got = ingest_conll_ner(path, "en")
        assert len(got) == 3
        assert [i.cost for i in got] == [3, 4, 2]
        assert [i.id for i in got] == [0, 1, 2]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("John B-PER\nworks\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ingest_conll_ner(path, "en")
        assert err.value.line == 2

    def test_bad_bio_tag(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("John X-PER\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_conll_ner(path, "en")

    def test_bad_language(self, tmp_path):
        path = tmp_path / "a.conll"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            ingest_conll_ner(path, "EN")


class TestIngestConllu:
    def test_two_token_sentence(self, tmp_path):
        path = tmp_path / "a.conllu"
        path.write_text(
            "1\tHi\t_\tINTJ\t_\t_\t2\tdiscourse\t_\t_\n"
            "2\tthere\t_\tADV\t_\t_\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
        got = ingest_conllu(path, "en")
        assert len(got) == 1
        assert got[0].payload.heads == (2, 0)
        assert got[0].payload.upos == ("INTJ", "ADV")
        assert got[0].payload.labels == ("discourse", "root")
        assert got[0].cost == 2

    def test_multiword_line_skipped(self, tmp_path):
        path = tmp_path / "fix.conllu"
        path.write_text(CONLLU_FIXTURE, encoding="utf-8")
        got = ingest_conllu(path, "es")
        assert len(got) == 2
        assert got[1].payload.tokens == ("de", "el")
        assert got[1].payload.heads == (2, 0)
        assert got[1].cost == 2

    def test_head_out_of_range(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text(
            "1\ta\t_\tX\t_\t_\t9\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            ingest_conllu(path, "en")

    def test_multiple_roots_rejected(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text(
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError) as err:
            ingest_conllu(path, "en")
        assert "line 1" in str(err.value)

    def test_head_cycle_rejected(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text(
            "# sent_id = 1\n"
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\tX\t_\t_\t3\tdep\t_\t_\n"
            "3\tc\t_\tX\t_\t_\t2\tdep\t_\t_\n\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"bad\.conllu: sentence starting at line 2: cycle"):
            ingest_conllu(path, "en")

    def test_unlabeled_file(self, tmp_path):
        path = tmp_path / "u.conllu"
        path.write_text(
            "1\ta\t_\tX\t_\t_\t_\t_\t_\t_\n2\tb\t_\tY\t_\t_\t_\t_\t_\t_\n\n",
            encoding="utf-8",
        )
        got = ingest_conllu(path, "en")
        assert got[0].payload.heads is None

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\ta\tX\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_conllu(path, "en")

    @pytest.mark.parametrize("ids, line, message", [
        (("1", "1"), 5, "expected word id 2, got '1'"),  # repeated
        (("2", "1"), 4, "expected word id 1, got '2'"),  # out of order
        (("1", "x"), 5, "expected word id 2, got 'x'"),  # not an integer
    ], ids=["repeated", "out-of-order", "not-integer"])
    def test_word_ids_must_count_from_one(self, tmp_path, ids, line, message):
        """The k-th word line of a sentence has id k, or its line is named."""
        path = tmp_path / "bad.conllu"
        path.write_text(
            "1\tok\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
            "# sent_id = 2\n"
            f"{ids[0]}\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
            f"{ids[1]}\tb\t_\tX\t_\t_\t{ids[0]}\tdep\t_\t_\n\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            ingest_conllu(path, "en")
        assert (err.value.path, err.value.line) == (path, line)
        assert str(err.value) == f"{path}:{line}: {message}"


class TestIngestTsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("label\tlanguage\ttext\npos\ten\tgreat product\n", encoding="utf-8")
        got = ingest_tsv_classification(path)
        assert len(got) == 1
        inst = got[0]
        assert inst.language == "en"
        assert inst.payload == ClassificationText("great product", "pos")
        assert inst.cost == 1

    def test_header_only(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("label\tlanguage\ttext\n", encoding="utf-8")
        assert ingest_tsv_classification(path) == []

    def test_missing_header(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("pos\ten\tgreat\n", encoding="utf-8")
        with pytest.raises(FormatError):
            ingest_tsv_classification(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("label\tlanguage\ttext\npos\ten\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            ingest_tsv_classification(path)
        assert err.value.line == 2

    def test_bilingual_fixture(self, tmp_path):
        rows = ["label\tlanguage\ttext"]
        for i in range(5):
            rows.append(f"pos\ten\tgood thing {i}")
            rows.append(f"neg\tde\tschlecht ding {i}")
        path = tmp_path / "b.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        got = ingest_tsv_classification(path)
        assert len(got) == 10
        assert {i.language for i in got} == {"en", "de"}


READERS = {
    "ner": ingest_conll_ner,
    "conllu": ingest_conllu,
    "tsv": lambda path, language: ingest_tsv_classification(path),
}
# format -> (a file that reads, a file with a fault on line 3)
NEWLINE_FIXTURES = {
    "ner": (NER_FIXTURE, "John B-PER\n\nworks\n"),
    "conllu": (CONLLU_FIXTURE, "# sent_id = 1\n\n1\ta\tX\n"),
    "tsv": ("label\tlanguage\ttext\npos\ten\ta b\n\nneg\tde\tc d\n", TSV_HEADER + "\npos\ten\tx\npos\ten\n"),
}


class TestLineReader:
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_other_line_ends_read_as_newlines(self, tmp_path, fmt, newline):
        reader = READERS[fmt]
        good, bad = NEWLINE_FIXTURES[fmt]
        got, lines = [], []
        for name, ending in (("lf", "\n"), ("other", newline)):
            path = tmp_path / f"{name}.{fmt}"
            path.write_bytes(good.replace("\n", ending).encode("utf-8"))
            got.append(reader(path, "es"))
            path.write_bytes(bad.replace("\n", ending).encode("utf-8"))
            with pytest.raises(ParseError) as err:
                reader(path, "es")
            lines.append(err.value.line)
        assert got[0] and got[0] == got[1]
        assert lines == [3, 3]

    def test_conllu_comment_inside_a_sentence_does_not_split_it(self, tmp_path):
        path = tmp_path / "c.conllu"
        path.write_text(
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "# a comment between two tokens\n"
            "2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n\n",
            encoding="utf-8",
        )
        (got,) = ingest_conllu(path, "en")
        assert got.payload.tokens == ("a", "b") and got.payload.heads == (0, 1)

    def test_conllu_block_without_words_uses_no_id(self, tmp_path):
        path = tmp_path / "m.conllu"
        path.write_text(
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
            "# a block of comments only\n\n"
            "1\tb\t_\tX\t_\t_\t0\troot\t_\t_\n",
            encoding="utf-8",
        )
        got = ingest_conllu(path, "en", start_id=5)
        assert [(i.id, i.payload.tokens) for i in got] == [(5, ("a",)), (6, ("b",))]


class TestRoundTrip:
    def test_ner(self, tmp_path):
        src = tmp_path / "src.conll"
        src.write_text(NER_FIXTURE, encoding="utf-8")
        first = ingest_conll_ner(src, "en")
        out = tmp_path / "out.conll"
        write_conll_ner(first, out)
        second = ingest_conll_ner(out, "en")
        assert [i.payload for i in first] == [i.payload for i in second]

    def test_conllu(self, tmp_path):
        src = tmp_path / "src.conllu"
        src.write_text(CONLLU_FIXTURE, encoding="utf-8")
        first = ingest_conllu(src, "es")
        out = tmp_path / "out.conllu"
        write_conllu(first, out)
        second = ingest_conllu(out, "es")
        assert [i.payload for i in first] == [i.payload for i in second]

    def test_tsv(self, tmp_path):
        insts = [
            Instance(0, "en", ClassificationText("a fine thing", "pos"), 1),
            Instance(1, "ja", ClassificationText("dame desu", "neg"), 1),
        ]
        out = tmp_path / "out.tsv"
        write_tsv_classification(insts, out)
        back = ingest_tsv_classification(out)
        assert [i.payload for i in back] == [i.payload for i in insts]
        assert [i.language for i in back] == ["en", "ja"]


def _ner_instance(iid, language, tokens, tags):
    return Instance(iid, language, TaggedSentence(tuple(tokens), tuple(tags)), len(tokens))


class TestDedup:
    def test_collapses_repeats(self):
        a1 = _ner_instance(0, "en", ["x"], ["O"])
        a2 = _ner_instance(1, "en", ["x"], ["O"])
        b = _ner_instance(2, "en", ["y"], ["O"])
        assert dedup([a1, a2, b]) == [a1, b]

    def test_empty(self):
        assert dedup([]) == []

    def test_same_text_two_languages(self):
        a = _ner_instance(0, "en", ["x"], ["O"])
        b = _ner_instance(1, "de", ["x"], ["O"])
        assert dedup([a, b]) == [a, b]

    def test_differing_tags_kept(self):
        a = _ner_instance(0, "en", ["x"], ["O"])
        b = _ner_instance(1, "en", ["x"], ["B-PER"])
        assert dedup([a, b]) == [a, b]

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from(["en", "de"]))))
    def test_idempotent(self, spec):
        insts = [
            _ner_instance(i, lang, [text], ["O"]) for i, (text, lang) in enumerate(spec)
        ]
        once = dedup(insts)
        assert dedup(once) == once


class TestLengthFilter:
    def test_overlong_sentence_removed(self):
        inst = _ner_instance(0, "en", ["t"] * 176, ["O"] * 176)
        assert length_filter([inst], 175) == []

    def test_boundary_inclusive(self):
        inst = _ner_instance(0, "en", ["t"] * 175, ["O"] * 175)
        assert length_filter([inst], 175) == [inst]

    def test_classification_truncated(self):
        text = " ".join(f"w{i}" for i in range(300))
        inst = Instance(0, "en", ClassificationText(text, "pos"), 1)
        (got,) = length_filter([inst], 256)
        assert len(got.payload.text.split()) == 256
        assert got.cost == 1
        assert got.payload.label == "pos"

    def test_short_classification_untouched(self):
        inst = Instance(0, "en", ClassificationText("hi there", "pos"), 1)
        assert length_filter([inst], 256) == [inst]


def _unit_instances(n, language="en", start=0):
    return [
        Instance(start + i, language, ClassificationText(f"text {start + i}", "pos"), 1)
        for i in range(n)
    ]


class TestDepTree:
    @pytest.mark.parametrize(
        "heads, labels",
        [((0,), ("x", "y", "z")), (None, ("x", "y", "z")), (None, ()), ((0, 1), ("x",))],
    )
    def test_counts_must_match_tokens(self, heads, labels):
        with pytest.raises(DataError):
            DepTree(("a",), ("X",), heads, labels)

    def test_labels_without_heads(self):
        assert DepTree(("a",), ("X",), None, ("x",)).labels == ("x",)


class TestPool:
    def test_disjointness_enforced(self):
        a = _unit_instances(1)[0]
        with pytest.raises(DataError):
            Pool(labeled=[a], unlabeled=[a])


class TestSampleSplits:
    def test_unit_cost_budget(self):
        insts = _unit_instances(100)
        pool = sample_splits(insts, SplitSpec(10, 5, rng_seed=0))
        assert len(pool.labeled) == 10
        assert len(pool.validation) == 5
        assert len(pool.unlabeled) == 85

    def test_deterministic(self):
        insts = _unit_instances(50)
        a = sample_splits(insts, SplitSpec(7, 3, rng_seed=4))
        b = sample_splits(list(reversed(insts)), SplitSpec(7, 3, rng_seed=4))
        assert sorted(a.labeled) == sorted(b.labeled)
        assert sorted(a.validation) == sorted(b.validation)

    def test_token_budget_stops_before_exceeding(self):
        insts = [
            Instance(i, "en", TaggedSentence(tuple(f"t{j}" for j in range(20)), ("O",) * 20), 20)
            for i in range(5)
        ]
        pool = sample_splits(insts, SplitSpec(50, 20, rng_seed=1))
        assert sum(i.cost for i in pool.labeled.values()) == 40
        assert len(pool.labeled) == 2

    def test_insufficient_data(self):
        insts = _unit_instances(4)
        with pytest.raises(ConfigError) as err:
            sample_splits(insts, SplitSpec(10, 5, rng_seed=0))
        assert "cannot cover" in str(err.value)

    def test_partitions_disjoint_and_exhaustive(self):
        insts = _unit_instances(30)
        pool = sample_splits(insts, SplitSpec(6, 4, rng_seed=2))
        ids = set()
        for part in (pool.labeled, pool.unlabeled, pool.validation):
            assert not (ids & part.keys())
            ids.update(part.keys())
        assert ids == {i.id for i in insts}


class TestFirstFit:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 8), max_size=40), st.integers(1, 400))
    def test_equals_the_walk_over_positions(self, costs, budget):
        """Budgets reach past the total of 40 costs of at most 8."""
        expected, _ = first_fit_selection([(k, k, c) for k, c in enumerate(costs)], budget)
        assert first_fit(np.array(costs, dtype=np.int64), budget).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 8)), unique_by=lambda t: t[0],
                 min_size=2, max_size=40),
        st.data(), st.integers(0, 2**32 - 1),
    )
    def test_sample_splits_buys_seed_then_validation_first_fit(self, pool, data, rng_seed):
        total = sum(cost for _, cost in pool)
        seed_budget = data.draw(st.integers(1, total - 1))
        val_budget = data.draw(st.integers(1, total - seed_budget))
        insts = [Instance(iid, "en", TaggedSentence(("t",) * cost), cost) for iid, cost in pool]
        by_id = sorted(insts, key=lambda i: i.id)
        perm = np.random.default_rng(rng_seed).permutation(len(by_id)).tolist()
        walk = [(by_id[k].id, position, by_id[k].cost) for position, k in enumerate(perm)]
        labeled, _ = first_fit_selection(walk, seed_budget)
        rest = [entry for entry in walk if entry[0] not in set(labeled)]
        validation, _ = first_fit_selection(rest, val_budget)
        unlabeled = [iid for iid, _, _ in rest if iid not in set(validation)]
        got = sample_splits(insts, SplitSpec(seed_budget, val_budget, rng_seed))
        assert (list(got.labeled), list(got.validation), list(got.unlabeled)) == (
            labeled, validation, unlabeled)
