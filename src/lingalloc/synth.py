"""Synthetic multilingual corpus generator.

Each language realizes a shared latent concept inventory through surface
forms drawn from a random lexicon: a fraction of concepts (the overlap
parameter) keeps one surface form across all languages, the rest get
language-specific forms. Surface strings are arbitrary, so nothing about a
word reveals its latent group; models must learn the lexicon from data and
can transfer across languages exactly through the shared forms.

Languages get progressively noisier label signal, making difficulty uneven,
and half of the generated items draw from a small core vocabulary (easy,
redundant) while the rest use a long tail of rare words (hard, informative):
that tail is what uncertainty-based acquisition can hunt for.
"""

from __future__ import annotations

import numpy as np

from .corpus import ClassificationText, DepTree, Instance, TaggedSentence, check_language
from .errors import ConfigError, DataError
from .experiment import MultilingualData
from .tasks import TaskKind

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _check_params(languages, train_size, test_size, overlap):
    if not languages:
        raise ConfigError("need at least one language")
    if len(set(languages)) != len(languages):
        raise ConfigError("duplicate language codes")
    for code in languages:
        try:
            check_language(code)
        except DataError as exc:
            raise ConfigError(str(exc)) from None
    if not 0.0 <= overlap <= 1.0:
        raise ConfigError(f"overlap must lie in [0, 1], got {overlap}")
    if train_size < 1 or test_size < 1:
        raise ConfigError("sizes must be positive")


class _Lexicon:
    """Random surface forms per (language, concept group, concept index).

    The first ``round(overlap * size)`` concepts of each group share one form
    across every language; the rest are unique per language. All generated
    words are globally distinct, so overlap 0 yields fully disjoint
    vocabularies and overlap 1 a single shared one.
    """

    def __init__(self, rng, languages, overlap):
        self.rng = rng
        self.languages = tuple(languages)
        self.overlap = overlap
        self.words: dict[tuple[str, str, int], str] = {}
        self.used: set[str] = set()

    def _fresh_word(self) -> str:
        while True:
            length = int(self.rng.integers(4, 9))
            word = "".join(self.rng.choice(_LETTERS, size=length))
            if word not in self.used:
                self.used.add(word)
                return word

    def add_group(self, group: str, size: int) -> None:
        shared_count = round(self.overlap * size)
        for k in range(size):
            if k < shared_count:
                word = self._fresh_word()
                for lang in self.languages:
                    self.words[(lang, group, k)] = word
            else:
                for lang in self.languages:
                    self.words[(lang, group, k)] = self._fresh_word()

    def word(self, lang: str, group: str, k: int) -> str:
        return self.words[(lang, group, k)]

    def sample(self, lang: str, group: str, size: int) -> str:
        return self.word(lang, group, int(self.rng.integers(0, size)))


def _difficulty(num_languages: int) -> np.ndarray:
    if num_languages == 1:
        return np.array([0.8])
    return np.linspace(0.85, 0.5, num=num_languages)


def _draw(task: TaskKind, langs, train_size, test_size, make) -> MultilingualData:
    """Draw each language's training then test instances from `make(i, lang)`.

    `make` returns one payload for the i-th language; a payload already drawn
    for that language is drawn again, so no payload repeats within or across
    a language's splits. Ids run contiguously in language order, train first.
    """
    splits: tuple[dict, dict] = ({}, {})
    counter = 0
    for i, lang in enumerate(langs):
        seen: set = set()
        for split, count in zip(splits, (train_size, test_size)):
            out = split[lang] = []
            while len(out) < count:
                payload = make(i, lang)
                if payload in seen:
                    continue
                seen.add(payload)
                cost = 1 if task is TaskKind.CLASSIFICATION else len(payload.tokens)
                out.append(Instance(counter, lang, payload, cost))
                counter += 1
    return MultilingualData(task, *splits)


_CORE = 10
_TAIL = 60
_NEUTRAL = 50


def synth_classification(languages, train_size, test_size, overlap, seed) -> MultilingualData:
    """Binary sentiment texts over shared positive/negative concept sets."""
    _check_params(languages, train_size, test_size, overlap)
    rng = np.random.default_rng(seed)
    langs = sorted(languages)
    rates = _difficulty(len(langs))
    lex = _Lexicon(rng, langs, overlap)
    for label in ("pos", "neg"):
        lex.add_group(f"core_{label}", _CORE)
        lex.add_group(f"tail_{label}", _TAIL)
    lex.add_group("neutral", _NEUTRAL)

    def make_text(i, lang):
        label = "pos" if rng.random() < 0.5 else "neg"
        hard = rng.random() < 0.5
        length = int(rng.integers(3, 9))
        signal = rates[i] * (0.7 if hard else 1.0)
        group = f"tail_{label}" if hard else f"core_{label}"
        group_size = _TAIL if hard else _CORE
        words = []
        for _ in range(length):
            if rng.random() < signal:
                words.append(lex.sample(lang, group, group_size))
            else:
                words.append(lex.sample(lang, "neutral", _NEUTRAL))
        return ClassificationText(" ".join(words), label)

    return _draw(TaskKind.CLASSIFICATION, langs, train_size, test_size, make_text)


_ENTITY_TYPES = ("PER", "LOC", "ORG")
_ENTITY_VOCAB = 18
_FILLER_VOCAB = 40


def synth_tagging(languages, train_size, test_size, overlap, seed) -> MultilingualData:
    """BIO-tagged sentences with three entity types over shared concepts."""
    _check_params(languages, train_size, test_size, overlap)
    rng = np.random.default_rng(seed)
    langs = sorted(languages)
    rates = _difficulty(len(langs))
    lex = _Lexicon(rng, langs, overlap)
    for etype in _ENTITY_TYPES:
        lex.add_group(f"ent_{etype}", _ENTITY_VOCAB)
    lex.add_group("filler", _FILLER_VOCAB)

    def make_sentence(i, lang):
        length = int(rng.integers(4, 11))
        tokens: list[str] = []
        tags: list[str] = []
        while len(tokens) < length:
            if rng.random() < 0.35 * rates[i]:
                etype = _ENTITY_TYPES[int(rng.integers(0, len(_ENTITY_TYPES)))]
                word = lex.sample(lang, f"ent_{etype}", _ENTITY_VOCAB)
                tokens.append(word)
                tags.append(f"B-{etype}")
                if rng.random() < 0.3 and len(tokens) < length:
                    tokens.append(word + "x")
                    tags.append(f"I-{etype}")
            else:
                tokens.append(lex.sample(lang, "filler", _FILLER_VOCAB))
                tags.append("O")
        return TaggedSentence(tuple(tokens), tuple(tags))

    return _draw(TaskKind.SEQUENCE_TAGGING, langs, train_size, test_size, make_sentence)


_NOUNS = 24
_VERBS = 16
_ADJS = 12
_DETS = 4


def synth_parsing(languages, train_size, test_size, overlap, seed) -> MultilingualData:
    """Single-root dependency trees from a small noun-phrase grammar.

    Every sentence has one verb as the root's child; nouns attach to the
    verb, determiners and adjectives to their noun.
    """
    _check_params(languages, train_size, test_size, overlap)
    rng = np.random.default_rng(seed)
    langs = sorted(languages)
    lex = _Lexicon(rng, langs, overlap)
    lex.add_group("noun", _NOUNS)
    lex.add_group("verb", _VERBS)
    lex.add_group("adj", _ADJS)
    lex.add_group("det", _DETS)

    def make_tree(i, lang):
        tokens: list[str] = []
        upos: list[str] = []
        heads: list[int] = []
        labels: list[str] = []

        def add(word, pos, head, label):
            tokens.append(word)
            upos.append(pos)
            heads.append(head)
            labels.append(label)
            return len(tokens)

        num_nps = int(rng.integers(1, 4))
        noun_positions = []
        verb_pos = None
        for np_idx in range(num_nps):
            modifier_slots = []
            if rng.random() < 0.6:
                modifier_slots.append(add(lex.sample(lang, "det", _DETS), "DET", 0, "det"))
            if rng.random() < 0.4:
                modifier_slots.append(add(lex.sample(lang, "adj", _ADJS), "ADJ", 0, "amod"))
            noun_pos = add(
                lex.sample(lang, "noun", _NOUNS), "NOUN", 0,
                "nsubj" if np_idx == 0 else "obj",
            )
            for slot in modifier_slots:
                heads[slot - 1] = noun_pos
            noun_positions.append(noun_pos)
            if np_idx == 0:
                verb_pos = add(lex.sample(lang, "verb", _VERBS), "VERB", 0, "root")
        for pos in noun_positions:
            heads[pos - 1] = verb_pos
        heads[verb_pos - 1] = 0
        return DepTree(tuple(tokens), tuple(upos), tuple(heads), tuple(labels))

    return _draw(TaskKind.DEPENDENCY_PARSING, langs, train_size, test_size, make_tree)


def synth_dataset(task: TaskKind, languages, train_size, test_size, overlap, seed) -> MultilingualData:
    if task is TaskKind.CLASSIFICATION:
        return synth_classification(languages, train_size, test_size, overlap, seed)
    if task is TaskKind.SEQUENCE_TAGGING:
        return synth_tagging(languages, train_size, test_size, overlap, seed)
    return synth_parsing(languages, train_size, test_size, overlap, seed)
