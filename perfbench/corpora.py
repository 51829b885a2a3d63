"""Seeded corpus generators for the benchmark workloads.

Both generators return JSONL-ready records (``id``, ``network``,
``language``, ``label``, ``text``) and never import ``maiclass``: the
program under test only ever sees the written file.

``synthetic_records`` reproduces ``make_synthetic_corpus`` from
``tests/conftest.py`` document for document at the same seed.
``nb_pages_records`` builds multilingual community pages whose vocabulary
is far larger than the 1000-token cut and whose raw text needs real Unicode
normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

NETWORKS = ("twitter", "vkontakte")
LANGUAGES = ("en", "ru")

CLASS_TOKENS = {
    "football": tuple(f"foot{i:02d}" for i in range(50)),
    "rock": tuple(f"rock{i:02d}" for i in range(50)),
    "vegetarianism": tuple(f"veg{i:02d}" for i in range(50)),
}
NOISE_TOKENS = tuple(f"noise{i:03d}" for i in range(200))


def synthetic_records(docs_per_class: int, seed: int) -> List[dict]:
    """The separable three-class corpus of the test suite.

    Every document carries its class marker ``words[0]``, 20 class tokens
    and 10 shared noise tokens, drawn in the same order as the tests draw
    them so the random stream is identical.
    """
    rng = np.random.default_rng(seed)
    records = []
    for label, words in CLASS_TOKENS.items():
        for j in range(docs_per_class):
            own = rng.choice(words, size=20)
            noise = rng.choice(NOISE_TOKENS, size=10)
            records.append({
                "id": f"{label}-{j:02d}",
                "network": NETWORKS[j % 2],
                "language": LANGUAGES[j % 2],
                "label": label,
                "text": " ".join([words[0]] + list(own) + list(noise)),
            })
    return records


NB_LABELS = ("football", "rock", "vegetarianism", "reenactment")
_LATIN_SYLLABLES = ("ka", "lo", "mi", "ren", "tus", "ba", "de", "fi", "go",
                    "hu", "ja", "ke", "li", "mo", "nu", "pa", "qe", "ri",
                    "so", "ti", "va", "we", "xi", "yo", "zu", "dra", "ste",
                    "plo", "gri", "vel")
_CYRILLIC_SYLLABLES = ("ка", "ло", "ми", "рен", "тус", "ба", "де", "фи",
                       "го", "жу", "за", "ке", "ли", "мо", "ну", "па", "ры",
                       "со", "ти", "ва", "ше", "чи", "цо", "щу", "юл",
                       "дра", "сте", "пло", "гри", "вел")
_EMOJI = ("⚽", "🎸", "🥦", "🏰", "🔥", "👍", "❤", "😀", "⭐", "🎉")
_PUNCT_SUFFIX = (",", ".", "!", "?", ":", ";", "…", "!!")
_PUNCT_WRAP = (("«", "»"), ("\"", "\""), ("(", ")"), ("'", "'"))
_DASHES = ("—", "-", "–", "...")
TOKENS_PER_PAGE = 120
POOL_SIZE = 5000
TOPIC_SIZE = 300
TOPIC_SHARE = 0.12


@dataclass(frozen=True)
class PagesReport:
    """What the nb-pages generator produced, counted at generation time."""

    docs: int
    tokens: int
    distinct_tokens: int
    dropped_share: float

    def as_dict(self) -> Dict[str, float]:
        return {"docs": self.docs, "tokens": self.tokens,
                "distinct_tokens": self.distinct_tokens,
                "dropped_share": round(self.dropped_share, 6)}


def _word_pool(rng: np.random.Generator, size: int) -> List[str]:
    """``size`` distinct three-syllable words, half Latin, half Cyrillic."""
    pool = []
    for syllables in (_LATIN_SYLLABLES, _CYRILLIC_SYLLABLES):
        base = len(syllables)
        codes = rng.choice(base ** 3, size=size // 2, replace=False)
        for code in codes:
            a, rest = divmod(int(code), base * base)
            b, c = divmod(rest, base)
            pool.append(syllables[a] + syllables[b] + syllables[c])
    return pool


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(2, n + 2, dtype=np.float64)
    return w / w.sum()


def nb_pages_records(docs_per_class: int,
                     seed: int) -> tuple[List[dict], PagesReport]:
    """Four-interest multilingual pages with Zipf-distributed words.

    Each word is drawn from the class's own topic list with probability
    ``TOPIC_SHARE`` and from the shared pool otherwise, both Zipf-like.
    Words are dressed up with mixed case, punctuation and attached emoji,
    which normalization strips; standalone emoji, dashes and hashtags are
    mixed in, which normalization drops whole.
    """
    rng = np.random.default_rng(seed)
    pool = _word_pool(rng, POOL_SIZE)
    global_w = _zipf_weights(len(pool))
    topic_w = _zipf_weights(TOPIC_SIZE)
    topics = {label: rng.choice(len(pool), size=TOPIC_SIZE, replace=False)
              for label in NB_LABELS}
    records = []
    raw_tokens = dropped = 0
    distinct = set()
    for label in NB_LABELS:
        for j in range(docs_per_class):
            n = TOKENS_PER_PAGE
            from_topic = rng.random(n) < TOPIC_SHARE
            topic_idx = topics[label][rng.choice(TOPIC_SIZE, size=n, p=topic_w)]
            global_idx = rng.choice(len(pool), size=n, p=global_w)
            word_idx = np.where(from_topic, topic_idx, global_idx)
            style = rng.random((n, 4))
            parts = []
            for k in range(n):
                word = pool[int(word_idx[k])]
                distinct.add(word)
                case, punct, emoji, extra = style[k]
                if case < 0.2:
                    word = word.title()
                elif case < 0.3:
                    word = word.upper()
                if punct < 0.08:
                    word += _PUNCT_SUFFIX[int(punct * 100) % len(_PUNCT_SUFFIX)]
                elif punct < 0.12:
                    left, right = _PUNCT_WRAP[int(punct * 100) % len(_PUNCT_WRAP)]
                    word = left + word + right
                if emoji < 0.03:
                    word += _EMOJI[int(emoji * 1000) % len(_EMOJI)]
                parts.append(word)
                if extra < 0.04:
                    parts.append("#" + pool[int(word_idx[k])])
                elif extra < 0.07:
                    parts.append(_EMOJI[int(extra * 1000) % len(_EMOJI)])
                elif extra < 0.09:
                    parts.append(_DASHES[int(extra * 1000) % len(_DASHES)])
                else:
                    continue
                dropped += 1  # hashtags, lone emoji and dashes normalize away
            raw_tokens += len(parts)
            records.append({
                "id": f"{label}-{j:03d}",
                "network": NETWORKS[j % 2],
                "language": LANGUAGES[j % 2],
                "label": label,
                "text": " ".join(parts),
            })
    report = PagesReport(docs=len(records), tokens=raw_tokens,
                         distinct_tokens=len(distinct),
                         dropped_share=dropped / raw_tokens)
    return records, report


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
