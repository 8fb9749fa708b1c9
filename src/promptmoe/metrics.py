"""Text metrics: token-level F1, exact match, and math answer accuracy.

Every score compares normalized answers, following the extractive-QA
convention: lowercase, strip punctuation, drop the articles a/an/the,
collapse whitespace.
"""

import re
import string
from collections import Counter

ANSWER_MARKER = "The answer is:"
_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(s):
    s = s.lower()
    s = "".join(ch for ch in s if ch not in _PUNCT)
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def f1(pred, gold):
    p_tokens = normalize_answer(pred).split()
    g_tokens = normalize_answer(gold).split()
    if not p_tokens and not g_tokens:
        return 1.0
    if not p_tokens or not g_tokens:
        return 0.0
    common = Counter(p_tokens) & Counter(g_tokens)
    same = sum(common.values())
    if same == 0:
        return 0.0
    precision = same / len(p_tokens)
    recall = same / len(g_tokens)
    return 2 * precision * recall / (precision + recall)


def exact_match(pred, gold):
    return int(normalize_answer(pred) == normalize_answer(gold))


def extract_answer(text):
    """Substring after the last answer marker, or None when absent."""
    idx = text.rfind(ANSWER_MARKER)
    if idx < 0:
        return None
    return text[idx + len(ANSWER_MARKER) :].strip()


def _canonical(s):
    try:
        return float(s)
    except ValueError:
        return None


def math_accuracy(pred, gold):
    """1 iff the extracted answers agree; missing marker in pred scores 0.

    Numeric answers compare as numbers ('7.0' matches '7'); anything else
    falls back to normalized string equality. Callers that need the
    format-failure tally should test ``extract_answer(pred) is None``.
    """
    p = extract_answer(pred)
    g = extract_answer(gold)
    if p is None or g is None:
        return 0
    pn, gn = _canonical(p), _canonical(g)
    if pn is not None and gn is not None:
        return int(pn == gn)
    return exact_match(p, g)
