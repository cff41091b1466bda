"""Byte-splicing fast paths for the router's two hot loops.

The router's data plane does exactly two things per session op: rewrite
the ``stroke`` field on the way in (namespace it ``client:stroke``) and
rewrite it back on the way out.  A full ``json.loads`` → mutate →
``json.dumps`` round trip in each direction would be by far the largest
per-op cost.  Both rewrites only ever touch one
value span, so when a line is in *canonical form* (the exact text
``json.dumps`` produces, which is what every shipped client and every
worker emits) the rewrite is a string splice at a precomputed offset.

The contract that keeps this invisible:

* the fast parse accepts **only** lines that match the canonical shape
  character-for-character (key order, ``", "`` separators, strict JSON
  numbers, no escapes in the stroke value).  Anything else — compact
  separators, reordered keys, ``NaN``, ``1.``, an escaped quote, a
  control character — fails to match, and the router parses and
  validates the line once instead: errors get a single server's exact
  bytes, and a valid op is re-encoded as the canonical line and routed
  by the same block as a spliced one (see ``Router._route_batch``);
* reply splicing applies only to lines the *worker's* ``json.dumps``
  produced, for which ``dumps(loads(raw))`` is the identity; removing
  the ``client:`` prefix from an escape-free stroke span therefore
  yields the same bytes a decode → re-encode produces.  Any
  reply outside the shape (stats, swap acks, errors, escaped strokes)
  returns ``None``.

Number syntax is validated against the JSON grammar, not ``float()`` —
``float`` accepts ``"1_0"``, ``"+1"``, ``".5"`` and ``"1."``, all of
which ``json.loads`` rejects, and the fast path must never accept a
line that the full parse would answer with an error.
"""

from __future__ import annotations

import re

__all__ = ["OP_LINE", "splice_reply"]

# The JSON number grammar (RFC 8259): optional minus, no leading zeros,
# optional fraction, optional signed exponent.
_NUM = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"

# A stroke value with no escapes and no raw control characters: its
# decoded text equals its wire text, which is what licenses splicing.
_VALUE = r'[^"\\\x00-\x1f]+'

# Public: the router's batch loop matches against this directly (the
# per-line function-call and tuple costs are measurable at its rates);
# group 2 is the stroke value span, group 3 the ``t`` number.
OP_LINE = re.compile(
    '\\{"op": "(down|move|up)", "stroke": "(%s)", '
    '"x": (?:%s), "y": (?:%s), "t": (%s)\\}\\Z' % (_VALUE, _NUM, _NUM, _NUM)
)

_REPLY = re.compile('\\{"kind": "(recog|manip|commit|evict)", "stroke": "(%s)", ' % _VALUE)


def splice_reply(raw: str):
    """Un-namespace one canonical worker reply by splicing.

    Returns ``(kind, key, line)`` — ``key`` is the namespaced stroke
    (``client:stroke``) for journal bookkeeping, ``line`` is the raw
    reply with the ``client:`` prefix removed from the stroke value —
    or ``None`` for any reply outside the canonical decision shape
    (stats, swap acks, errors, escaped strokes), which the caller must
    decode in full.  Splicing partitions on the *first* colon, matching
    the ``key.partition(":")`` of the full decode.
    """
    m = _REPLY.match(raw)
    if m is None:
        return None
    key = m.group(2)
    cut = key.find(":")
    if cut < 0:
        return None
    start, end = m.span(2)
    return m.group(1), key, raw[:start] + key[cut + 1 :] + raw[end:]
