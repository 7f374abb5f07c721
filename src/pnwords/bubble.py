"""Generic cool-lex generation for fixed-weight bubble languages.

A (first-01) bubble language is closed under replacing each member's
first occurrence of 01 by 10.  (The dual first-10 notion is the same
thing with the roles of 0 and 1 exchanged; everything here implements
the first-01 form.)  Its weight-d slice forms a subtree of the
computation tree of the recursive swap generator rooted at 1^d 0^(n-d):
the i-th child of a node 1^s 0^t gamma is 1^(s-1) 0^i 1 0^(t-i) gamma.
One walker, ``pnoracle._gen_weight``, traverses that tree in place with
one global word; ``gen_bubble`` hands it an oracle that prunes the child
range to the members, and without an oracle the walker runs its own
prefix normal test.  This module also holds the slow membership-based
oracle and two closure checkers.

Sinks receive a read-only memoryview of 0/1 byte values that is only
valid during the visit call (the underlying word mutates afterwards).
``_lines`` is the listing's one batch and renderer: the walker, the
simple generator and the pool workers turn visited words into text, one
word per line, only through it.
"""

from typing import Callable, NamedTuple

from .core import _check_word

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")

_BATCH_BYTES = 1 << 16  # text passed on at a time, in whole lines


def word_str(view) -> str:
    """Render a 0/1-valued byte buffer as a word string."""
    return bytes(view).translate(_TO_ASCII).decode("ascii")


class Lines(NamedTuple):
    """A listing's text on its way to ``write``, built by ``_lines``."""

    acc: bytearray  # the batch: 0/1 bytes and newlines, rendered once
    sink: Callable  # appends one visited word's 0/1 view and a newline
    spill: Callable  # passes the batch on once it holds _BATCH_BYTES
    flush: Callable  # passes on whatever the batch holds


def _lines(write) -> Lines:
    """The ``Lines`` that pass visited words to write as text, one word
    per line, in batches of whole lines of about _BATCH_BYTES.

    sink checks no size: the producer calls spill between lines, at points
    of its own, and flush at its end.  A producer may also append whole
    lines to acc itself (the walker copies memoized subtrees) and slice
    acc back between its spills."""
    acc = bytearray()
    extend, append = acc.extend, acc.append

    def flush():
        if acc:
            write(word_str(acc))
            acc.clear()

    def spill():
        if len(acc) >= _BATCH_BYTES:
            flush()

    def sink(view):
        extend(view)
        append(10)  # "\n"

    return Lines(acc, sink, spill, flush)


class Collector:
    """Sink that materializes every visited word."""

    def __init__(self):
        self.words: list[str] = []

    def __call__(self, view):
        self.words.append(word_str(view))


def recursive_swap_all(n: int, d: int, visit=None, *, order: str = "coolex") -> int:
    """Visit every length-n weight-d binary word exactly once by swapping
    the last 1 of the leading run with each 0 of the following run.

    ``coolex`` visits a node after its children (post-order, cool-lex
    order); ``visit-first`` visits it before.  Returns the visit count.
    """
    return gen_bubble(lambda s, t, word: t, n, d, visit, order=order)


def gen_bubble(oracle, n: int, d: int, visit=None, *, order: str = "coolex") -> int:
    """List the weight-d slice of a bubble language in cool-lex order.

    ``oracle(s, t, word)`` must return the bubble upper bound j for the
    current node 1^s 0^t gamma: children 1..j are members, j+1..t are
    not.  The root 1^d 0^(n-d) must itself belong to the language.
    Returns the visit count.
    """
    from .pnoracle import _check_order, _gen_weight  # pnoracle imports bubble

    _check_order(order)
    return _gen_weight(n, d, visit, order, False, oracle)[0]


def naive_oracle(member):
    """Oracle built from a plain membership predicate on word strings.

    Probes children left to right and stops at the first non-member, so
    a bubble upper bound j costs at most j + 1 membership calls.
    """

    def oracle(s, t, word):
        child = bytearray(word)
        j = 0
        while j < t:
            # child j+1 swaps positions s and s+j+1 (0-based: s-1, s+j)
            child[s - 1], child[s + j] = child[s + j], child[s - 1]
            ok = member(word_str(child))
            child[s - 1], child[s + j] = child[s + j], child[s - 1]
            if not ok:
                break
            j += 1
        return j

    return oracle


def _to_int_set(words, n, d):
    values = set()
    for w in words:
        if len(w) != n or w.count("1") != d:
            raise ValueError(f"word {w!r} is not a length-{n} weight-{d} word")
        values.add(int(_check_word(w), 2) if w else 0)
    return values


def is_first01_bubble(words, n: int, d: int) -> bool:
    """Is the given fixed-weight set closed under first-01 -> 10 swaps?"""
    values = _to_int_set(words, n, d)
    if n == 0:
        return True
    mask = (1 << n) - 1
    for x in values:
        z = ~x & (x << 1) & mask  # bit j set <=> "01" at word positions (n-j, n-j+1)
        if z == 0:
            continue
        j = z.bit_length() - 1  # highest bit = first occurrence in the word
        if x ^ (3 << (j - 1)) not in values:
            return False
    return True


def check_tree_closure(words, n: int, d: int) -> bool:
    """Is the set closed under parent and left sibling in the computation
    tree?  Agrees with ``is_first01_bubble`` on every fixed-weight set."""
    values = _to_int_set(words, n, d)
    if n == 0:
        return True
    mask = (1 << n) - 1
    root = ((1 << d) - 1) << (n - d)
    for x in values:
        if x == root:
            continue
        a = n - (~x & mask).bit_length()  # leading 1-run
        rest = (x << a) & mask
        b = n - rest.bit_length()  # first 0-run; a 1 follows since x is not the root
        p2 = n - (a + b + 1)  # bit of the 1 ending the critical part
        parent = x ^ (1 << (n - a - 1)) ^ (1 << p2)
        if parent not in values:
            return False
        if b >= 2:
            if x ^ (3 << p2) not in values:  # move that 1 left by one
                return False
    return True
