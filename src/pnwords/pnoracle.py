"""The cool-lex tree walker, and the prefix normal words it generates.

Every fixed-weight first-01 bubble language is a subtree of the
computation tree rooted at 1^d 0^(n-d) (see ``bubble``); ``_gen_weight``
is the one walker over that tree.  At each node 1^s 0^t gamma it needs
the bubble upper bound j: children 1..j are members, j+1..t are not.
Given an oracle ``bound(s, t, word)`` it asks that (``bubble.gen_bubble``
runs this way).  Without one it computes j for prefix normal words
itself: swapping the s-th and (s+j)-th symbols keeps the word prefix
normal unless either the window starting at the moved 1 collects s or
more 1s, or the suffix beyond the old critical prefix already has a
window of length s+j-1 with s or more 1s, that is with j or fewer 0s.
The fewest 0s of each window length are kept in a table ``g``: g[k] is
the fewest 0s in a length-k window of the suffix, zero-padded, which is
k - f[k] for the window maxima f of ``core.max_ones``.  So child j + 1
(x = s + j + 1) is tested with g[x-1] <= j.  The table is updated in
O(s+i) time per tree edge and restored from a saved slice on the way
back up, so the work per generated word is proportional to its critical
prefix length.

The walk reads g only through such tests, and they see little of it.
Along any path t never grows (child i has t' = i <= t), and a node tests
g only against j < t (the leaf test below reads g[s-1] against 0), so
below child i only min(g[k], i) is read.  The walk therefore keeps just
that: at each node 1^s 0^t gamma, min(g[k], t) is exact for every
k < s + t.  The edge into child i (x = s + i) sets g[k] to
min(g[k], zeros(buf[x..x+k-1])) for k < x, the child's s + t, from
gamma's first symbol on, and stops at the first window with i 0s: the
count never falls as k grows, so no later window can bring a value
below i.  For a prefix normal child that is at k = x - 1 at the latest,
as its length-(x-1) prefix holds i 0s.  A walk with no memo, no
validation and no ``visit`` sink does not enter leaves (37% of the nodes
at n = 21, 49% at n = 8, 36% at n = 23): the parent reads the child's
first bound test before the swap, and counts a leaf itself.  The five
``GenerationStats`` counters stay those of the reference walk, which
enters every node and reads x + 1 symbols to update its window table on
each edge; the walker adds them wherever it does less, as a memo hit
does.

The walk is one iterative loop over an explicit stack, so weight classes
of any depth work, with the swap, membership test and g upkeep written
inline.  ``validate=True`` checks them against independent references:
min(g[k], t) against min(k - f[k], t) with f from ``core.max_ones``,
for k < s + t, each bound against ``is_prefix_normal`` through
``bubble.naive_oracle``, and each return from a child against the state
before it was entered.  Both references run on ``core``'s bit-parallel
window-maxima kernel, which shares no code with the upkeep of ``g``
here.

A run that only counts (``count_all_pn``, which serves ``count``,
``stats deficit`` and the prefix normal line of ``stats cr``), and a
listing made through ``write`` (``generate`` in every order, ``--cyclic``
and ``--weight``, and ``verify-gray --n``), keep a memo of subtrees.
Prefix normal words form a bubble language, so the subtree of a node
1^s 0^t gamma holds words that all end in gamma, and the walk below the
node reads little of gamma and of g.  The memo is keyed on the edge into
a child C, from the parent's state before the edge: the edge into child
i of 1^s 0^t gamma, at x = s + i with s >= 2 and x <= ``_MEMO_CR`` + 1,
has the key ``buf[1..2x-4]`` + min(g[k], i) for k = 1..x-2, one
``bytes``, whose length fixes x and whose leading 1s fix s, and so i.
The value is what the edge and C's subtree, C included, add to the five
counters.  The key holds all that they read.  C has c' = x - 1,
s' = s - 1 and t' = i, and its subtree reads ``buf`` up to
2c' - 2 = 2x - 4; after the swap at s and x <= 2x - 4 that region is
fixed by the key.  The subtree also reads g'[1..c'-1], where
g'[k] = min(g[k], zeros(buf'[x..x+k-1])), and only through
min(g'[k], i) = min(min(g[k], i), zeros(...)); for k <= x - 3 the
window ends by 2x - 4, so the key fixes it.  g'[x-2] may depend on
``buf[2x-3]``, outside the key, but only C's last bound test reads it:
count(buf'[x..2x-4]) + 1 >= s' or g'[x-2] <= i - 1.  The window
buf'[x..2x-3] holds i - 1 or fewer 0s only when it holds s' or more 1s,
and then count(buf'[x..2x-4]) + 1 >= s', so that test equals
count(...) + 1 >= s' or g[x-2] <= i - 1, which the key fixes.  C's
descendants have c <= x - 2 and read g only below x - 2.  So equal keys
root equal subtrees.  The clamp leaves out what the subtree cannot see,
so parents whose tables differ only at i or above share one entry.
Nothing in it depends on n or d, so one memo serves every class that a
process walks.  The walk looks the key up before the swap: if it is stored, the
walk adds the stored counters and goes on to the next child, so a hit
makes no edge (no swap, no g upkeep, no restore); if not, it takes the
edge and stores the change in the counters from before the edge to C's
return.

Every swap below C is at a position <= c' = x - 1, so the words of its
subtree share C's gamma, a 1 and then ``buf[x+1..n]``; they are a
contiguous run of the listing in every order, and the key also fixes the
sequence of their first x - 1 symbols in a given order.  A listing's
entry therefore also holds those rows: a miss stores the text that the
subtree added to the batch, which is cut to rows on the entry's first
hit, and a hit appends each row followed by C's gamma in one join.  Rows
depend on the order, so a listing keeps one memo per order (``--cyclic``
mixes ``reverse`` and ``coolex``).  Rows are sliced from the batch, so
the batch is passed on only where no memoized node is pending.  The memo
is off whenever a ``visit``, ``bound`` or ``validate`` is given, so
library sinks, every validated run and ``bench`` reach every node
(``bench`` counts each leaf from its parent, the others enter it), and
pay for the memo one comparison per edge and one test per node.

The weight classes share no state, so once n is large enough for it to
pay, ``_run_weights`` walks them in a pool of forked processes, one per
usable core.  A memoized count and a listing run (a ``write``, from the
CLI) run one task per worker, and the tasks claim classes from a shared
claim state until none is left: with two workers one climbs from the
first class and the other descends from the last until they meet.  Each
walks its classes with one memo per order, as a serial run does.  A
count's tasks return their counters, which the parent, holding no memo,
sums.  A listing's tasks render each class through ``bubble._lines`` and
stream its 64 KiB batches to the parent as frames on one pipe, as they
are cut; the parent writes the class that is due as it arrives, holds
the frames of later classes until their turn, and sums the counters that
end each class.  A count with no memo (no ``visit`` sink) goes out one
class per task, in listing order with one class per worker of lookahead.
A library call with a ``visit`` sink stays serial.
"""

import os
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import bubble, core
from .bubble import word_str


class GenerationInvariantError(AssertionError):
    """An internal consistency check failed during a validated run."""


@dataclass
class GenerationStats:
    """Visit count plus instrumentation counters for one generation run.

    ``membership_calls``, ``symbol_reads`` and ``swaps`` are the cost model
    of the reference walk, which enters every node, tests its children
    left to right up to the first that fails (x - 2 symbols each, x = s + i
    at child i), and on each edge swaps two symbols and reads x + 1 of
    them to update its window table.  A walk that does less (a leaf
    counted from its parent, the table kept only as far as the child reads
    it, a memoized subtree skipped) adds the
    same numbers, so every walk of a class gives the same counters.
    """

    count: int = 0
    cr_sum: int = 0
    membership_calls: int = 0
    symbol_reads: int = 0
    swaps: int = 0

    @property
    def avg_cr(self) -> Fraction:
        return Fraction(self.cr_sum, self.count)

    @property
    def reads_per_word(self) -> float:
        return self.symbol_reads / self.count


_ORDERS = ("coolex", "visit-first")  # public orders; "reverse" is internal


def _check_order(order: str) -> None:
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")


# Largest critical prefix length s + t of a memoized node (see the module
# docstring).  The memo's size is bounded by it, not by n.  Serial counts
# at n = 28 on one core of a 2-vCPU VM (medians of 3): 10 gives 26k
# entries, a 21.5 MiB peak and 2.9 s; 12 gives 110k entries, 41 MiB and
# 2.1 s; 8 gives 2.5k entries, 16.5 MiB and 6.7 s.  10 keeps the memo
# within about 5 MiB of the walk's own memory.
_MEMO_CR = 10

# _CLAMP[i] maps each byte v to min(v, i): the memo key's g clamped to i
_CLAMP = [bytes(range(c)) + bytes([c]) * (256 - c) for c in range(_MEMO_CR + 2)]


def _gen_weight(n: int, d: int, visit, order: str, validate: bool, bound=None, memo=None,
                lines=None):
    """Walk the weight-d class of length-n words from the root 1^d 0^(n-d).

    order: "coolex" (post-order), "visit-first" (pre-order, children left
    to right) or "reverse" (pre-order, children right to left, which
    yields exactly the reversed cool-lex listing).  Returns the counters
    in ``GenerationStats`` field order.

    ``bound(s, t, word)``, when given, replaces the prefix normal test:
    it must return the bubble upper bound of the node 1^s 0^t gamma, and
    the g upkeep is skipped.  validate applies to the prefix normal test.

    ``buf`` is 1-based and has length 2n+1; positions n+1..2n stay 0, so
    window reads never need a bounds check.  ``g[k]`` is the fewest 0s
    over length-k windows of the current node's suffix (everything past
    the leading 1-run and 0-run) padded with zeros, and starts at k at
    the root.  It is kept only as far as the walk reads it: min(g[k], t)
    is exact for k < s + t.  An edge into child i (x = s + i) updates g[k]
    for k < x, the child's s + t, up to the first window with i 0s, as
    below the child only min(g[k], i) is read, and saves and restores the
    slice from its first k to x.  A bytearray up to n = 254, where every
    value fits in a byte, and a list above.

    With no memo, no validation and no sink (``bench`` and the library
    runs without a ``visit``), leaves are counted from their parent: a
    node works out which of its children have no child of their own
    before any swap and adds each such leaf's counters (its edge's and
    its own: 1 word, cr x - 1, 1 bound test, x + s - 1 reads, 2 swaps),
    with no swap, no g upkeep and no stack frame.  It enters only the
    other children, whose first child is then known to be a member.
    A run with a sink, ``lines`` or ``validate=True`` enters every node.

    ``memo``, a dict, turns on the subtree memo (see the module
    docstring) for a run with no ``visit``, ``bound`` or ``validate``;
    it may be shared by runs of any n and d, and, once ``lines`` are
    given, by runs of one order only.  Its key is taken before an edge's
    swap, so a hit makes no edge, and an entry holds the counters of the
    edge and of the subtree below it.  ``lines``, the ``bubble.Lines`` of
    a listing made through ``write``, get each word where ``visit`` would,
    the rows of each memoized subtree, and a spill wherever no memoized
    node is pending after a memo hit or store.

    One loop over a stack of frames (s, t, i, j, leaves, saved): parent
    node 1^s 0^t gamma, current child i, the parent's bound j, the bitmask
    of the children counted from the parent (bit i for child i), and the
    g segment the child's update overwrote.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    buf = bytearray(2 * n + 1)
    buf[1:d + 1] = bytes([1]) * d
    small = n < 255  # g's values fit in bytes
    g = bytearray(range(n + 2)) if small else list(range(n + 2))  # the root's suffix is empty
    word = memoryview(buf).toreadonly()[1:n + 1]
    pre = order != "coolex"
    step = -1 if order == "reverse" else 1
    pn = bound is None
    # an edge into child i of 1^s 0^t gamma leads to a node with s + t = x - 1
    memo_x = _MEMO_CR + 1 if memo is not None and visit is None and pn and not validate else 0
    acc = None
    if lines is not None:
        acc, visit, spill = lines.acc, lines.sink, lines.spill
        rows_seen = {}  # one object per distinct row: an entry's rows are its pointers
    # 1 where leaves are counted from their parent, which then enters only
    # children that have children of their own
    peel = 1 if pn and not validate and not memo_x and visit is None else 0
    count = cr_sum = calls = reads = swaps = 0
    stack = []
    pending = []  # (depth, key, counters and len(acc) before its edge) per memoized node walked
    saved = None
    entered = []  # validate only: (buf, g) before each child's swap
    naive = bubble.naive_oracle(core.is_prefix_normal) if validate else None

    def check_node(s, t, j):
        # min(g[k], t) for k < s + t must be the fewest 0s of a length-k
        # window of the suffix past the critical prefix, zero-padded to
        # length n (k - f[k] with f from core.max_ones), clamped to t.
        c = s + t
        f = core.max_ones(word_str(buf[c + 1:c + 1 + n]))
        want = [min(k - f[k], t) for k in range(1, c)]
        got = [min(g[k], t) for k in range(1, c)]
        if got != want:
            raise GenerationInvariantError(
                f"min(g[k], {t}) for k in 1..{c - 1} is {got}, not {want} from"
                f" core.max_ones f[1..{c - 1}], at {word_str(word)}")
        # The inlined test said yes to children 1..j and no to child j+1;
        # the naive oracle asks is_prefix_normal about the same children.
        expected = naive(s, t, word) if s and t else 0
        if j != expected:
            raise GenerationInvariantError(
                f"bound {j} != naive bound {expected} at {word_str(word)}")

    s, t = d, n - d
    j = leaves = 0
    while True:  # buf and g hold the node 1^s 0^t gamma, just entered
        if pre:
            count += 1
            cr_sum += s + t
            if visit is not None:
                visit(word)
        if s and t:
            if pn:  # child i (swap s, s+i) stays prefix normal unless its
                # window s+i..2(s+i-1) or a length-(s+i-1) window of gamma
                # reaches s ones: g[s+i-1] <= i - 1
                while j < t:
                    x = s + j + 1
                    if buf.count(1, x + 1, 2 * x - 1) + 1 >= s or g[x - 1] <= j:
                        break
                    j += 1
                k = j + (j < t)  # tests made, the one that failed included
                calls += k
                reads += k * (s - 1) + k * (k - 1) // 2  # x - 2 each
                if peel and j:  # bit i of leaves is set when child i is a leaf
                    # Child i, 1^(s-1) 0^i 1 0^(t-i) gamma, is a leaf when its
                    # first test fails: its window s+1..2s-2 is all 1s, or
                    # g'[s-1] = min(g[s-1], zeros(1 0^(t-i) gamma)) is 0.
                    # The window is empty at s = 2; at s >= 3 it holds a 0
                    # unless i = 1 and (s = 3 or t = 1 and gamma starts with
                    # 1^(s-3)), and 1 0^(t-i) gamma starts with 1^(s-1) only
                    # when i = t and gamma starts with 1^(s-2).
                    if s < 3 or not g[s - 1]:  # all of them
                        # their edges' and their own counters
                        count += j
                        cr_sum += j * (s - 1) + j * (j + 1) // 2
                        calls += j
                        reads += j * (2 * s - 1) + j * (j + 1) // 2
                        swaps += 2 * j
                        j = 0
                    else:
                        leaves = 0
                        if s == 3 or t == 1 and buf.count(1, s + 2, 2 * s - 1) == s - 3:
                            leaves = 2
                        if j == t and buf.count(1, s + t + 1, 2 * s + t - 1) == s - 2:
                            leaves |= 1 << t
            else:
                j = bound(s, t, word)
                if not 0 <= j <= t:
                    raise ValueError(f"oracle returned {j} outside 0..{t}")
        if validate:
            check_node(s, t, j)
        i = j + 1 if step < 0 else 0
        while True:
            i += step
            if 0 < i <= j:  # descend into child i
                x = s + i
                if x <= memo_x and s > 1:  # the child has s, t > 0 and s + t = x - 1
                    # before the edge, with g clamped to i: all that the subtree sees
                    low = g[1:x - 1] if small else bytes(g[1:x - 1])
                    key = bytes(buf[1:2 * x - 3]) + low.translate(_CLAMP[i])
                    done = memo.get(key)
                    if done is not None:  # walked before: add its edge's and subtree's counters
                        dc, dcr, dcalls, dreads, dswaps, rows = done
                        count += dc
                        cr_sum += dcr
                        calls += dcalls
                        reads += dreads
                        swaps += dswaps
                        if acc is not None:
                            if rows.__class__ is bytes:  # its first hit: cut its lines to rows
                                rows = [line[:x - 1] for line in rows[:-1].split(b"\n")]
                                rows = [rows_seen.setdefault(row, row) for row in rows]
                                memo[key] = (dc, dcr, dcalls, dreads, dswaps, rows)
                            sep = b"\x01" + buf[x + 1:n + 1] + b"\n"  # the child's gamma
                            acc += sep.join(rows)
                            acc += sep
                            if not pending:
                                spill()
                        continue
                    pending.append((len(stack) + 1, key, count, cr_sum, calls, reads, swaps,
                                    0 if acc is None else len(acc)))
                if leaves >> i & 1:  # a leaf: its edge's and its own counters
                    count += 1
                    cr_sum += x - 1
                    calls += 1
                    reads += x + s - 1
                    swaps += 2
                    continue
                if validate:
                    entered.append((bytes(buf), g[:]))
                buf[s] = 0
                buf[x] = 1
                if pn:  # g[k] = min(g[k], zeros(buf[x..x+k-1])) for k < x, the
                    # child's s + t, until a window holds i 0s: the count never
                    # falls, and below child i only min(g[k], i) is read.  Below
                    # k = t - i + 2 the window is 1 0^(k-1), and g[k] <= k - 1
                    # already at any node but the root, as its gamma starts with a 1
                    if stack:
                        fi = t - i + 2
                        z = t - i
                    else:
                        fi = 1
                        z = 0
                    if z < i:
                        saved = g[fi:x]
                        for b in buf[x + fi - 1:2 * x - 1]:
                            if not b:
                                z += 1
                                if z == i:
                                    break
                            if g[fi] > z:
                                g[fi] = z
                            fi += 1
                    else:
                        saved = b""
                    reads += x + 1  # counted as the reference update: buf[x..2x]
                swaps += 2
                stack.append((s, t, i, j, leaves, saved))
                s, t = s - 1, i
                j = peel  # a child that was not peeled has child 1: test from child 2
                break
            if not pre:
                count += 1
                cr_sum += s + t
                if visit is not None:
                    visit(word)
            if pending and pending[-1][0] == len(stack):  # a memoized subtree is done
                _, key, c0, cr0, calls0, reads0, swaps0, a0 = pending.pop()
                memo[key] = (count - c0, cr_sum - cr0, calls - calls0, reads - reads0,
                             swaps - swaps0, None if acc is None else bytes(acc[a0:]))
                if acc is not None and not pending:
                    spill()
            if not stack:
                return count, cr_sum, calls, reads, swaps
            s, t, i, j, leaves, saved = stack.pop()  # back up to the parent
            x = s + i
            if pn:
                g[x - len(saved):x] = saved
            buf[s] = 1
            buf[x] = 0
            if validate and (bytes(buf), g[:]) != entered.pop():
                raise GenerationInvariantError(
                    f"state not restored after child {i} of {word_str(word)}")


# Smallest n at which a run walks its weight classes in a process pool.  In
# a fresh process the pool's import and start-up cost about 60 ms, which at
# smaller n is more than the second core saves.
_POOL_MIN_N = 20

# Largest n that a pooled listing renders: the parent holds rendered classes,
# and the whole n = 24 listing is 26 MB (1,043,212 words of 25 bytes).  Above
# it the largest class alone is about 15% of a listing that grows 1.8-1.9x
# per n, so the serial 64 KiB stream takes over.
_RENDER_MAX_N = 24


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` limits it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_pool(workers, claims=0, stream=False):
    """A ``multiprocessing.Pool`` of forked workers that ignore SIGINT, and
    the state they share, or (None, None) when no pool can be started.  Ctrl-C
    reaches the parent, whose ``with`` exit terminates them.  With claims,
    the workers inherit the claim state of that many classes for
    ``_claimed``: a shared anonymous ``mmap`` of one byte per class, all
    free, and a lock; with stream too, a pipe's read and write ends and a
    lock under which a worker writes each frame whole (see
    ``_list_claimed``).

    The workers are forked whatever the default start method is: spawn
    and forkserver workers import the caller's main module again, which
    runs a script's unguarded top-level code, counting run included, in
    every worker.  So the walk stays serial where fork is missing
    (Windows) or unsafe: on macOS, whose system libraries may start
    threads; while other threads run, as a lock one of them holds would
    stay locked in the child; and in a daemonic process, such as a
    ``multiprocessing.Pool`` worker, which may not have children.  It
    also stays serial where the claim state or the pipe cannot be made."""
    import multiprocessing
    import threading
    if (sys.platform == "darwin" or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return None, None
    try:
        context = multiprocessing.get_context("fork")
        shared = None
        if claims:
            import mmap
            shared = mmap.mmap(-1, claims), context.Lock()
            if stream:
                shared += (*context.Pipe(duplex=False), context.Lock())
        return context.Pool(workers, _start_worker, (shared,)), shared
    except (ValueError, OSError, ImportError):  # no fork, no semaphores, or no sem_open
        return None, None


_claims = None  # in a pool worker: the claim state it inherited, or None


def _start_worker(claims):
    """Pool initializer: leave Ctrl-C to the parent and keep the claims.
    A listing's worker closes its copy of the pipe's read end, so that once
    the parent is gone its next frame fails and it ends."""
    import signal
    global _claims
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if claims is not None and len(claims) > 2:
        claims[2].close()
    _claims = claims


def _claimed(taken, lock):
    """Claim indices of ``taken``, one byte per class that is set once the
    class is claimed, and yield each until none is free.  A claimer keeps
    going in its direction (first up from -1) while the next index is
    free, and otherwise takes the top of the longest free run, highest
    first on a tie, and goes down from there.  Two claimers thus split
    the classes into two contiguous runs, one climbing from 0 and one
    descending from the top, however their claims interleave."""
    p, step = -1, 1
    while True:
        with lock:
            p += step
            if not 0 <= p < len(taken) or taken[p]:
                best = run = 0
                for k in range(len(taken) - 1, -1, -1):
                    run = 0 if taken[k] else run + 1
                    if run > best:
                        best, p = run, k + run - 1
                if not best:
                    return
                step = -1
            taken[p] = 1
        yield p


def _walk_classes(n, classes, visit, validate, memoize, write=None):
    """The counters of each (weight, order) class of ``classes``, walked in
    its order, with one memo per order, shared by the classes, when
    memoize; a write gets the listing's text in ``bubble._lines`` batches."""
    lines = None if write is None else bubble._lines(write)
    memos = {}  # order -> memo: the rows of a subtree depend on the order
    results = [_gen_weight(n, d, visit, order, validate,
                           memo=memos.setdefault(order, {}) if memoize else None, lines=lines)
               for d, order in classes]
    if lines is not None:
        lines.flush()
    return results


def _walk_claimed(n, classes):
    """One task of a pooled memoized count: the counters of each class the
    worker claims, walked with one memo per order."""
    return _walk_classes(n, map(classes.__getitem__, _claimed(*_claims)), None, False, True)


def _list_claimed(n, classes, validate):
    """One task of a pooled listing: render each class k the worker claims,
    with one memo per order, and send it on the shared pipe as frames, each
    written whole under the pipe's lock: (k, text) for each batch of
    ``bubble._lines``, then (k, counters), and None once no class is left
    or the task fails, so the parent never waits on a pipe nobody writes."""
    taken, lock, _, pipe, sending = _claims

    def send(frame):
        with sending:
            pipe.send(frame)

    lines = bubble._lines(lambda text: send((k, text)))  # k: the class being rendered
    memos = {}
    try:
        for k in _claimed(taken, lock):
            d, order = classes[k]
            counts = _gen_weight(n, d, None, order, validate, memo=memos.setdefault(order, {}),
                                 lines=lines)
            lines.flush()
            send((k, counts))
    finally:
        send(None)


def _write_frames(receive, tasks, write):
    """Read the frames of ``_list_claimed`` with receive until each of the
    tasks has sent its last, and return the classes' counters in listing
    order.  The text of the class that is due is written at once; frames
    of later classes are held until their turn."""
    results, held = [], {}  # held: class -> its frames not yet written
    while tasks:
        frame = receive()
        if frame is None:
            tasks -= 1
            continue
        k, body = frame
        held.setdefault(k, []).append(body)
        while len(results) in held:  # the class that is due
            for body in held.pop(len(results)):
                if isinstance(body, str):
                    write(body)
                else:  # its counters, which end it
                    results.append(body)
    return results


def _run_weights(n, classes, visit, validate, write=None, memoize=False):
    """Walk the (weight, order) classes and sum their counters.

    Library callers pass a ``visit`` sink, or None to only count; the CLI
    passes ``write`` instead, never both, which gets the listing's text
    in the batches of ``bubble._lines``.  A listing through write, and a
    counting run with memoize, use the subtree memo, one per order.

    In a process pool when n >= ``_POOL_MIN_N``, more than one core and
    class are usable, there is no ``visit`` and, with a ``write``,
    n <= ``_RENDER_MAX_N``.  A memoized count or a listing runs one task
    per worker, which claims classes (see ``_claimed``) until none is
    left and walks them with one memo per order, so with two workers one
    climbs from the first class and the other descends from the last.  A
    count's tasks return their counters.  A listing's tasks stream each
    class as it is rendered (see ``_list_claimed``), and the parent writes
    the class that is due and holds only the frames of later ones (see
    ``_write_frames``).  A count with no memo submits one task per class,
    with at most ``workers`` held ahead of the one being consumed.
    Otherwise, or when no pool can be started, the classes are walked
    serially."""
    memoize = memoize or write is not None
    workers = min(_cores(), len(classes))
    pool = None
    if (n >= _POOL_MIN_N and workers > 1  # checked before the multiprocessing import
            and visit is None and (write is None or n <= _RENDER_MAX_N)):
        pool, shared = _fork_pool(workers, len(classes) if memoize else 0, write is not None)
    if pool is None:
        results = _walk_classes(n, classes, visit, validate, memoize, write)
    elif write is not None:
        _, _, reader, writer, _ = shared
        with reader, writer, pool:  # the pool is terminated first
            tasks = [pool.apply_async(_list_claimed, (n, classes, validate))
                     for _ in range(workers)]
            results = _write_frames(reader.recv, workers, write)
            for task in tasks:
                task.get()  # a worker's error re-raises here
    elif memoize:
        with pool:
            tasks = [pool.apply_async(_walk_claimed, (n, classes)) for _ in range(workers)]
            results = [counts for task in tasks for counts in task.get()]
    else:
        results = []
        with pool:
            pending = deque()
            for k, (d, order) in enumerate(classes, 1):
                pending.append(pool.apply_async(_gen_weight, (n, d, None, order, validate)))
                while len(pending) > (workers if k < len(classes) else 0):  # all after the last
                    results.append(pending.popleft().get())
    return GenerationStats(*map(sum, zip(*results)))


def _classes(n, order="coolex", cyclic=False):
    """The (weight, order) classes of the listing of all length-n prefix
    normal words, in listing order; the cyclic listing fixes its own orders."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if cyclic:
        return ([(d, "reverse") for d in range(1, n + 1, 2)]
                + [(d, "coolex") for d in range(n - (n % 2), -1, -2)])
    _check_order(order)
    return [(d, order) for d in range(n + 1)]


def gen_bubble_pn(n: int, d: int, visit=None, *, order: str = "coolex",
                  validate: bool = False) -> GenerationStats:
    """Generate the weight-d prefix normal words of length n."""
    _check_order(order)
    return _run_weights(n, [(d, order)], visit, validate)


def generate_all_pn(n: int, visit=None, *, order: str = "coolex",
                    validate: bool = False) -> GenerationStats:
    """Generate every prefix normal word of length n, weights ascending.

    With the default cool-lex order consecutive words differ by at most
    two swaps within a weight class and by a swap plus a bit flip across
    the weight boundary.
    """
    return _run_weights(n, _classes(n, order), visit, validate)


def count_all_pn(n: int) -> GenerationStats:
    """The ``GenerationStats`` of ``generate_all_pn(n)``, all five counters,
    from a walk that enters each memoized subtree state once."""
    return _run_weights(n, _classes(n), None, False, memoize=True)


def generate_all_pn_cyclic(n: int, visit=None, *,
                           validate: bool = False) -> GenerationStats:
    """Generate all prefix normal words of length n as a cyclic Gray code.

    Odd weights ascending, then even weights descending.  Odd blocks are
    emitted in reversed cool-lex (they start at their root 1^d 0^(n-d)),
    even blocks in forward cool-lex (they end at their root); every block
    junction and the wrap-around pair then differ by at most two flips,
    or a swap and a flip.
    """
    return _run_weights(n, _classes(n, cyclic=True), visit, validate)


def simple_generate_pn(n: int, visit=None, *, spill=None) -> GenerationStats:
    """Generate all prefix normal words of length n by depth-first prefix
    extension: every prefix normal word extends by 0, and by 1 exactly
    when no suffix already matches the corresponding prefix weight.

    Leaves come out in ascending lexicographic order; this is not a Gray
    code.  spill, when given with visit, is called after every 64th visit
    (the CLI passes its batch's ``bubble.Lines.spill``).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    buf = bytearray(n)
    word = memoryview(buf).toreadonly()
    p = [0] * (n + 1)
    stats = GenerationStats()

    k = 0  # buf[:k] is the stack of choices, p[:k + 1] its prefix weights
    while True:
        while k < n:  # extend by 0s down to a leaf; buf[k:] is all 0
            p[k + 1] = p[k]
            k += 1
        stats.count += 1
        z = buf.find(0)  # word = 1^z 0^(r-z) 1..., cr = r
        r = buf.find(1, z) if z >= 0 else -1
        stats.cr_sum += r if r >= 0 else n
        if visit is not None:
            visit(word)
            if spill is not None and not stats.count & 63:
                spill()
        # back up past each 1 (both branches done) and each 0 that cannot
        # become a 1, then take the 1-branch of the deepest other 0
        while k and (buf[k - 1] or core.extension_critical(p, k - 1)):
            k -= 1
            buf[k] = 0
        if not k:
            return stats
        buf[k - 1] = 1
        p[k] = p[k - 1] + 1


def pn_words(n: int, *, cyclic: bool = False, order: str = "coolex") -> list[str]:
    """Materialized listing (convenience wrapper for small n).  The cyclic
    listing fixes its own order, so ``cyclic`` takes only the default."""
    sink = bubble.Collector()
    if cyclic:
        if order != "coolex":
            raise ValueError(f"cyclic cannot be combined with order={order!r}")
        generate_all_pn_cyclic(n, sink)
    else:
        generate_all_pn(n, sink, order=order)
    return sink.words
