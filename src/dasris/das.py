"""Globally optimal binary phase selection by folding and sorting angles.

The received power is tx_power * |w_bar^T phi_bar|^2, where phi_bar =
(conj(h_r) * g, conj(h_d)) is the homogenized composite vector and w_bar =
(w, 1). The objective ignores a global sign, so the sweep returns w as the
entries that share the direct-link entry's sign. model.composite_phi returns
phi_bar times a power of two, which moves no angle of an entry it leaves
normal; an entry it makes subnormal is rounded, and its angle can move (see
composite_phi). The optimum is exact over composite_phi's output, which the
sweep below reads as it comes. Writing phi_bar_n = |phi_bar_n| e^{j theta_n},

    |w_bar^T phi_bar| = max over psi of sum_n w_bar_n |phi_bar_n| cos(psi - theta_n)

and for a fixed psi the best entry is w_bar_n = sgn(cos(psi - theta_n)).
Folding every angle into [-pi/2, pi/2), with a recorded sign flip for the
entries moved by pi, makes that sign pattern a step function of psi: in
folded-and-sorted order it is +1 on a prefix and -1 on the suffix. Sweeping
psi therefore produces at most N+1 distinct patterns, one per prefix length,
and scoring them all yields the global optimum. Sorting dominates the cost,
so the whole solve is O(N log N).

das_solve scores every split with one prefix sum and takes the first best
of those where the sorted angle changes or at the last position. Entries
with equal folded angles point the same way, so across a run of them the
prefix sum moves along a straight segment, and the convex score
|2 * prefix - total| peaks at one of the segment's ends. A split inside a
run is never better than a run end in exact arithmetic, though its float
score can be, and the run ends are exactly the patterns the sweep over psi
produces. So a row, short or long, takes the first maximum of all its
splits, and masks the splits inside runs and takes the maximum again only
when that one lies inside a run (_winner); a block masks every run first.
The prefix sum at a run end adds up the same entries whatever the order
inside the run, so the run ends and their exact scores do not depend on
that order; their float scores can, by the rounding of the sum.
The short route, _best_step_pattern, argsorts with numpy's default sort,
which orders a run as the row's length and layout lead it to; the long
route orders every run by index.

_solve_row sends a long row, one of N+1 >= 2 * _PART_MIN entries (_long,
the one test of that length), on a route of its own, _solve_long. It cuts
the row into parts, one per usable CPU up to (N+1) // _PART_MIN, and runs
each pass on threads started and finished within the call; with one part,
as on one CPU, it starts no thread. What it does not share with the short
route is only its parts and its sort, _stable_order, a sort of packed keys
whose order is np.argsort(angles, kind="stable") on any part count. The
prefix sum and _winner run on the calling thread over the whole row, and
the power's dot product, model._power, adds fixed chunks in a fixed order.
So a long row's configuration and power are the same bits on any number
of cores and of BLAS threads, and the short route's bits wherever the
angles are distinct or the sums exact.
"""

from __future__ import annotations

import itertools
import math
import os
import _thread

import numpy as np

from .model import (
    _OVERFLOW,
    ChannelRealization,
    PhaseConfig,
    Solution,
    _composite,
    _power,
    _product,
)

HALF_PI = np.pi / 2.0
# a long row runs as parts of at least _PART_MIN entries, one per usable CPU:
# below that, thread start-up, GIL hand-offs and page faults on the split's
# buffers cost more than a second core saves (one part against two timed
# with das_solve at N = 2^14 to 2^21, see CHANGES.md)
_PART_MIN = 1 << 19
# the longest row that _stable_order can order: its fix-up packs a position
# and as many cleared key bits, 31 and 31, into one int64
_LONG_MAX = 1 << 31


def _long(length: int) -> bool:
    """Whether a row of length entries is long: one that _solve_long runs as parts.

    The one length test of the long route. A row of more than _LONG_MAX
    entries takes the short route.
    """
    return 2 * _PART_MIN <= length <= _LONG_MAX


def _part_count(length: int) -> int:
    """How many parts a long row of length entries runs as: at most one per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(length // _PART_MIN, cpus)


def _run_parts(work, parts: int) -> None:
    """work(p) for p in range(parts), spread over this thread and parts - 1 others.

    With one part no thread is started. Otherwise parts - 1 threads are
    started without waiting for them to run (threading.Thread.start waits:
    0.4 ms median, 1.4 ms p90 on a 2-vCPU VM), and every thread, this one
    included, claims the next unclaimed part until none is left, so a thread
    that starts late takes fewer parts, or none, instead of holding the
    others up. The call returns once every thread it started has finished,
    so none outlives it. Each thread enters the caller's numpy error state,
    which numpy does not pass on to new threads, and the first exception a
    part raises on another thread is raised here.
    """
    err = np.geterr()
    errors: list[BaseException] = []
    claims = itertools.count()  # next() on it is atomic under the GIL

    def drain():
        p = next(claims)
        while p < parts:
            work(p)
            p = next(claims)

    def worker(done):
        try:
            with np.errstate(**err):
                drain()
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)
        finally:
            done.release()

    finished = []
    try:
        for _ in range(parts - 1):
            done = _thread.allocate_lock()
            done.acquire()
            _thread.start_new_thread(worker, (done,))
            finished.append(done)
        drain()
    finally:
        for done in finished:
            done.acquire()
    if errors:
        raise errors[0]


# the sign bit of a float64, as an int64: XORed into a float's bits, it negates it
_SIGN = np.int64(-2**63)
# a fold of fewer entries negates with numpy's masked loop, which costs less
# there than the sign-bit XOR's three ufunc calls; from about 1,000 entries
# on the XOR costs less, as the masked loop branches entry by entry on the
# half of a fresh row that it negates (timeit, 2-vCPU VM, random rows: 0.73
# against 2.25 us at 9 entries, 1.76 against 2.67 us at 257, 4.38 against
# 4.38 us at 1,025, 36.8 against 15.6 us on a (100, 65) block, 7.8 against
# 2.3 ms at 2^20)
_MASKED_MAX = 1024


def _negate(z: np.ndarray, where: np.ndarray, sign: np.ndarray) -> None:
    """Negate z in place where where holds: np.negative's bits, with no masked loop.

    sign, an int64 buffer of where's shape, takes each entry's sign bit
    first. It is XORed into the real parts and then the imaginary parts, two
    long strided passes, which cost less than one broadcast over a trailing
    axis of 2. Signed zeros and subnormals flip as np.negative flips them.
    """
    np.multiply(where, _SIGN, out=sign)
    ints = z.view(np.int64)
    ints[..., 0::2] ^= sign
    ints[..., 1::2] ^= sign


def _fold_half(z: np.ndarray, folded: np.ndarray | None = None,
               flip: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fold z in place into [-pi/2, pi/2]; returns its folded angles and flip mask.

    An entry is negated when its real part is negative, which leaves every
    real part at or above zero, so one atan2 lands in [-pi/2, pi/2]. Taking
    the atan2 against |re| keeps a -0.0 real part from reading as pi.
    Zero-magnitude entries fold to angle 0 with no flip. Writes into folded
    and flip when given them.

    A z of fewer than _MASKED_MAX entries, as das_solve's short rows, a
    one-trial cell's row and a small block give, negates with numpy's masked
    loop, which costs least there; a larger block and a long row's parts
    negate by the sign-bit XOR of _negate, in folded's buffer before the
    angles fill it, as the masked loop costs them two to three times as
    much (see _MASKED_MAX). Both give the same bits.
    """
    re = z.real  # a view: it sees the negation below
    # out by position here and in _best_step_pattern: out= costs a ufunc 20-30 ns (timeit)
    flip = np.less(re, 0, flip)
    if z.size < _MASKED_MAX:
        np.negative(z, out=z, where=flip)
    else:
        if folded is None:
            folded = np.empty(flip.shape)
        _negate(z, flip, folded.view(np.int64))
    folded = np.abs(re, folded)
    np.arctan2(z.imag, folded, folded)
    return folded, flip


def _fold_top(z: np.ndarray, folded: np.ndarray, flip: np.ndarray) -> None:
    """Fold the angles that _fold_half left at +pi/2 once more, down to -pi/2.

    They come from a zero real part over a positive imaginary one, or from a
    real part too small next to the imaginary one to show in the rounded
    angle. pi is subtracted from every angle at the top and 0.0 from every
    other, which is exact (HALF_PI - pi is -HALF_PI, and x - 0.0 is x), and
    the top's entries are negated by _negate: no boolean indexing, which
    with the masked negate cost the fold of one 2^19-entry part of
    perfbench's tie-heavy row 10.3-12.0 ms against 6.8 ms (timeit, 2-vCPU
    VM).
    """
    top = folded >= HALF_PI
    step = np.multiply(top, np.pi)
    folded -= step
    flip ^= top
    _negate(z, top, step.view(np.int64))


def _winner(scores: np.ndarray, keys: np.ndarray) -> float:
    """The sorted key at a row's winning run end: the bound of its winning prefix.

    The first maximum of scores, or, when a key equal to its own follows
    it, the maximum again over scores with the splits inside runs masked.
    """
    # the mask runs on 20 to 334 of 3,000 tie-heavy rows (zero entries,
    # pi/8-grid phases, Gaussian integers; N = 1 to 300), and skipping it
    # elsewhere read das_solve at 0.93-0.95 of the eager mask at N = 8, 64
    # and 256 (median of 15 A/B rounds, 13-15 lower, 2-vCPU VM)
    k = int(scores.argmax())
    # Python floats, which numpy compares faster than a (1,) array, and
    # item(), about 35 ns cheaper than float() of an index
    bound = keys.item(k)
    if k < keys.size - 1 and keys.item(k + 1) == bound:
        # plain slices, each about 0.1 us cheaper than one with an Ellipsis
        np.copyto(scores[:-1], -1.0, where=keys[1:] == keys[:-1])
        bound = keys.item(scores.argmax())
    return bound


# a short row's configuration by its direct-link entry's sign `one`: (one,
# -one), looked up by each entry's minus flag
_SIGNS = {one: np.array([one, -one], dtype=np.int64) for one in (1, -1)}


def _best_step_pattern(phi_bar: np.ndarray) -> np.ndarray:
    """Optimal configuration for each phi_bar along the last axis.

    phi_bar is one (N+1,) vector or a (T, N+1) block of them, and is
    overwritten by the fold and then by the scan; every row is solved on its
    own by the same sort and scan, and the result is (N,) or (T, N).
    Candidate k's inner product with phi_bar is 2 * prefix_k - total, where
    prefix_k sums the first k+1 flip-corrected entries in sorted order, so
    one cumulative sum scores every candidate. The winner is the
    best-scoring end of a run of equal folded angles (see the module
    docstring), which makes it independent of how the sort orders a run;
    the lowest such k wins ties. A row picks it by _winner; a block masks
    the splits inside runs before its argmax.
    Returns the configuration w itself, int64 +-1: +1 where the winning sign
    vector agrees with its last (direct-link) entry. A row of fewer than
    _MASKED_MAX entries looks it up from _SIGNS in one take.

    Every pass runs once over the whole row or block, on the calling
    thread: this is the short route. A long row goes through _solve_long.
    """
    # row branches: das_solve 21-28% faster than a (1, N+1) block at N = 8 to 256
    # (median of per-round ratios, A/B, 15 of 15 rounds at each N)
    row = phi_bar.ndim == 1
    starts = 0
    # the fold negates phi_bar in place: afterwards every real part is >= 0
    folded, flip = _fold_half(phi_bar)
    order = folded.argsort(-1)
    # a row's largest angle ends its order, so one lookup finds a +pi/2
    # that a reduce over the row would cost more to find; a row that holds
    # one folds it down and is sorted again
    if (folded[order[-1]] if row else folded.max()) >= HALF_PI:
        _fold_top(phi_bar, folded, flip)
        order = folded.argsort(-1)
    if not row:
        # flat positions: take() on the flattened block gathers faster than
        # indexing a (T, N+1) array with two index arrays
        starts = np.arange(0, order.size, order.shape[-1])
        order += starts[:, None]
    # in place, and each buffer dropped or reused once done with, to keep
    # the peak low
    prefix = phi_bar.take(order)
    keys = folded.take(order)
    # add.accumulate, not cumsum: the same sums, about half the per-call cost
    np.add.accumulate(prefix, -1, None, prefix)
    # phi_bar and the order are done with: their buffers take 2 * prefix -
    # total and the scores, so no copy of the total is made
    twice = np.multiply(prefix, 2.0, phi_bar)
    # one row subtracts a scalar, which numpy does faster than a (1,) slice
    twice -= prefix[-1] if row else prefix[:, -1:]
    scores = np.abs(twice, order.view(np.float64))
    del order, prefix, twice
    # a split followed by an equal key lies inside a run: never the winner.
    # The winner k is a run end, so the winning prefix holds exactly the
    # entries whose key is at most keys[k]: +1 there, unless the fold flipped it
    if row:
        bound = _winner(scores, keys)
    else:
        np.copyto(scores[:, :-1], -1.0, where=keys[:, 1:] == keys[:, :-1])
        bound = keys.take(starts + scores.argmax(-1))[:, None]
    del keys, scores
    # flip becomes the winning sign vector's -1 entries: in the prefix and
    # flipped by the fold, or neither
    minus = np.equal(folded <= bound, flip, flip)
    # +1 where an entry's sign agrees with its direct-link entry's; one row
    # reads that sign as a Python bool, for w = 2 * minus - 1 or 1 - 2 * minus
    if row:
        one = -1 if minus[-1] else 1
        if minus.size < _MASKED_MAX:
            # one take from the table (one, -one) by minus's bytes: 0.97
            # against 1.74 us for the multiply and add at 9 entries, 2.17
            # against 2.76 at 1,025, but take widens its index to intp, 8.38
            # against 7.35 us at 4,097 and 324 against 54 at 65,537 (timeit,
            # 2-vCPU VM), so a longer row keeps the multiply and add
            return _SIGNS[one].take(minus[:-1].view(np.uint8))
        w = np.multiply(minus[:-1], -2 * one, dtype=np.int64)
    else:
        one = -1
        w = np.multiply(minus[:, :-1] == minus[:, -1:], 2, dtype=np.int64)
    w += one
    return w


def _long_composite(g: np.ndarray, h_r: np.ndarray, h_d: complex,
                    cuts: list[int]) -> tuple[np.ndarray, int]:
    """A long row's composite before its rescale, and the rescale's exponent.

    Part p fills positions cuts[p] to cuts[p+1] of phi_bar = (conj(h_r) *
    g, conj(h_d)), the last part the direct-link entry too, and takes
    their largest real or imaginary part as the larger of their max and
    minus their min: the top model._composite reduces from an abs() copy,
    with no row-length temporary. A part whose top is not finite raises
    ValueError: a product overflowed, or g, h_r or h_d holds a NaN or inf,
    which makes both the max and the min NaN. The parts' tops are checked
    one by one, as the largest of them is taken by Python's max, which
    passes over a NaN. Returns phi_bar and the exponent e for which
    ldexp(phi_bar, e) is model._composite(g, h_r, h_d), bit for bit.
    """
    length = len(g) + 1
    phi_bar = np.empty(length, dtype=complex)
    floats = phi_bar.view(np.float64)
    parts = len(cuts) - 1
    tops = [0.0] * parts

    def product(p):
        start, stop = cuts[p], cuts[p + 1]
        at = slice(start, min(stop, length - 1))
        # out by position: a keyword costs the decorator's wrapper a dict per call
        _product(h_r[at], g[at], phi_bar[at])
        if stop == length:  # the last part, never empty
            phi_bar[-1] = h_d.conjugate()
        part = floats[2 * start:2 * stop]
        top = float(max(part.max(initial=0.0), -part.min(initial=0.0)))
        if not top < math.inf:  # written so that NaN fails too
            raise ValueError(_OVERFLOW)
        tops[p] = top

    _run_parts(product, parts)
    # frexp(0) gives exponent 0, so an all-zero row keeps its values
    return phi_bar, -math.frexp(max(tops))[1]


# the magnitude bits of a float64, as an int64: XORed into a float's bits
# where its sign bit is set, they order the bits as the floats
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _sortable(ints: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The order-preserving int64s of the floats whose bits ints holds, and back.

    Two floats compare as their int64s do, except -0.0, which maps to -1,
    below +0.0's 0; NaN has none. The map is its own inverse. Writes into
    out, which must not be ints, when given it.
    """
    # the magnitude bits where the sign bit is set, 0 elsewhere, as a mask
    # times them: the bits of an arithmetic shift by 63 and a mask, but
    # numpy's int64 shift has no SIMD loop. _stable_order's pack of 2^20
    # entries into a fresh buffer took 7.5-8.0 against 8.1-8.5 ms (medians
    # of 41 interleaved rounds, 2-vCPU VM)
    out = np.multiply(np.less(ints, 0), _MAGNITUDE, out=out)
    out ^= ints
    return out


def _stable_order(folded: np.ndarray, cuts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """np.argsort(folded + 0.0, kind="stable") of a long row, and folded sorted.

    The row runs as the parts that cuts sets, in two rounds of _run_parts:

    1. by position: each entry's packed key, the order-preserving int64 of
       its angle (+ 0.0, so that -0.0 keys as +0.0) with its low bits
       cleared and its position written there, and the angles + 0.0;
    2. on one thread, the packed keys sorted and the order read from their
       low bits, in place; on another, the angles sorted and the adjacent
       sorted angles that differ in the cleared bits alone.

    Equal truncated keys sort by position, so a group of them is out of
    order only where it holds two angles. The calling thread sorts each such
    group again by its cleared key bits, then position, which gives the
    stable order. The sorted angles are the keys that the sweep compares.
    """
    length = len(folded)
    parts = len(cuts) - 1
    bits = (length - 1).bit_length()  # a position fits in the low bits
    low = (1 << bits) - 1
    keys = np.empty(length)
    order = np.empty(length, dtype=np.int64)

    def pack(p):
        start, stop = cuts[p], cuts[p + 1]
        part = np.add(folded[start:stop], 0.0, out=keys[start:stop]).view(np.int64)
        part = _sortable(part, order[start:stop])
        part &= ~low
        part |= np.arange(start, stop)

    _run_parts(pack, parts)
    mixed = None

    def sort(p):
        nonlocal mixed
        # numpy sorts 64-bit keys with SIMD code (AVX-512 where the CPU has
        # it), which its argsort mostly lacks
        if p == 0:
            order.sort()
            np.bitwise_and(order, low, out=order)
        if p == 1 or parts == 1:
            keys.sort()
            # keys holds no -0.0, so two adjacent keys differ in the cleared
            # bits alone where their bits XOR to 1 to low (keys of two signs
            # XOR to below 0)
            ints = keys.view(np.int64)
            differ = ints[1:] ^ ints[:-1]
            differ -= 1
            mixed = ints[:-1][differ.view(np.uint64) < low]

    _run_parts(sort, min(parts, 2))
    # each group's truncated key, and the smallest angles of it and of the
    # next: multiples of 2^bits, so neither maps back to -0.0
    groups = np.unique(_sortable(mixed) >> bits)
    firsts = np.searchsorted(keys, _sortable(groups << bits).view(np.float64))
    nexts = np.searchsorted(keys, _sortable((groups + 1) << bits).view(np.float64))
    for lo, hi in zip(firsts.tolist(), nexts.tolist()):
        at = order[lo:hi]  # the group's positions, ascending
        angles = folded.take(at)
        angles += 0.0
        cleared = _sortable(angles.view(np.int64))
        cleared &= low
        cleared <<= bits  # at most 62 bits in all, as length <= _LONG_MAX
        cleared |= at
        cleared.sort()
        np.bitwise_and(cleared, low, out=at)
    return order, keys


def _solve_long(g: np.ndarray, h_r: np.ndarray, h_d: complex, tx_power: float,
                parts: int | None = None) -> tuple[np.ndarray, float]:
    """The optimal configuration w of one long channel, and its received power.

    g and h_r are (N,) and h_d is a Python complex. The row runs as parts
    parts (default _part_count(N+1)), in seven rounds of _run_parts:

    1. the composite's product and each part's top (_long_composite);
    2. the rescale by the largest top's exponent, and the fold;
    3. and 4. the stable order and the sorted keys (_stable_order);
    5. the entries gathered in that order;
    6. the scores;
    7. the configuration, and w * g written into the spent composite.

    Every round cuts the row by position, at the same places, except the
    sort, whose two sorts each take a thread. Between rounds the calling
    thread takes what needs the whole row: the largest top, the order's
    fix-up, the prefix sum and the winner, which _winner picks as on the
    short route. The order is the stable one, so ties keep their index
    order and every part count adds the same sums. The power is
    model._power's, of w * g.
    """
    length = len(g) + 1
    if parts is None:
        parts = _part_count(length)
    cuts = [length * p // parts for p in range(parts + 1)]
    phi_bar, exponent = _long_composite(g, h_r, h_d, cuts)
    floats = phi_bar.view(np.float64)
    folded = np.empty(length)
    flip = np.empty(length, dtype=bool)

    def fold(p):
        start, stop = cuts[p], cuts[p + 1]
        # ldexp, not a multiply by 2.0**e, which overflows for a subnormal top
        np.ldexp(floats[2 * start:2 * stop], exponent, out=floats[2 * start:2 * stop])
        at = slice(start, stop)
        # the fold negates phi_bar in place: afterwards every real part is >= 0
        _fold_half(phi_bar[at], folded[at], flip[at])
        # here, on the part's thread: one _fold_top pass over the joined
        # row, on the calling thread, read solve-large solve_rel +5%
        if folded[at].max(initial=-HALF_PI) >= HALF_PI:  # a part may be empty
            _fold_top(phi_bar[at], folded[at], flip[at])

    _run_parts(fold, parts)
    order, keys = _stable_order(folded, cuts)
    prefix = np.empty(length, dtype=complex)

    def gather(p):
        at = slice(cuts[p], cuts[p + 1])
        # mode="clip" writes straight into out; "raise" would buffer a copy
        phi_bar.take(order[at], out=prefix[at], mode="clip")

    _run_parts(gather, parts)
    np.add.accumulate(prefix, out=prefix)
    total = prefix[-1]
    # the order is done with: its buffer takes the scores
    scores = order.view(np.float64)

    def score(p):
        start, stop = cuts[p], cuts[p + 1]
        # the spent composite takes 2 * prefix - total
        twice = np.multiply(prefix[start:stop], 2.0, out=phi_bar[start:stop])
        twice -= total
        np.abs(twice, out=scores[start:stop])

    _run_parts(score, parts)
    # the winner k is a run end, so the winning prefix holds exactly the
    # entries whose key is at most keys[k]
    bound = _winner(scores, keys)
    del order, prefix, keys, scores
    # +1 where an entry's sign agrees with its direct-link entry's: the
    # winning sign vector's -1 entries are those in the prefix and flipped
    # by the fold, or neither
    one = -1 if (folded[-1] <= bound) == flip[-1] else 1
    w = np.empty(length - 1, dtype=np.int64)
    wg = phi_bar[:-1]

    def configure(p):
        at = slice(cuts[p], min(cuts[p + 1], length - 1))
        minus = np.equal(folded[at] <= bound, flip[at], out=flip[at])
        np.multiply(minus, -2 * one, out=w[at], dtype=np.int64)
        w[at] += one
        np.multiply(w[at], g[at], out=wg[at])

    _run_parts(configure, parts)
    return w, _power(h_r, wg, h_d, tx_power)


def _solve_row(g: np.ndarray, h_r: np.ndarray, h_d: complex,
               tx_power: float) -> tuple[np.ndarray, float]:
    """One channel's optimal configuration w and its received power: the row router.

    A long row goes to _solve_long, any other to the short route. h_d is a
    Python complex, as ChannelRealization holds it: a numpy scalar would
    make the power a np.float64.
    """
    if _long(len(g) + 1):
        return _solve_long(g, h_r, h_d, tx_power)
    w = _best_step_pattern(_composite(g, h_r, h_d))
    # a fresh product: w * g into the spent composite, as a long row takes
    # it, gives the same bits but costs a short solve 0.3 to 0.5 us
    # (das_solve 0.6% to 2.4% slower at N = 8 to 256, see CHANGES.md)
    return w, _power(h_r, w * g, h_d, tx_power)


def das_solve(ch: ChannelRealization) -> Solution:
    """Find the received-power-maximizing binary configuration.

    Composes the composite-vector reduction and the sweep, which returns the
    configuration; O(N log N) total. The returned power is exact for the
    returned configuration (received_power's formula and bits, without its
    shape check), and a power that overflows a float raises ValueError.
    evaluations is N + 1: the sweep scores every prefix, on either route,
    whether or not it then masks the splits inside runs.
    """
    w, power = _solve_row(ch.g, ch.h_r, ch.h_d, ch.tx_power)
    return Solution(PhaseConfig._trusted(w), power, len(ch.g) + 1)


def das_solve_block(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, tx_power: float
) -> tuple[np.ndarray, list[float]]:
    """das_solve for T channels at once, given as rows of blocks.

    g and h_r are (T, N) and h_d is (T,), as model.draw_channels returns
    them. One sweep over the (T, N+1) composite block solves every row, and
    one model._power call over the block, a single np.vecdot, gives the T
    powers; returns the (T, N) int64 configurations and the list of powers.
    An empty block, a lone row and long rows go instead one by one through
    das_solve's router, _solve_row, each w copied into its row of the
    result: a lone short row, as a cell of one trial gives, costs about 40%
    less there than on the block route at N = 16 to 20 (timeit, 2-vCPU VM).
    Row t's configuration and power are bit for bit those of das_solve on
    channel t alone, and a row whose composite or power overflows a float,
    or holds a NaN or inf, raises ValueError.
    """
    # blocks whose row counts differ go on to the block route, which rejects them
    if len(g) == len(h_r) == len(h_d) and (len(g) <= 1 or _long(g.shape[-1] + 1)):
        w = np.empty(g.shape, dtype=np.int64)
        powers = []
        for t in range(len(g)):
            w[t], power = _solve_row(g[t], h_r[t], complex(h_d[t]), tx_power)
            powers.append(power)
        return w, powers
    w = _best_step_pattern(_composite(g, h_r, h_d))
    return w, _power(h_r, w * g, h_d, tx_power)
