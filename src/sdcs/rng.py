"""Deterministic counter-based random number generation.

This docstring is the one description of the streams' reproducibility, of
the helper thread that draws normals and of column windows; the rest of
the package refers here.

Reproducibility.  A stream keyed by a 64-bit integer produces draw number
i as ``mix64(key + (i + 1) * GAMMA)`` where ``mix64`` is the SplitMix64
finalizer.  Every output is a pure function of (key, position), so bulk
generation vectorizes over positions and two runs with the same seed give
the same sequences regardless of chunking.  The integer draws (uint64s,
randbelow, choose_indices, choose_index_rows), uniforms and rademacher use
only integer and power-of-two arithmetic, so they are bitwise identical on
every platform.  normals goes through numpy's elementwise log and cos,
whose last bits depend on the math library (libm, or numpy's SIMD kernels
for the CPU); it, and everything computed from it through BLAS, is
bitwise reproducible only with the same math library and the same BLAS
thread count.  Substreams are derived by hashing a label into a fresh
key, which gives independent streams for e.g. per-trial parallelism
without coordination.

The helper thread.  Every Box-Muller draw is a job (``_Job``) of blocks
of at most ``_NORMAL_BLOCK`` (16,384) normals, each block's radius draws
and then its angle draws, whether the caller draws it alone, splits it,
prefetches it or draws it as a column window.  The job alone maps a block
to its raw draws, and one loop computes every block that a caller
computes, claiming them from the back.  One kept daemon thread, started
by the first draw that uses it and never at import, helps with the draws
of at least ``_SPLIT_MIN`` normals (four blocks, 65,536) when the process
may run on two CPUs; smaller draws, every draw on one CPU and every
window are jobs that the calling thread computes alone.

- Split draws.  A normals call posts its job to the helper: the two
  threads claim its blocks one at a time under a lock, the helper from the
  front and the caller from the back, until none is left.
- Prefetch.  ``prefetch_normals`` starts a stream's next draw on the
  helper alone and leaves the counter where it is; the normals call at
  that (key, counter, n) joins it and takes its array.  One draw at most
  is pending.  Any other normals call, a new prefetch and
  ``cancel_prefetch`` drop it: no block is claimed after that, and once
  the helper's current block is done, nothing refers to its array.
- While one thread draws with the helper, another thread's draws and
  prefetches run without it.
- A forked child starts with a fresh helper and nothing pending.
- The helper keeps its block buffers; a caller allocates its own for
  each job.

Each normal goes through the same ufuncs on the same raw draws whichever
thread computes it, so the outputs and the counter do not depend on the
helper.

Column windows.  Read the stream's next m * n normals, or Rademacher
signs, as the m x n matrix ``normals(m * n).reshape(m, n)``.  Entry (i, j)
is normal p = i n + j, from raw draws 2p and 2p + 1 (sign p from raw draw
p), a function of its position alone.  So ``RngStream._windows`` walks
that matrix a few consecutive columns at a time without the rest of the
draw.  A normal window is a job whose steps are its entries' raw-draw
positions, and a sign window puts its raw draws through rademacher's
ufuncs, so each window is bit for bit that slice of the whole draw.  A
window job is never posted: it runs on the calling thread and leaves a
pending prefetch pending.  The counter stays where it is while the
windows are taken and moves past the whole draw once after the last.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_TWO_NEG53 = 2.0 ** -53
# 2 pi * 2^-53: a power-of-two rescaling of 2 pi, so k * _ANGLE is
# bit-identical to 2 pi * (k * 2^-53).
_ANGLE = 2.0 * math.pi * _TWO_NEG53
# Normals are generated this many at a time in two scratch arrays of
# _NORMAL_BLOCK words (256 KiB) per thread, which stay in cache.  Shorter
# blocks hand the interpreter lock between the two threads of a split draw
# too often: on a 2-core x86_64 VM, an 800 x 256 draw took 1.2-1.3x less
# time than one thread with 8192 and 1.6x less with 16384.
_NORMAL_BLOCK = 16384
# The smallest draw the helper takes: shorter ones (at most three blocks)
# gain less than the handoff costs.
_SPLIT_MIN = 4 * _NORMAL_BLOCK
# _STEPS[j] = (j + 1) * GAMMA mod 2^64, so draw j (from 0) after the first
# c draws of a stream is mix64(key + c * GAMMA + _STEPS[j]).
_STEPS = np.arange(1, 2 * _NORMAL_BLOCK + 1, dtype=np.uint64)
_STEPS *= np.uint64(_GAMMA)  # in place: import never holds two tables
# Support draws take this many indices per batch, so a batch's index pool
# (2k slots per row of k) holds 1 MiB whatever rows and n are.
_CHOOSE_BATCH = 1 << 16


def _mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer on Python ints (reference path)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix_into(start: int, steps: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = mix64(start + steps) elementwise, computed in place in out;
    tmp is scratch of out's length."""
    np.add(steps, np.uint64(start & _MASK), out=out)
    np.bitwise_xor(out, np.right_shift(out, _U30, out=tmp), out=out)
    np.multiply(out, _U_MIX1, out=out)
    np.bitwise_xor(out, np.right_shift(out, _U27, out=tmp), out=out)
    np.multiply(out, _U_MIX2, out=out)
    np.bitwise_xor(out, np.right_shift(out, _U31, out=tmp), out=out)


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _MASK
    return h


def _escape(payload: bytes) -> bytes:
    """Backslash-escape the tuple syntax, so every encoding parses one way."""
    return payload.replace(b"\\", b"\\\\").replace(b",", b"\\,").replace(b";", b"\\;")


def _encode_label(label) -> bytes:
    if isinstance(label, bytes):
        return b"b:" + _escape(label)
    if isinstance(label, str):
        return b"s:" + _escape(label.encode("utf-8"))
    if isinstance(label, (int, np.integer)):
        return b"i:" + str(int(label)).encode("ascii")
    if isinstance(label, (tuple, list)):
        return b"t:" + b",".join(_encode_label(x) for x in label) + b";"
    raise TypeError(f"unsupported substream label type: {type(label).__name__}")


class RngStream:
    """Seeded, counter-based random stream.

    Identical (seed, call sequence) pairs reproduce identical outputs.
    The stream is stateful only through a draw counter; it must not be
    shared between concurrent tasks.  Use :meth:`substream` to derive an
    independent stream per task or trial.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError("seed must be an integer")
        self._key = int(seed) & _MASK
        self._counter = 0

    @property
    def key(self) -> int:
        """The 64-bit stream key; ``RngStream(key)`` replays this stream."""
        return self._key

    @property
    def counter(self) -> int:
        """Number of raw 64-bit draws consumed so far."""
        return self._counter

    def substream(self, label) -> "RngStream":
        """Derive an independent stream from (this key, label).

        Labels may be ints, strings, bytes, or nested tuples of those;
        distinct labels hash distinct encodings (a list counts as a tuple).
        The derivation does not consume draws from this stream.
        """
        h = _fnv1a(_encode_label(label))
        return RngStream(_mix64(self._key ^ _mix64(h ^ _GAMMA)))

    def _advance(self, n: int) -> int:
        """Consume n draws; return start, so draw j of them is
        mix64(start + _STEPS[j])."""
        start = self._key + self._counter * _GAMMA
        self._counter += n
        return start

    def uint64s(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        out = np.empty(n, dtype=np.uint64)
        tmp = np.empty(min(n, _STEPS.size), dtype=np.uint64)
        for lo in range(0, n, _STEPS.size):
            hi = min(n, lo + _STEPS.size)
            _splitmix_into(self._advance(hi - lo), _STEPS[:hi - lo], out[lo:hi], tmp[:hi - lo])
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53-bit resolution."""
        return (self.uint64s(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53

    def normals(self, n: int) -> np.ndarray:
        """n standard normal variates via the Box-Muller transform.

        Consumes exactly 2n raw draws: draw 2i feeds the radius (mapped
        to (0, 1] so the log is finite), draw 2i+1 the angle.  Takes a
        pending prefetch of this draw or shares it with the helper thread
        (see the module docstring); the outputs are the same either way.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        tag = (self._key, self._counter, n)
        self._advance(2 * n)
        return _helper.take(tag, _helper_eligible(n))

    def prefetch_normals(self, n: int) -> None:
        """Start the next normals(n) of this stream on the helper thread,
        without moving the counter (see the module docstring)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if _helper_eligible(n):
            _helper.prefetch((self._key, self._counter, n))

    def rademacher(self, n: int) -> np.ndarray:
        """n independent +/-1 variates (float64), from the top output bit."""
        bits = (self.uint64s(n) >> np.uint64(63)).astype(np.float64)
        return 1.0 - 2.0 * bits

    def _windows(self, m: int, n: int, width: int, normal: bool):
        """Yield (c0, columns c0..c0+width-1 of normals(m * n) (normal true)
        or of rademacher(m * n), each read as an m x n matrix) over
        consecutive windows, the last possibly narrower, bit for bit; the
        counter moves past the whole draw after the last window (see the
        module docstring)."""
        if m < 0 or n < 0 or width < 1:
            raise ValueError("need m >= 0, n >= 0 and width >= 1")
        # Entry p = i n + j is normal p, from raw draws 2p and 2p + 1, or sign
        # p, from raw draw p: with w draws per entry, its first raw draw is
        # mix64(start + step), step = (w p + 1) GAMMA = w n GAMMA i + (w j + 1) GAMMA.
        w = 2 if normal else 1
        rows = np.arange(m, dtype=np.uint64) * np.uint64(w * n * _GAMMA & _MASK)
        start = self._key + self._counter * _GAMMA
        for c0 in range(0, n, width):
            c1 = min(n, c0 + width)
            cols = np.arange(w * c0 + 1, w * c1 + 1, w, dtype=np.uint64) * np.uint64(_GAMMA)
            steps = np.add.outer(rows, cols).ravel()
            if normal:  # a job that is never posted (see the module docstring)
                out = _helper.draw(_Job((self._key, self._counter, steps.size), True, steps))
            else:
                _splitmix_into(start, steps, steps, np.empty_like(steps))
                out = 1.0 - 2.0 * (steps >> np.uint64(63)).astype(np.float64)
            del steps  # not held while the window is used
            yield c0, out.reshape(m, c1 - c0)
        self._counter += w * m * n

    def _draw(self) -> int:
        """Next raw 64-bit output as a Python int (one uint64s draw)."""
        return _mix64(self._advance(1) + _GAMMA)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > _MASK:
            raise OverflowError("bound must be below 2^64")
        # _accept_max on Python ints
        cap = _MASK - (_MASK % bound + 1) % bound
        while True:
            x = self._draw()
            if x <= cap:
                return x % bound

    def choose_indices(self, n: int, k: int) -> np.ndarray:
        """Uniformly random k-subset of range(n), sorted ascending.

        The one-row case of :meth:`choose_index_rows`.
        """
        return self.choose_index_rows(1, n, k)[0]

    def choose_index_rows(self, rows: int, n: int, k: int) -> np.ndarray:
        """rows independent uniformly random k-subsets of range(n), as a
        (rows, k) array with each row sorted ascending.

        Each row is a partial Fisher-Yates shuffle in which position i takes
        ``randbelow(n - i)`` on the next draws, so the output and the draws
        consumed are those of rows * k sequential ``randbelow`` calls, and
        row t equals the t-th of rows sequential ``choose_indices`` calls.
        Draws are fetched a batch of rows at a time.  Each is accepted
        except with probability below (n - i) / 2^64; a batch with a
        rejected draw keeps the rows before it, rewinds the counter to the
        start of that row, redraws the row with one ``randbelow`` call per
        position and continues with the next.
        """
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if rows < 0:
            raise ValueError("rows must be >= 0")
        bounds = np.arange(n, n - k, -1, dtype=np.uint64)
        top = _accept_max(bounds)
        out = np.empty((rows, k), dtype=np.intp)
        per_batch = max(1, _CHOOSE_BATCH // k)
        done = 0
        while done < rows:
            count = min(per_batch, rows - done)
            start = self._counter
            raw = self.uint64s(count * k).reshape(count, k)
            rejected = np.any(raw > top, axis=1)
            if rejected.any():
                count = int(np.argmax(rejected))
                self._counter = start + count * k
                # randbelow's draw mod its bound; the shuffle's mod keeps it
                raw[count] = [self.randbelow(b) for b in bounds.tolist()]
                count += 1
            out[done:done + count] = _partial_shuffle(raw[:count], bounds)
            done += count
        return out


def _scratch(k: int):
    """Block buffers for _box_muller_into: raw draws and radii."""
    return np.empty(k, dtype=np.uint64), np.empty(k)


def _box_muller_into(begin: int, steps: np.ndarray, out: np.ndarray, raw, radius) -> None:
    """Fill out, one block, with normals: normal j from the radius draw
    mix64(begin + steps[j]) and the angle draw after it, mix64(begin +
    GAMMA + steps[j]).  raw and radius hold at least out.size entries.

    The SplitMix64 shifts take no scratch array of their own: the radius
    draws shift into radius, read as uint64, before the radii are written
    to it, and the angle draws into out, which holds nothing before the
    angles."""
    k = out.size
    z, rad = raw[:k], radius[:k]
    _splitmix_into(begin, steps, z, rad.view(np.uint64))
    np.right_shift(z, _U11, out=z)
    np.copyto(rad, z)
    rad += 1.0
    rad *= _TWO_NEG53
    np.log(rad, out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    _splitmix_into(begin + _GAMMA, steps, z, out.view(np.uint64))
    np.right_shift(z, _U11, out=z)
    np.copyto(out, z)
    out *= _ANGLE
    np.cos(out, out=out)
    out *= rad


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_eligible(n: int) -> bool:
    """Whether a draw of n normals may use the helper thread."""
    return n >= _SPLIT_MIN and _usable_cpus() >= 2


class _Job:
    """The n normals at (key, counter, n) = tag, as the blocks that the
    caller and, once the job is posted, the helper claim: the normals(n)
    call there, or with steps, the window whose normal j has its radius
    draw at steps[j] past the counter's start.  Joined once a caller is
    drawing it.

    Blocks next to stop - 1 are unclaimed.  The helper claims from the
    front and the caller from the back, so each writes one contiguous run
    of out: on a 2-core x86_64 VM, 204,800-normal draws took about 7%
    longer when the two threads took alternate blocks.
    """

    __slots__ = ("tag", "start", "steps", "out", "next", "stop", "busy", "joined", "failure")

    def __init__(self, tag, joined: bool, steps=None):
        key, counter, n = tag
        self.tag, self.joined, self.steps = tag, joined, steps
        self.start = key + counter * _GAMMA
        self.out = np.empty(n)
        self.next, self.stop = 0, -(-n // _NORMAL_BLOCK)
        self.busy = False  # the helper is computing a block
        self.failure = None

    def block(self, i: int):
        """(begin, steps, out) arguments of _box_muller_into for block i."""
        lo = i * _NORMAL_BLOCK
        out = self.out[lo:lo + _NORMAL_BLOCK]
        if self.steps is None:  # the normals(n) call: its raw draws from 2 lo on
            return self.start + 2 * lo * _GAMMA, _STEPS[0:2 * out.size:2], out
        return self.start, self.steps[lo:lo + out.size], out


class _Helper:
    """The helper thread of the module docstring, working on at most one
    job: joined at once when normals posts it, pending when
    prefetch_normals does."""

    def __init__(self):
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # the thread waits for a block
        self._idle = threading.Condition(self._lock)  # callers wait for the thread's block
        self._job = None
        self._started = False

    def take(self, tag, split: bool) -> np.ndarray:
        """The normals of tag, computed by draw: from its pending job, or
        from a new job, posted to the thread if split and the thread is free."""
        with self._lock:
            job = self._job
            if job is not None and not job.joined and job.tag != tag:
                self._drop(job)  # a pending draw that this call does not take
                job = None
            if job is not None and not job.joined:
                job.joined = True
            else:  # nothing pending, or another thread is drawing with the helper
                job, free = _Job(tag, joined=True), job is None
                if split and free:
                    self._post(job)
        return self.draw(job)

    def draw(self, job) -> np.ndarray:
        """Compute job's blocks from the back until none is unclaimed, and
        return its array; raises the thread's failure in a posted job."""
        try:
            scratch = _scratch(min(job.out.size, _NORMAL_BLOCK))
            while (i := self._claim(job)) is not None:
                _box_muller_into(*job.block(i), *scratch)
        finally:
            with self._lock:
                out, failure = self._drop(job)
        if failure is not None:
            raise failure
        return out

    def prefetch(self, tag) -> None:
        """Make tag's draw the pending job, in place of any other pending one."""
        with self._lock:
            if self._job is not None:
                if self._job.joined:
                    return  # another thread is drawing with the helper
                self._drop(self._job)
            self._post(_Job(tag, joined=False))

    def cancel(self) -> None:
        """Drop the pending job, if there is one."""
        with self._lock:
            if self._job is not None and not self._job.joined:
                self._drop(self._job)

    def _post(self, job) -> None:
        """Hand job to the thread (lock held), unless no thread can start."""
        if not self._started:
            try:
                threading.Thread(target=self._serve, name="sdcs-normals", daemon=True).start()
            except RuntimeError:  # no thread to be had: the caller draws alone
                return
            self._started = True
        self._job = job
        self._work.notify()

    def _claim(self, job):
        """The caller's next block of job, from the back; None once all are claimed."""
        with self._lock:
            if job.next >= job.stop:
                return None
            job.stop -= 1
            return job.stop

    def _drop(self, job):
        """Stop job (lock held): no block is claimed after this.  Waits out
        the thread's block and returns (out, failure), which job forgets."""
        job.stop = job.next
        while job.busy:
            self._idle.wait()
        if self._job is job:
            self._job = None
        out, failure = job.out, job.failure
        job.out = job.failure = None
        return out, failure

    def _serve(self) -> None:
        buffers = None
        while True:
            with self._lock:
                while (job := self._job) is None or job.next >= job.stop:
                    self._work.wait()
                i = job.next
                job.next += 1
                job.busy = True
            failure = None
            try:
                if buffers is None:  # allocated here, so a failure reaches the caller
                    buffers = _scratch(_NORMAL_BLOCK)
                _box_muller_into(*job.block(i), *buffers)
            except BaseException as exc:  # raised by the normals call that takes the job
                failure = exc
            with self._lock:
                if failure is not None:
                    job.failure, job.stop = failure, job.next
                job.busy = False
                self._idle.notify_all()
            # Past its block the thread holds no job but the pending one, as
            # it waits, whose array _drop releases.
            job = failure = None


_helper = _Helper()


def _forget_helper() -> None:
    """Start a forked child with a fresh helper (its thread is not there)."""
    global _helper
    _helper = _Helper()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def cancel_prefetch() -> None:
    """Drop the draw a prefetch_normals call left pending, if any."""
    _helper.cancel()


def _accept_max(bounds):
    """Largest accepted raw draw per uint64 bound b: draws below the largest
    multiple of b not above 2^64 map uniformly onto range(b).

    2^64 mod b is ((2^64 - 1) mod b + 1) mod b, so the limit of a
    power-of-two bound, 2^64, never has to be held in a uint64.
    """
    top = np.uint64(_MASK)
    return top - (top % bounds + np.uint64(1)) % bounds


def _partial_shuffle(draws: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per row of accepted draws, the sorted first k entries of a partial
    Fisher-Yates shuffle of range(n).

    Step i swaps positions i and j_i = i + draw_i mod bounds_i, with
    bounds_i = n - i.  Only positions 0..k-1 and the j_i are ever touched,
    so the pool holds 2k slots, not n: slot i is position i, and a position
    j >= k lives in slot k + p, where p is the first place of j among the
    row's sorted j.
    """
    rows, k = draws.shape
    i = np.arange(k)
    r = np.arange(rows)
    j = i + (draws % bounds).astype(np.intp)
    order = np.argsort(j, axis=1)
    js = j[r[:, None], order]
    head = np.ones(js.shape, dtype=bool)
    head[:, 1:] = js[:, 1:] != js[:, :-1]
    slot = np.empty_like(j)
    slot[r[:, None], order] = k + np.maximum.accumulate(np.where(head, i, 0), axis=1)
    slot = np.where(j < k, j, slot)
    pool = np.empty((rows, 2 * k), dtype=np.intp)
    pool[:, :k] = i
    pool[:, k:] = js
    for t in range(k):
        c = slot[:, t]
        pool[r, t], pool[r, c] = pool[r, c], pool[r, t]
    return np.sort(pool[:, :k], axis=1)


def derive_seed(base_seed: int, label) -> int:
    """Key of the substream (base_seed, label); usable as a fresh seed."""
    return RngStream(base_seed).substream(label).key
