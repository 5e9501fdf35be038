"""Deterministic counter-based random number generation.

A stream keyed by a 64-bit integer produces draw number i as
``mix64(key + (i + 1) * GAMMA)`` where ``mix64`` is the SplitMix64
finalizer.  Every output is a pure function of (key, position), so bulk
generation vectorizes over positions and two runs with the same seed give
bitwise-identical sequences regardless of chunking or platform.

Substreams are derived by hashing a label into a fresh key, which gives
independent streams for e.g. per-trial parallelism without coordination.
"""

from __future__ import annotations

import math

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
# Normals are generated this many at a time in preallocated buffers (three
# arrays of 2 * _NORMAL_BLOCK words, about 400 KB), which stay in cache.
_NORMAL_BLOCK = 8192
# _STEPS[j] = (j + 1) * GAMMA mod 2^64, so draw j (from 0) after the first
# c draws of a stream is mix64(key + c * GAMMA + _STEPS[j]).
_STEPS = np.arange(1, 2 * _NORMAL_BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
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
        to (0, 1] so the log is finite), draw 2i+1 the angle.  A block of
        k normals holds its k radius draws, then its k angle draws,
        contiguously, and transforms them in place.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        out = np.empty(n)
        size = 2 * min(n, _NORMAL_BLOCK)
        raw = np.empty(size, dtype=np.uint64)
        tmp = np.empty(size, dtype=np.uint64)
        unit = np.empty(size)
        for lo in range(0, n, _NORMAL_BLOCK):
            k = min(n - lo, _NORMAL_BLOCK)
            z, u = raw[:2 * k], unit[:2 * k]
            start = self._advance(2 * k)
            _splitmix_into(start, _STEPS[0:2 * k:2], z[:k], tmp[:k])
            _splitmix_into(start, _STEPS[1:2 * k:2], z[k:], tmp[k:2 * k])
            np.right_shift(z, _U11, out=z)
            np.copyto(u, z)
            radius, angle = u[:k], u[k:]
            radius += 1.0
            radius *= _TWO_NEG53
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle *= _ANGLE
            np.cos(angle, out=angle)
            np.multiply(radius, angle, out=out[lo:lo + k])
        return out

    def rademacher(self, n: int) -> np.ndarray:
        """n independent +/-1 variates (float64), from the top output bit."""
        bits = (self.uint64s(n) >> np.uint64(63)).astype(np.float64)
        return 1.0 - 2.0 * bits

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
