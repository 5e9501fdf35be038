import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdcs.rng as rng_module
from oracles import choose_indices_reference, randbelow_reference
from sdcs.rng import _NORMAL_BLOCK, _SPLIT_MIN, RngStream, _encode_label, derive_seed

MASK = (1 << 64) - 1


def splitmix_reference(key: int, index: int) -> int:
    """Independent scalar oracle for draw number `index` (1-based) of a stream."""
    z = (key + index * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_matches_scalar_reference():
    for seed in (0, 1, 42, 2**64 - 1):
        got = RngStream(seed).uint64s(20)
        want = [splitmix_reference(seed & MASK, i) for i in range(1, 21)]
        assert [int(x) for x in got] == want


def test_same_seed_same_sequence():
    a = RngStream(123)
    b = RngStream(123)
    assert np.array_equal(a.uint64s(100), b.uint64s(100))
    assert np.array_equal(a.normals(51), b.normals(51))


def test_chunking_does_not_change_outputs():
    a = RngStream(9)
    b = RngStream(9)
    whole = a.uint64s(30)
    parts = np.concatenate([b.uint64s(7), b.uint64s(3), b.uint64s(20)])
    assert np.array_equal(whole, parts)


def test_substreams_disjoint_and_deterministic():
    base = RngStream(7)
    labels = ["signal", "matrix", 0, 1, ("sweep", 100, 3), ("sweep", 100, 4)]
    streams = [base.substream(lab) for lab in labels]
    keys = [s.key for s in streams]
    assert len(set(keys)) == len(keys)
    # derivation consumes nothing from the parent
    assert base.counter == 0
    # same (seed, label) replays the same stream
    again = RngStream(7).substream(("sweep", 100, 3))
    assert again.key == base.substream(("sweep", 100, 3)).key
    first = [int(s.uint64s(1)[0]) for s in streams]
    assert len(set(first)) == len(first)


def test_derive_seed_replays_substream():
    lab = ("trial", 5)
    direct = RngStream(derive_seed(77, lab)).uint64s(8)
    via_sub = RngStream(77).substream(lab).uint64s(8)
    assert np.array_equal(direct, via_sub)


def test_uniforms_in_unit_interval():
    u = RngStream(3).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = RngStream(11).normals(100_000)
    assert -0.02 < z.mean() < 0.02
    assert 0.97 < z.var() < 1.03


def test_rademacher_support_and_balance():
    v = RngStream(5).rademacher(10_000)
    assert set(np.unique(v)) == {-1.0, 1.0}
    assert abs(v.mean()) < 0.05


def test_randbelow_uniform():
    rng = RngStream(17)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[rng.randbelow(4)] += 1
    assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)


def test_randbelow_validates():
    with pytest.raises(ValueError):
        RngStream(0).randbelow(0)
    with pytest.raises(OverflowError):
        RngStream(0).randbelow(1 << 64)


@pytest.mark.parametrize("bound", [1, 2, 3, 1000, 1 << 32, (1 << 63) + 1, 3 << 62, (1 << 64) - 1])
def test_randbelow_matches_reference(bound):
    # (1 << 63) + 1 and 3 << 62 reject about half and a quarter of the draws
    a, b = RngStream(bound), RngStream(bound)
    a.uint64s(3)
    b.uint64s(3)
    got = [a.randbelow(bound) for _ in range(200)]
    assert got == [randbelow_reference(b, bound) for _ in range(200)]
    assert a.counter == b.counter


def test_choose_indices_basic():
    rng = RngStream(2)
    idx = rng.choose_indices(10, 4)
    assert idx.size == 4
    assert np.all(np.diff(idx) > 0)
    assert idx.min() >= 0 and idx.max() < 10
    assert np.array_equal(RngStream(2).choose_indices(10, 10), np.arange(10))
    with pytest.raises(ValueError):
        rng.choose_indices(5, 0)
    with pytest.raises(ValueError):
        rng.choose_indices(5, 6)


def test_choose_indices_matches_sequential_randbelow():
    for seed in range(20):
        for n, k in ((256, 4), (10, 10), (7, 1), (1000, 37)):
            a, b = RngStream(seed), RngStream(seed)
            a.uint64s(seed)  # start mid-stream
            b.uint64s(seed)
            assert np.array_equal(a.choose_indices(n, k), choose_indices_reference(b, n, k))
            assert a.counter == b.counter


def test_choose_indices_rejected_draws(monkeypatch):
    # Rejection needs a draw at or above 2^64 - (2^64 mod bound), which no
    # real stream position hits for small bounds, so script the raw draws.
    top = (1 << 64) - 1  # rejected for bound 3 (2^64 mod 3 = 1) and bound 5
    script = [top, 7, top, top, 11, 2, 9, 4]

    def scripted(self, n):
        out = np.array(script[self._counter:self._counter + n], dtype=np.uint64)
        assert out.size == n, "script exhausted"
        self._counter += n
        return out

    monkeypatch.setattr(RngStream, "uint64s", scripted)
    monkeypatch.setattr(RngStream, "_draw", lambda self: int(self.uint64s(1)[0]))
    a, b = RngStream(0), RngStream(0)
    got = a.choose_indices(5, 3)
    assert np.array_equal(got, choose_indices_reference(b, 5, 3))
    # bound 5 rejects top and takes 7; bound 4 rejects nothing (2^64 mod 4 = 0)
    # and takes top; bound 3 rejects top and takes 11: five draws in all
    assert a.counter == b.counter == 5


class ScriptedStream(RngStream):
    """Raw draw number p is script[p], so a rewound counter replays draws."""

    def __init__(self, script):
        super().__init__(0)
        self.script = script

    def uint64s(self, n):
        out = np.array(self.script[self._counter:self._counter + n], dtype=np.uint64)
        assert out.size == n, "script exhausted"
        self._counter += n
        return out

    def _draw(self):
        return int(self.uint64s(1)[0])


@st.composite
def draw_plans(draw):
    """(rows, n, k, batch, tops, seed): tops are the script positions set to
    2^64 - 1, which every bound rejects except a power of two (limit 2^64)."""
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, n))
    rows = draw(st.integers(0, 9))
    batch = draw(st.integers(1, 3 * k))
    tops = sorted(draw(st.sets(st.integers(0, max(0, rows * k - 1)), max_size=4))) if rows else []
    return rows, n, k, batch, tops, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(draw_plans())
# Row 1 rejects its first draw (bound 5) and takes top at bound 4 = 2^2.
@example((3, 5, 3, 1 << 16, [3, 5], 1))
# One row per batch; bound 8 takes top, bounds 7 and 6 reject it.
@example((4, 8, 3, 3, [0, 4, 8], 2))
def test_batched_draws_equal_sequential_calls(plan):
    rows, n, k, batch, tops, seed = plan
    script = RngStream(seed).uint64s(rows * k + 8).tolist()
    for p in tops:
        script[p] = (1 << 64) - 1
    batched, calls, ref = (ScriptedStream(script) for _ in range(3))
    with mock.patch.object(rng_module, "_CHOOSE_BATCH", batch):
        got = batched.choose_index_rows(rows, n, k)
        stacked = [calls.choose_indices(n, k) for _ in range(rows)]
    want = [choose_indices_reference(ref, n, k) for _ in range(rows)]
    assert got.shape == (rows, k) and got.dtype == np.intp
    assert np.array_equal(got, np.array(want, dtype=np.intp).reshape(rows, k))
    assert np.array_equal(got, np.array(stacked, dtype=np.intp).reshape(rows, k))
    assert batched.counter == calls.counter == ref.counter


def test_choose_index_rows_validates():
    with pytest.raises(ValueError):
        RngStream(0).choose_index_rows(-1, 5, 2)
    with pytest.raises(ValueError):
        RngStream(0).choose_index_rows(3, 5, 6)
    assert RngStream(0).choose_index_rows(0, 5, 2).shape == (0, 2)


# uint64s fills blocks of this many raw draws, normals blocks of half as many
RAW_BLOCK = 2 * _NORMAL_BLOCK


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, RAW_BLOCK + 3), st.integers(0, 2 * RAW_BLOCK + 3), st.integers(0, 2**64 - 1))
@example(0, RAW_BLOCK, 1)
@example(1, RAW_BLOCK + 1, 2**64 - 1)
@example(RAW_BLOCK - 1, 2 * RAW_BLOCK + 1, 5)
def test_uint64s_after_a_prefix_match_scalar_reference(c, n, seed):
    s = RngStream(seed)
    s.uint64s(c)
    got = s.uint64s(n)
    assert s.counter == c + n
    want = [splitmix_reference(seed, i) for i in range(c + 1, c + n + 1)]
    assert got.tolist() == want


def box_muller_reference(seed: int, c: int, n: int) -> np.ndarray:
    """One-shot Box-Muller over the 2n raw draws after the first c."""
    oracle = RngStream(seed)
    oracle.uint64s(c)
    raw = oracle.uint64s(2 * n)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 * _NORMAL_BLOCK + 3), st.integers(0, 2 * _NORMAL_BLOCK + 3),
       st.integers(0, RAW_BLOCK + 3), st.integers(0, 2**64 - 1))
@example(_NORMAL_BLOCK - 1, 1, 0, 7)
@example(_NORMAL_BLOCK, _NORMAL_BLOCK + 1, 0, 8)
@example(1, 2 * _NORMAL_BLOCK - 1, 0, 9)
@example(_NORMAL_BLOCK + 1, _NORMAL_BLOCK, 1, 10)
@example(3, 2 * _NORMAL_BLOCK + 1, RAW_BLOCK - 1, 2**64 - 1)
def test_normals_chunking_and_box_muller(a, b, c, seed):
    # c raw draws before the normals shift the block starts off the step table
    s1, s2 = RngStream(seed), RngStream(seed)
    s1.uint64s(c)
    s2.uint64s(c)
    split = np.concatenate([s1.normals(a), s1.normals(b)])
    whole = s2.normals(a + b)
    assert split.tobytes() == whole.tobytes()
    assert s1.counter == s2.counter == c + 2 * (a + b)
    assert whole.tobytes() == box_muller_reference(seed, c, a + b).tobytes()


def normals_with_cpus(cpus: int, seed: int, c: int, n: int) -> tuple[bytes, int]:
    """(bytes, counter) of normals(n) after c raw draws, with the helper
    allowed (cpus >= 2) or not, whatever CPUs the process may really use."""
    s = RngStream(seed)
    s.uint64s(c)
    with mock.patch.object(rng_module, "_usable_cpus", lambda: cpus):
        return s.normals(n).tobytes(), s.counter


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(_SPLIT_MIN - 3, 5 * _NORMAL_BLOCK + 3), st.integers(0, RAW_BLOCK + 3),
       st.integers(0, 2**64 - 1))
@example(_SPLIT_MIN - 1, 0, 1)
@example(_SPLIT_MIN, 0, 2)
@example(_SPLIT_MIN + 1, 1, 3)
@example(5 * _NORMAL_BLOCK - 1, RAW_BLOCK - 1, 2**64 - 1)
@example(5 * _NORMAL_BLOCK + 3, 5, 4)
def test_normals_past_the_split_match_box_muller(n, c, seed):
    # draws of _SPLIT_MIN or more are split with the helper thread
    want = box_muller_reference(seed, c, n).tobytes()
    assert normals_with_cpus(2, seed, c, n) == (want, c + 2 * n)
    assert normals_with_cpus(1, seed, c, n) == (want, c + 2 * n)


def test_a_block_takes_two_scratch_arrays(monkeypatch):
    # A draw that the calling thread computes alone holds its output and one
    # set of block buffers: raw draws and radii, 8 * _NORMAL_BLOCK bytes
    # each.  The SplitMix64 shift scratch is the radii's array, then the
    # block's output, so a third buffer (another 128 KiB) breaks the bound;
    # the slack covers the job object and the slices of its blocks.
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 1)
    n = 3 * _NORMAL_BLOCK
    RngStream(0).normals(n)
    tracemalloc.start()
    try:
        RngStream(0).normals(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 2 * 8 * _NORMAL_BLOCK + 16 * 1024


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.integers(1, 300), st.data(), st.integers(0, RAW_BLOCK + 3),
       st.integers(0, 2**64 - 1), st.booleans())
@example(1, 1, None, 0, 0, True)
@example(1, 3 * _NORMAL_BLOCK + 5, None, 11, 2**64 - 1, True)
@example(130, 300, None, 1, 3, True)  # two blocks of normals in the window, the second short
@example(3, 70_001, None, 5, 6, False)
def test_window_is_that_slice_of_the_whole_draw(m, n, data, c, seed, normal):
    """_windows yields consecutive slices of normals(m n) or rademacher(m n)
    as an m x n matrix, bit for bit, moves no counter until the last window
    is taken and then moves it past the whole draw (one window of whole
    columns when data is None, as in the examples)."""
    width = n if data is None else data.draw(st.integers(1, n))
    s, whole = RngStream(seed), RngStream(seed)
    s.uint64s(c)
    whole.uint64s(c)
    draw = whole.normals(m * n) if normal else whole.rademacher(m * n)
    want = draw.reshape(m, n)
    starts = []
    for c0, got in s._windows(m, n, width, normal):
        starts.append(c0)
        assert s.counter == c
        assert got.tobytes() == np.ascontiguousarray(want[:, c0:c0 + width]).tobytes()
    assert starts == list(range(0, n, width))
    assert s.counter == whole.counter


def test_window_validates():
    s = RngStream(0)
    assert [w.shape for _, w in s._windows(2, 4, 4, True)] == [(2, 4)]
    assert s.counter == 16
    assert list(s._windows(2, 0, 1, True)) == [] and s.counter == 16
    for bad in ((-1, 4, 1), (2, -1, 1), (2, 4, 0), (2, 4, -1)):
        with pytest.raises(ValueError):
            next(s._windows(*bad, True))
    assert s.counter == 16


SPLIT_SIZES = [_SPLIT_MIN, _SPLIT_MIN + 7, 5 * _NORMAL_BLOCK + 1]


def test_threads_share_the_helper(monkeypatch):
    # more drawing threads than cores: whoever finds the helper busy draws
    # alone, and a prefetch is taken or dropped by whichever thread comes
    # next; in each round some threads prefetch their draws and some do not
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    want = {seed: [box_muller_reference(seed, 2 * sum(SPLIT_SIZES[:i]), n).tobytes()
                   for i, n in enumerate(SPLIT_SIZES)] for seed in (11, 12, 13)}
    got = {}

    def draw(seed):
        for k in range(4):
            s = RngStream(seed)
            row = []
            for n in SPLIT_SIZES:
                if (k + seed) % 2:
                    s.prefetch_normals(n)
                row.append(s.normals(n).tobytes())
            got.setdefault(seed, []).append(row)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=draw, args=(seed,), daemon=True) for seed in want]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60.0)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert got == {seed: [bytes_] * 4 for seed, bytes_ in want.items()}


def helper_first(monkeypatch, fail_first: bool):
    """Patch the block function so that in each draw the helper computes a
    block before the caller does, the first of them raising if fail_first.

    Returns (blocks, next_draw): blocks lists the sizes of the helper's
    blocks, one list per draw, and next_draw starts the next draw's list.
    """
    real = rng_module._box_muller_into
    caller = threading.get_ident()
    draws: list[list[int]] = []
    helper_went = threading.Event()

    def block(begin, steps, out, *buffers):
        if threading.get_ident() == caller:
            assert helper_went.wait(30.0), "the helper took no block"
        else:
            draws[-1].append(out.size)
            helper_went.set()
            if fail_first and sum(map(len, draws)) == 1:
                raise RuntimeError("block failed")
        real(begin, steps, out, *buffers)

    def next_draw():
        helper_went.clear()
        draws.append([])

    monkeypatch.setattr(rng_module, "_box_muller_into", block)
    return draws, next_draw


def run_in_thread(fn, timeout=60.0):
    """fn() in a thread of its own, so that a stall fails the test."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "the draw stalled"
    if errors:
        raise errors[0]


def test_helper_failure_reaches_the_caller_and_the_helper_recovers(monkeypatch):
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    n = _SPLIT_MIN + 1
    got = []

    def draws():
        blocks, next_draw = helper_first(monkeypatch, fail_first=True)
        next_draw()
        with pytest.raises(RuntimeError, match="block failed"):
            RngStream(3).normals(n)
        next_draw()
        got.append(RngStream(3).normals(n).tobytes())
        got.append(blocks)

    run_in_thread(draws)
    assert got[0] == box_muller_reference(3, 0, n).tobytes()
    # both draws shared blocks with the helper, which outlived its failure
    assert got[1][0][0] == _NORMAL_BLOCK and len(got[1][1]) >= 1


def wait_until(predicate, timeout=30.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def pending():
    return rng_module._helper._job


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(_SPLIT_MIN - 3, 5 * _NORMAL_BLOCK + 3), st.integers(0, RAW_BLOCK + 3),
       st.integers(0, 2**64 - 1), st.sampled_from([1, 2]))
@example(_SPLIT_MIN - 1, 0, 1, 2)
@example(_SPLIT_MIN, 0, 2, 2)
@example(5 * _NORMAL_BLOCK + 3, 5, 4, 2)
@example(_SPLIT_MIN, 3, 5, 1)
def test_prefetched_draws_match_box_muller(n, c, seed, cpus):
    want = box_muller_reference(seed, c, n).tobytes()
    s = RngStream(seed)
    s.uint64s(c)
    with mock.patch.object(rng_module, "_usable_cpus", lambda: cpus):
        s.prefetch_normals(n)
        assert s.counter == c  # a prefetch draws nothing from the stream
        assert (pending() is not None) == (cpus == 2 and n >= _SPLIT_MIN)
        assert s.normals(n).tobytes() == want
    assert s.counter == c + 2 * n
    assert pending() is None


def test_prefetch_is_taken_by_the_matching_draw(monkeypatch):
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    n = 5 * _NORMAL_BLOCK + 3
    s = RngStream(21)
    s.prefetch_normals(n)
    job = pending()
    assert wait_until(lambda: job.next == job.stop and not job.busy)
    caller = threading.get_ident()
    real = rng_module._box_muller_into

    def helper_only(begin, steps, out, *buffers):
        assert threading.get_ident() != caller, "the caller redrew a prefetched block"
        real(begin, steps, out, *buffers)

    monkeypatch.setattr(rng_module, "_box_muller_into", helper_only)
    assert s.normals(n).tobytes() == box_muller_reference(21, 0, n).tobytes()
    assert s.counter == 2 * n
    assert pending() is None


def test_windows_stay_on_the_caller_and_keep_a_prefetch(monkeypatch):
    # a window job is never posted: with the helper allowed and a draw
    # pending, the caller computes every window block, and the pending draw
    # is still taken by its matching normals call
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    n = 5 * _NORMAL_BLOCK + 3
    RngStream(21).prefetch_normals(n)
    job = pending()
    assert wait_until(lambda: job.next == job.stop and not job.busy)
    caller = threading.get_ident()
    blocks = []
    real = rng_module._box_muller_into

    def record(begin, steps, out, *buffers):
        blocks.append((threading.get_ident() == caller, out.size))
        real(begin, steps, out, *buffers)

    monkeypatch.setattr(rng_module, "_box_muller_into", record)
    m, cols, width = 200, 150, 100  # the first window's 20,000 normals span two blocks
    want = box_muller_reference(22, 0, m * cols).reshape(m, cols)
    s = RngStream(22)
    for c0, got in s._windows(m, cols, width, True):
        assert got.tobytes() == np.ascontiguousarray(want[:, c0:c0 + width]).tobytes()
    assert s.counter == 2 * m * cols
    assert sorted(blocks) == [(True, 20_000 - _NORMAL_BLOCK), (True, 10_000), (True, _NORMAL_BLOCK)]
    assert pending() is job
    blocks.clear()
    assert RngStream(21).normals(n).tobytes() == box_muller_reference(21, 0, n).tobytes()
    assert blocks == []  # taken, not drawn again
    assert pending() is None


@pytest.mark.parametrize("finished", [False, True], ids=["mid-draw", "finished"])
@pytest.mark.parametrize("release", ["other size", "other stream", "stream moved on",
                                     "serial draw", "new prefetch", "cancel"])
def test_unclaimed_prefetch_is_released(monkeypatch, release, finished):
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    n = 6 * _NORMAL_BLOCK
    s = RngStream(31)
    s.prefetch_normals(n)
    job = pending()
    array = weakref.ref(job.out)
    if finished:  # the helper has computed every block and waits
        assert wait_until(lambda: job.next == job.stop and not job.busy)
    del job

    def draw(stream, seed, size):  # a draw that does not take the prefetch
        c = stream.counter
        assert stream.normals(size).tobytes() == box_muller_reference(seed, c, size).tobytes()

    if release == "other size":
        draw(s, 31, n - 1)
    elif release == "other stream":
        draw(RngStream(32), 32, n)
    elif release == "stream moved on":
        s.uint64s(1)  # draws other than normals leave the prefetch pending
        assert array() is not None
        draw(s, 31, n)
    elif release == "serial draw":
        draw(RngStream(32), 32, 3)
    elif release == "new prefetch":
        RngStream(32).prefetch_normals(n)
    else:
        rng_module.cancel_prefetch()
    assert wait_until(lambda: array() is None, 10.0), "the dropped draw is still alive"
    # the dropped draw changes no later draw's bytes or counter
    c = s.counter
    draw(s, 31, n)
    assert s.counter == c + 2 * n
    assert pending() is None


def test_helper_failure_in_a_prefetched_draw(monkeypatch):
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    real = rng_module._box_muller_into
    failed = threading.Event()

    def fail_once_in_helper(begin, steps, out, *buffers):
        if threading.get_ident() != caller and not failed.is_set():
            failed.set()
            raise RuntimeError("block failed")
        real(begin, steps, out, *buffers)

    monkeypatch.setattr(rng_module, "_box_muller_into", fail_once_in_helper)
    caller = None
    n = _SPLIT_MIN + 9

    def draws():
        nonlocal caller
        caller = threading.get_ident()
        s = RngStream(41)
        s.prefetch_normals(n)
        assert failed.wait(30.0)
        with pytest.raises(RuntimeError, match="block failed"):
            s.normals(n)
        assert s.counter == 2 * n
        s.prefetch_normals(n)  # the helper outlived its failure
        assert s.normals(n).tobytes() == box_muller_reference(41, 2 * n, n).tobytes()

    run_in_thread(draws)
    assert pending() is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_draws_the_same_normals(monkeypatch):
    # The child starts with a fresh helper and nothing pending: it draws
    # both streams on a helper of its own, and the parent's pending
    # prefetch is still the parent's to join.
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    n = 5 * _NORMAL_BLOCK + 3
    first = RngStream(5).normals(n)  # starts the helper
    second = RngStream(6)
    second.prefetch_normals(n)
    tag = pending().tag
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report through the pipe only
        try:
            os.close(read)
            signal.alarm(60)  # a hang ends the child, and the parent reads too little
            digests = [str(pending() is None)]
            digests += [hashlib.sha256(RngStream(seed).normals(n)).hexdigest() for seed in (5, 6)]
            os.write(write, " ".join(digests).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        got = fh.read().decode().split()
    os.waitpid(pid, 0)
    assert pending().tag == tag and not pending().joined
    want = [hashlib.sha256(first).hexdigest(), hashlib.sha256(second.normals(n)).hexdigest()]
    assert pending() is None  # the parent's draw took its prefetch
    assert got == ["True"] + want
    assert want[1] == hashlib.sha256(box_muller_reference(6, 0, n)).hexdigest()


def test_a_helper_that_cannot_start_leaves_the_caller_to_draw(monkeypatch):
    n = _SPLIT_MIN + 5
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 1)
    s = RngStream(8)
    want = [s.normals(n).tobytes(), s.normals(n).tobytes()]
    monkeypatch.setattr(rng_module, "_usable_cpus", lambda: 2)
    helper = rng_module._Helper()
    monkeypatch.setattr(rng_module, "_helper", helper)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    s = RngStream(8)
    assert s.normals(n).tobytes() == want[0]
    assert not helper._started
    s.prefetch_normals(n)  # nothing to post it to: no draw is left pending
    assert pending() is None
    rng_module.cancel_prefetch()
    assert s.normals(n).tobytes() == want[1]
    assert not helper._started


def test_importing_the_cli_starts_no_thread():
    code = ("import sys, threading\n"
            "before = threading.active_count()\n"
            "import sdcs.cli\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_choose_indices_uniform_singletons():
    rng = RngStream(23)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[rng.choose_indices(4, 1)[0]] += 1
    assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)


def test_label_types():
    s = RngStream(1)
    assert s.substream(b"raw").key != s.substream("raw").key
    with pytest.raises(TypeError):
        s.substream(3.5)


def decode_label(data: bytes):
    """Parse an encoded substream label back into the label (sequences as tuples)."""

    def parse(data: bytes):
        tag, data = data[:2], data[2:]
        if tag == b"t:":
            items = []
            if data[:1] == b";":
                return (), data[1:]
            while True:
                item, data = parse(data)
                items.append(item)
                sep, data = data[:1], data[1:]
                if sep == b";":
                    return tuple(items), data
                assert sep == b",", "tuple items must be separated by ','"
        payload, i = bytearray(), 0
        while i < len(data) and data[i:i + 1] not in (b",", b";"):
            i += data[i:i + 1] == b"\\"  # an escaped byte is taken literally
            payload += data[i:i + 1]
            i += 1
        value = {b"b:": bytes, b"s:": lambda p: p.decode("utf-8"), b"i:": int}[tag](bytes(payload))
        return value, data[i:]

    label, rest = parse(data)
    assert rest == b"", "trailing bytes after the label"
    return label


def unescaped_encoding(label) -> bytes:
    """The label encoding without escapes, for labels free of '\\', ',' and ';'."""
    if isinstance(label, bytes):
        return b"b:" + label
    if isinstance(label, str):
        return b"s:" + label.encode("utf-8")
    if isinstance(label, int):
        return b"i:" + str(label).encode("ascii")
    return b"t:" + b",".join(unescaped_encoding(x) for x in label) + b";"


def plain(label) -> bool:
    if isinstance(label, tuple):
        return all(plain(x) for x in label)
    if isinstance(label, int):
        return True
    raw = label.encode("utf-8") if isinstance(label, str) else label
    return not any(ch in raw for ch in b"\\,;")


SYNTAX = st.text("ab,;\\:it", max_size=6)
labels = st.recursive(
    st.one_of(SYNTAX, SYNTAX.map(str.encode), st.integers(-(2**70), 2**70)),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(labels)
@example(("a", "b"))
@example(("a,s:b",))
@example(("sweep", 100, 3))
@example(("sweep,i:100", 3))
@example(("a\\", "b"))
@example((b"x;", (), ("",)))
def test_label_encoding_is_injective_and_keeps_plain_labels(label):
    # a left inverse proves that distinct labels never share an encoding
    # (and so never share a stream unless the 64-bit hash collides)
    enc = _encode_label(label)
    assert decode_label(enc) == label
    # every label the package uses is plain: its bytes, and so its stream,
    # are those of the unescaped encoding
    if plain(label):
        assert enc == unescaped_encoding(label)


def test_label_collisions_fixed_and_plain_keys_pinned():
    s = RngStream(1)
    assert s.substream(("a", "b")).key != s.substream(("a,s:b",)).key
    assert s.substream(("sweep", 100, 3)).key != s.substream(("sweep,i:100", 3)).key
    assert RngStream(7).substream(("sweep", 100, 3)).key == 0x069D68D53E75CEE6
    assert derive_seed(20240, ("sweep", 100, 0)) == 16450368342833144511
