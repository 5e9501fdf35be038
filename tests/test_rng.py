import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdcs.rng as rng_module
from oracles import choose_indices_reference, randbelow_reference
from sdcs.rng import _NORMAL_BLOCK, RngStream, _encode_label, derive_seed

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
    # one-shot Box-Muller over the same raw draws
    oracle = RngStream(seed)
    oracle.uint64s(c)
    raw = oracle.uint64s(2 * (a + b))
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    want = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    assert whole.tobytes() == want.tobytes()


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
