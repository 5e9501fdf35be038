"""Restricted isometry constant estimation and projection diagnostics.

The order-s constant of a matrix A is the smallest delta with
(1 - delta) <= ||A_T x||^2 / ||x||^2 <= (1 + delta) over all supports T of
size s, i.e. the worst extreme-eigenvalue deviation of the support Gram
matrices G_T from 1.  Exact computation enumerates supports (exponential in
s, capped); the Monte Carlo variant maximizes over sampled supports and
therefore never exceeds the exact value.

RIC pruning.  This docstring is its one description.  Both scans enter
through _gram, which checks the input and forms G = A^T A and the floor g
below, and run one solve step (_solve) that solves with eigvalsh only the
supports that can set the maximum.  It rests on two tests and on one rule
for the lower side, all about the computed G, which need not be positive
semidefinite.

- Gram rounding.  fl(A^T A) = A^T A + E with |E| <= gamma_m |A|^T |A| in
  any summation order (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., (3.13)), so lambda_min(G_T) >= -||E_T||_2 >=
  -gamma_m sum_{i in T} ||a_i||^2.  Each computed G_ii, a sum of squares,
  is at least (1 - gamma_m) ||a_i||^2, so g = m eps S, S the computed sum
  of the s largest G_ii, bounds that term for every support: m u < 1/100
  for any m that fits in memory, and 2 m u S covers gamma_m / (1 - gamma_m)
  and the rounding of S and of g.  So lambda_min(G_T) >= -g.
- Gershgorin.  A support's deviation is at most
  max(max_i R_i - 1, 1 - max(min_i (2 G_ii - R_i), -g)), with R_i the
  absolute row sums of G_T.  The step takes supports in descending order
  of that bound, _CHUNK at a time, and stops once the next bound plus a
  rounding margin is below the running maximum w.  The margin covers the
  backward error of the eigensolver and of the row sums, in any summation
  order (_MARGIN).  Past the lower-side rule the bound is its upper term.
- Cholesky.  Once w > 0, each chunk is first certified or not: one batched
  Cholesky factorization of (1 + w - mu) I - G_T and, until the lower-side
  rule holds, one of G_T - max(1 - w + mu, 0) I.  A chunk where every
  factorization runs to completion is skipped; any other goes to eigvalsh.
  At w = 0 no chunk could pass both tests, so none is tested.
- Lower side.  Once w > 1 + g + (_MARGIN s^2 + (s + 1)^2) eps (2 + w)
  (_lower_dead), no support's lower side can raise the computed maximum.
  Its Gershgorin lower term is at most 1 + g, so a support whose lower
  term exceeds its upper term top - 1 has top < 2 + g < 1 + w, a margin
  below _MARGIN s^2 eps (2 + w) and a bound, with or without the lower
  term, below w; the (s + 1)^2 part covers the rounding of these few
  steps, each monotone.  So the live supports, their bounds and their
  order are those of the full bound.  Once the upper test has passed,
  ||G_T||_2 <= max(1 + w, g) = 1 + w, so by Weyl's theorem the computed
  1 - lambda_min is at most 1 + g + _MARGIN s^2 eps (1 + w), below w too.

The margin mu = (_MARGIN s^2 + (s + 1)^2) eps (1 + w) is derived, not
fitted.  If Cholesky runs to completion on a symmetric s x s matrix M, the
computed factor R satisfies R^T R = M + dM with |dM| <= gamma_{s+1} |R^T||R|
in any summation order (Higham, Thm. 10.3), so lambda_min(M) >=
-(s + 1) eps tr(M) (Rump, BIT 46, 2006; underflow adds far less than mu
here).  The upper test factors M = c I - G_T, with c computed as
(1 + w) - mu, within eps (1 + w) of its exact value.  When M factors, each
diagonal entry c - G_ii is >= 0, so tr(M) <= s c, and lambda_max(G_T) <=
c + (s (s + 1) + 1/2) eps c, counting the rounding of each c - G_ii.  So
lambda_max(G_T) <= 1 + w - mu + (s + 1)^2 eps (1 + w), and ||G_T||_2 <=
1 + w bounds eigvalsh's error by _MARGIN s^2 eps (1 + w): the computed
largest eigenvalue is at most 1 + w.  The lower test mirrors this: its
shift max(1 - w + mu, 0) is at least 1 - w + mu, and, as it is >= 0,
tr(M) <= tr(G_T) <= s (1 + w) once the upper test has passed.  Rounding is
monotone and w is a double, so a certified support's computed deviation is
at most w.

So no skipped support could have raised the computed maximum, and the
value is bit for bit that of a scan that solves every support, in any
order.  supports_checked counts the supports covered, solved or skipped.

Only the producer of the bounds differs.  Both form row sums with one pair
loop (_row_sums) over a k x c array of index columns.  The Monte Carlo
scan passes it each block of _BLOCK sampled supports, transposed, and
solves the block.  The exact scan visits supports in colex order, grouped
by their largest index L, so each is an (s - 1)-prefix drawn from range(L)
followed by L; it forms each prefix's row sums once and shares them across
every L that extends it, and generates prefixes in bounded chunks (see
_colex_chunks).  Until w > 0 it solves each L group alone.  After that it
pools the live supports (bound >= w) of successive groups, as prefix
column, L and bound, and solves the pool once the next group would take it
past _BLOCK supports and at the end of each colex chunk.  So its chunks
are full, and the pool holds at most _BLOCK supports, as the colex chunk
holds _BLOCK prefixes.

Normalization is always the caller's job: nothing here rescales inputs,
except for projected_matrix whose 1/sqrt(ell) factor is part of its
definition.

small_ball_probe draws its columns through measurement.column_windows and
keeps only their squared projected norms; the scans take a matrix the
caller has drawn whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .difference import projected_basis
from .linalg import as_matrix
from .measurement import Ensemble, column_windows
from .rng import RngStream

ENUMERATION_CAP = 10**6
# Supports per Monte Carlo block and prefixes per exact chunk; supports per
# eigvalsh or Cholesky call.
_BLOCK = 16_384
_CHUNK = 256
# The pruning margin is _MARGIN * s^2 * eps * (max_i R_i + 1), eps the
# machine epsilon (twice the unit roundoff u).  eigvalsh is backward stable:
# it returns the exact eigenvalues of G_T + E with ||E||_2 <= p(s) u
# ||G_T||_2, p a low-degree polynomial (O(s^2) in the worst-case analysis of
# the Householder reduction), so by Weyl's theorem each computed eigenvalue
# is within p(s) u ||G_T||_2 <= p(s) u max_i R_i of the exact one.  The row
# sums, in any summation order, and the subtractions of 1 add at most
# (s + 2) u (max_i R_i + 1).  The certification margin mu uses the
# eigensolver's part, _MARGIN s^2 eps ||G_T||_2.
_MARGIN = 8.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RipEstimate:
    s: int
    value: float
    mode: str  # "exact" | "monte-carlo"
    supports_checked: int


def _gram(a, s: int, trials: int | None) -> tuple[np.ndarray, float, int]:
    """Both scans' entry: check a, s and the scan's support count, trials
    or, for trials None, every one of the comb(n, s) supports, at most
    ENUMERATION_CAP; return G = A^T A, its rounding floor g (see the module
    docstring) and that count."""
    a = as_matrix(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= {n}, got s={s}")
    total = math.comb(n, s) if trials is None else trials
    if trials is None and total > ENUMERATION_CAP:
        raise ValueError(
            f"comb({n}, {s}) = {total} supports exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; use ric_monte_carlo"
        )
    if total < 1:
        raise ValueError("trials must be >= 1")
    gram = a.T @ a
    floor = a.shape[0] * _EPS * float(np.sum(np.sort(np.diagonal(gram))[n - s:]))
    return gram, floor, total


def _lower_dead(worst: float, s: int, floor: float) -> bool:
    """Whether no support's lower side can raise the running maximum worst,
    floor the Gram rounding floor g (see the module docstring)."""
    return worst > 1.0 + floor + (_MARGIN * s * s + (s + 1) ** 2) * _EPS * (2.0 + worst)


def _bound(top: np.ndarray, low: np.ndarray | None, s: int, floor: float) -> np.ndarray:
    """Gershgorin bound on the deviation plus the pruning margin, from each
    support's largest absolute row sum top = max_i R_i and low =
    min_i (2 G_ii - R_i); the upper term alone where low is None."""
    dev = top - 1.0 if low is None else np.maximum(top - 1.0, 1.0 - np.maximum(low, -floor))
    return dev + _MARGIN * s * s * _EPS * (top + 1.0)


def _row_sums(gram: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_i over each column's own pairs, and 2 G_ii - R_i, for the k x c
    array supports, each column ascending indices."""
    lows = np.diagonal(gram)[supports]
    rows = np.abs(lows)
    pair = np.empty(supports.shape[1])
    for p, q in combinations(range(supports.shape[0]), 2):
        np.abs(gram[supports[q], supports[p]], out=pair)
        rows[p] += pair
        rows[q] += pair
    lows *= 2.0
    lows -= rows
    return rows, lows


def _deviation(gram: np.ndarray, supports: np.ndarray, worst: float, floor: float) -> float:
    """max(worst, the largest eigenvalue deviation from 1 over the support
    rows): worst itself if the chunk is certified (see the module
    docstring), else by eigvalsh.  At worst = 0 no chunk can be certified,
    so none is tested."""
    n = gram.shape[0]
    subs = gram.ravel().take(supports[:, :, None] * n + supports[:, None, :])
    if worst > 0.0 and _certified(subs, worst, floor):
        return worst
    w = np.linalg.eigvalsh(subs)
    return max(worst, float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]))))


def _factors(mats: np.ndarray) -> bool:
    """Whether Cholesky runs to completion on every matrix of mats."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified(subs: np.ndarray, worst: float, floor: float) -> bool:
    """Whether Cholesky certifies that no s x s matrix of subs has a
    computed deviation above worst (see the module docstring)."""
    s = subs.shape[-1]
    mu = (_MARGIN * s * s + (s + 1) ** 2) * _EPS * (1.0 + worst)
    diag = np.arange(s)
    mats = -subs
    mats[:, diag, diag] += 1.0 + worst - mu
    if not _factors(mats):
        return False
    if _lower_dead(worst, s, floor):
        return True
    np.copyto(mats, subs)
    mats[:, diag, diag] -= max(1.0 - worst + mu, 0.0)
    return _factors(mats)


def _solve(gram: np.ndarray, bound: np.ndarray, supports, worst: float, floor: float) -> float:
    """max(worst, the worst eigenvalue deviation from 1 over a block).

    supports(idx) returns the block's supports idx as rows of ascending
    indices.  Supports are taken _CHUNK at a time in descending order of
    bound, until the next bound is below the running maximum, and each
    chunk is certified or solved; see the module docstring.
    """
    live = np.flatnonzero(bound >= worst)
    live = live[np.argsort(bound[live])[::-1]]
    for lo in range(0, live.size, _CHUNK):
        chunk = live[lo:lo + _CHUNK]
        if bound[chunk[0]] < worst:
            break
        worst = _deviation(gram, supports(chunk), worst, floor)
    return worst


def _colex_chunks(n: int, s: int):
    """Every s-subset of range(n) once, in chunks that share (s-1)-prefixes.

    Yields (prefixes, extensions).  The columns of the (s - 1) x c array
    prefixes are at most _BLOCK consecutive (s - 1)-subsets of range(n - 1)
    in colex order, each ascending; the next chunk overwrites the array.
    extensions lists (L, count) with L descending: the chunk's supports with
    largest index L are its first count prefixes followed by L.  This works
    because the (s - 1)-subsets of range(L) are exactly the first
    comb(L, s - 1) in colex order.  Prefixes are unranked in the
    combinatorial number system: the colex rank of c_1 < ... < c_k is the
    sum of comb(c_i, i).
    """
    k = s - 1
    total = math.comb(n - 1, k)
    # table[i - 1][c] = comb(c, i) for c < n - 1 (a running sum of row
    # i - 1), capped at total: no rank reaches it, so the searches agree.
    table = []
    col = np.ones(n - 1, dtype=np.int64)
    for _ in range(k):
        col = np.minimum(np.concatenate(([0], np.cumsum(col[:-1]))), total)
        table.append(col)
    buffer = np.empty((k, min(total, _BLOCK)), dtype=np.intp)
    for lo in range(0, total, _BLOCK):
        hi = min(total, lo + _BLOCK)
        rank = np.arange(lo, hi)
        prefixes = buffer[:, :hi - lo]
        for i in range(k, 0, -1):
            prefixes[i - 1] = np.searchsorted(table[i - 1], rank, side="right") - 1
            rank -= table[i - 1][prefixes[i - 1]]
        del rank  # not held while the chunk is scanned
        extensions = []
        for last in range(n - 1, k - 1, -1):
            count = min(hi, math.comb(last, k)) - lo
            if count <= 0:
                break
            extensions.append((last, count))
        yield prefixes, extensions


def _extension_live(gram: np.ndarray, prefixes: np.ndarray, rows: np.ndarray,
                    lows: np.ndarray, last: int, count: int, worst: float, floor: float,
                    col: np.ndarray, tmp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live supports of a colex chunk with largest index last, as their
    prefix columns and their _bound values (bound >= worst).

    The supports are the first count prefixes, each followed by last; rows
    and lows hold each prefix column's _row_sums, and col and tmp are
    scratch.  A support adds the column of last, by s - 1 one-dimensional
    takes from row last of G (its lower triangle, which eigvalsh reads).
    Past the lower-side rule (_lower_dead) the lower term is not formed.
    """
    s = prefixes.shape[0] + 1
    diag = np.diagonal(gram)
    row = np.abs(gram[last])
    rlast = np.full(count, abs(diag[last]))
    top = np.zeros(count)
    low = None if _lower_dead(worst, s, floor) else np.full(count, np.inf)
    for i in range(s - 1):
        v = row.take(prefixes[i, :count], out=col[:count])
        rlast += v
        np.maximum(top, np.add(rows[i, :count], v, out=tmp[:count]), out=top)
        if low is not None:
            np.minimum(low, np.subtract(lows[i, :count], v, out=tmp[:count]), out=low)
    np.maximum(top, rlast, out=top)
    if low is not None:
        np.minimum(low, 2.0 * diag[last] - rlast, out=low)
    bound = _bound(top, low, s, floor)
    live = np.flatnonzero(bound >= worst)
    return live, bound[live]


def _solve_pool(gram: np.ndarray, prefixes: np.ndarray, pool: list, worst: float,
                floor: float) -> float:
    """_solve over pooled (last, prefix columns, bounds) groups of one colex
    chunk's supports; empties pool."""
    if not pool:
        return worst
    lasts = np.array([last for last, _, _ in pool])
    ends = np.cumsum([c.size for _, c, _ in pool])
    cols = np.concatenate([c for _, c, _ in pool])
    bound = np.concatenate([b for _, _, b in pool])
    pool.clear()

    def supports(idx):
        t = np.empty((idx.size, prefixes.shape[0] + 1), dtype=np.intp)
        t[:, :-1] = prefixes[:, cols[idx]].T
        t[:, -1] = lasts[np.searchsorted(ends, idx, side="right")]
        return t

    return _solve(gram, bound, supports, worst, floor)


def _scan_chunk(gram: np.ndarray, prefixes: np.ndarray, extensions, worst: float,
                floor: float) -> float:
    """max(worst, the worst deviation over one chunk of _colex_chunks).

    Each prefix's row sums over its own pairs are formed once and shared by
    every L that extends it (_extension_live); the live supports of the L
    groups are pooled as the module docstring describes.
    """
    rows, lows = _row_sums(gram, prefixes)
    col, tmp = np.empty(prefixes.shape[1]), np.empty(prefixes.shape[1])
    pool, pooled = [], 0
    for last, count in extensions:
        live, bound = _extension_live(gram, prefixes, rows, lows, last, count, worst, floor, col, tmp)
        if pooled + live.size > _BLOCK:
            worst, pooled = _solve_pool(gram, prefixes, pool, worst, floor), 0
        pool.append((last, live, bound))
        pooled += live.size
        if worst == 0.0:
            worst, pooled = _solve_pool(gram, prefixes, pool, worst, floor), 0
    return _solve_pool(gram, prefixes, pool, worst, floor)


def ric_exact(a, s: int) -> RipEstimate:
    """Exact restricted isometry constant by support enumeration.

    Supports are visited in the chunks of _colex_chunks, largest index
    descending within a chunk, with the running maximum carried between
    them.  Raises when the support count exceeds ENUMERATION_CAP; use
    ric_monte_carlo instead for such instances.
    """
    gram, floor, total = _gram(a, s, None)
    worst = 0.0
    for prefixes, extensions in _colex_chunks(gram.shape[0], s):
        worst = _scan_chunk(gram, prefixes, extensions, worst, floor)
    return RipEstimate(s=s, value=worst, mode="exact", supports_checked=total)


def ric_monte_carlo(a, s: int, trials: int, rng: RngStream) -> RipEstimate:
    """Lower bound on the constant from uniformly sampled supports."""
    gram, floor, trials = _gram(a, s, trials)
    worst = 0.0
    for done in range(0, trials, _BLOCK):
        block = rng.choose_index_rows(min(_BLOCK, trials - done), gram.shape[0], s)
        rows, lows = _row_sums(gram, block.T)
        low = None if _lower_dead(worst, s, floor) else np.min(lows, axis=0)
        bound = _bound(np.max(rows, axis=0), low, s, floor)
        worst = _solve(gram, bound, block.__getitem__, worst, floor)
    return RipEstimate(s=s, value=worst, mode="monte-carlo", supports_checked=trials)


def projected_matrix(phi, r: int, ell: int) -> np.ndarray:
    """The ell x N matrix (1/sqrt(ell)) * (first ell projection rows) @ phi."""
    phi = as_matrix(phi, "phi")
    return (projected_basis(phi.shape[0], r, ell) @ phi) / math.sqrt(ell)


@dataclass(frozen=True)
class SmallBallSummary:
    """Empirical distribution of squared projected column norms, with its
    quantiles at the levels 0.01, 0.05, 0.10, 0.25 and 0.50."""

    ell: int
    trials: int
    mean: float
    quantiles: np.ndarray


_LEVELS = (0.01, 0.05, 0.10, 0.25, 0.50)


def small_ball_probe(
    ensemble: Ensemble,
    m: int,
    r: int,
    ell: int,
    trials: int,
    rng: RngStream,
) -> SmallBallSummary:
    """Sample ||projection @ column||^2 over independent ensemble columns.

    A healthy ensemble keeps the lower quantiles well away from zero;
    for entrywise-independent unit-variance ensembles the mean is ell.
    The columns are sample_matrix(ensemble, m, trials, rng)'s, drawn and
    projected a window at a time (column_windows), so the probe holds the
    trials squared norms and one window, not m * trials doubles.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w = projected_basis(m, r, ell)
    sq = np.empty(trials)
    for c0, window in column_windows(ensemble, m, trials, rng):
        proj = w @ window
        np.einsum("ij,ij->j", proj, proj, out=sq[c0:c0 + window.shape[1]])
    return SmallBallSummary(
        ell=ell,
        trials=trials,
        mean=float(np.mean(sq)),
        quantiles=np.quantile(sq, _LEVELS),
    )
