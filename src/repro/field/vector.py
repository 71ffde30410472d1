"""Vectorized Goldilocks-64 arithmetic on numpy uint64 arrays.

These kernels are the software analogue of NoCap's 2,048-lane modular
add/multiply functional units: element-wise operations over vectors of
64-bit residues, using only 64-bit integer operations plus the Goldilocks
reduction (adds, shifts, and conditional corrections) — exactly the
structure the paper exploits in hardware (Sec. IV-A).

All functions accept and return arrays in canonical form (values < p) with
dtype ``uint64``.  Scalars may be passed wherever an array is accepted.
"""

from __future__ import annotations

import threading

import numpy as np

from .goldilocks import MODULUS
from ..obs.metrics import METRICS as _METRICS

import functools


def _wrapping(fn):
    """Run ``fn`` with numpy overflow warnings suppressed.

    The kernels rely on 64-bit wraparound; numpy warns on overflow for
    0-d/scalar operands, so each kernel scopes the suppression to itself.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return wrapper

_P = np.uint64(MODULUS)
_MASK32 = np.uint64(0xFFFFFFFF)
_EPS = np.uint64(0xFFFFFFFF)  # 2^64 mod p = 2^32 - 1
_SHIFT32 = np.uint64(32)
_ZERO = np.uint64(0)
_ONE = np.uint64(1)

#: On little-endian hosts a uint64 array reinterpreted as uint32 pairs puts
#: the low halves at even offsets — split-accumulate reductions can then
#: read the halves through strided views instead of materializing mask and
#: shift temporaries.
_LE = bool(np.little_endian)


def halves(a: np.ndarray):
    """(low, high) 32-bit halves of a 1-D uint64 array, as cheap views when
    the byte order allows, else as mask/shift copies."""
    if _LE and a.flags["C_CONTIGUOUS"]:
        pairs = a.view(np.uint32)
        return pairs[0::2], pairs[1::2]
    return a & _MASK32, a >> _SHIFT32


def asfield(values: "Sequence[int] | np.ndarray | int") -> np.ndarray:
    """Coerce Python ints / sequences / arrays into canonical uint64 residues."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        arr = values
    else:
        if np.isscalar(values):
            values = [values]
        arr = np.array([int(v) % MODULUS for v in np.asarray(values, dtype=object).ravel()],
                       dtype=np.uint64)
    # Canonicalize any values >= p (one subtract suffices: 2^64 - 1 < 2p).
    over = arr >= _P
    if over.any():
        arr = np.where(over, arr - _P, arr)
    return arr


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.uint64)


def ones(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.uint64)


def full(n: int, value: int) -> np.ndarray:
    return np.full(n, np.uint64(value % MODULUS), dtype=np.uint64)


@_wrapping
def rand_vector(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Sample n uniform field elements."""
    g = rng or np.random.default_rng()
    # Rejection-free: 2^64 mod p = 2^32-1 values map onto [0, 2^32-1); the
    # bias is ~2^-32 per element, negligible for tests and benchmarks.
    raw = g.integers(0, 1 << 63, size=n, dtype=np.uint64) << _ONE
    raw |= g.integers(0, 2, size=n, dtype=np.uint64)
    return np.where(raw >= _P, raw - _P, raw)


@_wrapping
def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise (a + b) mod p.

    Branch-free: ``np.where`` runs a masked inner loop that is ~10x slower
    than a plain arithmetic pass, so both carry corrections are applied by
    multiplying the carry bits (as uint64) into the correction constants.
    A 64-bit wraparound contributes +2^64 = +(2^32 - 1) mod p; one
    conditional subtract of p then canonicalizes everything.  Exact even
    when ONE operand is a non-canonical representative < 2^64 (e.g. a
    ``mul(..., canonical=False)`` result); both sides non-canonical could
    double-wrap.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b
    over = (s < a).astype(np.uint64)
    over *= _EPS
    s += over
    exceeds = (s >= _P).astype(np.uint64)
    exceeds *= _P
    s -= exceeds
    return s


@_wrapping
def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise (a - b) mod p (branch-free, see :func:`add`)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    d = a - b
    borrow = (a < b).astype(np.uint64)
    borrow *= _EPS
    d -= borrow
    return d


def neg(a: np.ndarray) -> np.ndarray:
    """Element-wise -a mod p."""
    a = np.asarray(a, dtype=np.uint64)
    return np.where(a == _ZERO, _ZERO, _P - a)


#: Tile length for the blocked multiply kernel: all ~10 scratch vectors of
#: one tile (8 bytes each) fit comfortably in the L2 cache, so every pass
#: over a tile reads warm lines instead of streaming the whole operand
#: through DRAM.  This mirrors how NoCap's 2,048-lane mul FU consumes
#: register-file tiles rather than whole vectors (Sec. IV-A).
_TILE = 16384

#: Reusable per-tile scratch, one set per thread: the proving service
#: runs jobs on concurrent threads, and a shared set lets one thread's
#: tile overwrite another's mid-multiply.
_MUL_SCRATCH = threading.local()


def _mul_scratch() -> list:
    bufs = getattr(_MUL_SCRATCH, "bufs", None)
    if bufs is None:
        bufs = _MUL_SCRATCH.bufs = [np.empty(_TILE, dtype=np.uint64)
                                    for _ in range(10)]
    return bufs


def _mul_tiles(x: np.ndarray, y, out: np.ndarray,
               canonical: bool = True, addend: np.ndarray | None = None) -> None:
    """Tiled branch-free Goldilocks multiply: out[i] = x[i] * y[i] mod p.

    ``x`` and ``out`` are 1-D contiguous uint64; ``y`` is either the same
    or a 0-d uint64 scalar (broadcast across the tile).  The 128-bit
    product is assembled from four 32x32->64 partial products; the high
    word is folded in via 2^64 = 2^32 - 1 (mod p) and 2^96 = -1 (mod p).
    Every step writes into preallocated tile scratch — no allocations, no
    ``np.where`` (whose masked inner loop is ~10x a plain pass); carry
    bits land directly in uint64 scratch (comparison ufuncs with an
    unsafe-cast ``out``) and are folded in arithmetically.

    ``addend`` (canonical-mode only) fuses out[i] = addend[i] + x[i]*y[i]
    mod p into the same tile pass while the product is still cache-warm —
    the sumcheck fold's multiply-accumulate.  Any uint64 addend is
    accepted (the add corrects one 2^64 wrap, and the sum is < 2p after
    it, so a single conditional subtract canonicalizes).
    """
    y_scalar = np.ndim(y) == 0
    if y_scalar:
        b_lo_s = y & _MASK32
        b_hi_s = y >> _SHIFT32
    scratch = _mul_scratch()
    for start in range(0, len(x), _TILE):
        end = min(start + _TILE, len(x))
        m = end - start
        al, ah, bl, bh, t0, t1, t2, t3, tc, td = [s[:m] for s in scratch]
        xa = x[start:end]
        np.bitwise_and(xa, _MASK32, out=al)
        np.right_shift(xa, _SHIFT32, out=ah)
        if y_scalar:
            bl, bh = b_lo_s, b_hi_s
        else:
            ya = y[start:end]
            np.bitwise_and(ya, _MASK32, out=bl)
            np.right_shift(ya, _SHIFT32, out=bh)
        np.multiply(al, bh, out=t0)                 # lh
        np.multiply(ah, bl, out=t1)                 # hl
        np.add(t0, t1, out=t1)                      # mid (may wrap)
        np.less(t1, t0, out=tc, casting="unsafe")   # mid carry (as uint64)
        np.multiply(al, bl, out=t2)                 # ll
        np.left_shift(t1, _SHIFT32, out=t0)
        np.add(t2, t0, out=t0)                      # lo (may wrap)
        np.less(t0, t2, out=td, casting="unsafe")   # lo carry (as uint64)
        np.multiply(ah, bh, out=t3)                 # hh
        np.right_shift(t1, _SHIFT32, out=t1)
        np.add(t3, t1, out=t3)                      # hi = hh + mid>>32
        np.left_shift(tc, _SHIFT32, out=tc)
        np.add(t3, tc, out=t3)                      # + mid_carry * 2^32
        np.add(t3, td, out=t3)                      # + lo_carry
        # Reduce t3 * 2^64 + t0 mod p.
        np.bitwise_and(t3, _MASK32, out=t1)         # hi_lo
        np.right_shift(t3, _SHIFT32, out=t3)        # hi_hi
        np.less(t0, t3, out=tc, casting="unsafe")   # borrow: -2^64 = -(2^32-1)
        np.subtract(t0, t3, out=t0)                 # t = lo - hi_hi
        np.multiply(tc, _EPS, out=tc)
        np.subtract(t0, tc, out=t0)
        np.left_shift(t1, _SHIFT32, out=t2)
        np.subtract(t2, t1, out=t2)                 # hi_lo * (2^32 - 1)
        np.add(t0, t2, out=t2)                      # t2 = t + add_term
        np.less(t2, t0, out=tc, casting="unsafe")   # carry
        np.multiply(tc, _EPS, out=tc)
        if canonical:
            np.add(t2, tc, out=t2)
            np.less_equal(_P, t2, out=tc, casting="unsafe")  # conditional -p
            np.multiply(tc, _P, out=tc)
            if addend is None:
                np.subtract(t2, tc, out=out[start:end])
            else:
                np.subtract(t2, tc, out=t2)          # canonical product
                np.add(t2, addend[start:end], out=t0)
                np.less(t0, t2, out=tc, casting="unsafe")  # 2^64 wrap
                np.multiply(tc, _EPS, out=tc)
                np.add(t0, tc, out=t0)
                np.less_equal(_P, t0, out=tc, casting="unsafe")
                np.multiply(tc, _P, out=tc)
                np.subtract(t0, tc, out=out[start:end])
        else:
            # Caller accepts any uint64 representative (mod p): skip the
            # final conditional subtract of p.
            np.add(t2, tc, out=out[start:end])


@_wrapping
def mul(a: np.ndarray, b: np.ndarray, canonical: bool = True) -> np.ndarray:
    """Element-wise (a * b) mod p using the Goldilocks 128-bit reduction.

    Dispatches to the tiled branch-free kernel (:func:`_mul_tiles`);
    broadcasting operands are materialized first so the kernel only ever
    sees equal-length contiguous vectors (or a true scalar second operand).

    The kernel is exact for ANY uint64 inputs (not just canonical ones).
    ``canonical=False`` skips the output's final conditional subtract of p,
    returning a representative < 2^64 — valid only when the result feeds a
    consumer that tolerates it (``vsum``, another ``mul``, the
    split-accumulate reductions), never ``add``/``sub``-style kernels that
    assume operands < p.
    """
    _METRICS.inc("field.mul_batches")
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim == 0 and b.ndim == 0:
        return np.uint64(int(a) * int(b) % MODULUS)
    if b.ndim == 0:
        vec = a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)
        other = np.uint64(b)
    elif a.ndim == 0:
        vec = b if b.flags["C_CONTIGUOUS"] else np.ascontiguousarray(b)
        other = np.uint64(a)
    elif a.shape == b.shape:
        vec = a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)
        other = b if b.flags["C_CONTIGUOUS"] else np.ascontiguousarray(b)
    else:
        shape = np.broadcast_shapes(a.shape, b.shape)
        vec = np.ascontiguousarray(np.broadcast_to(a, shape))
        other = np.ascontiguousarray(np.broadcast_to(b, shape))
    out = np.empty(vec.shape, dtype=np.uint64)
    _mul_tiles(vec.ravel(), other if np.ndim(other) == 0 else other.ravel(),
               out.ravel(), canonical)
    return out


def mul_scalar(a: np.ndarray, s: int, canonical: bool = True) -> np.ndarray:
    """Multiply a vector by a scalar field element.

    ``canonical=False`` has :func:`mul` semantics: the result is any uint64
    representative, valid when the consumer tolerates values >= p (one
    operand of :func:`add`, ``vsum``, another ``mul``)."""
    return mul(a, np.uint64(s % MODULUS), canonical)


@_wrapping
def scale_add(base: np.ndarray, diff: np.ndarray, s: int) -> np.ndarray:
    """Fused (base + s * diff) mod p — the sumcheck fold's multiply-accumulate.

    One tiled pass: the scalar product is formed and the addend folded in
    while the tile is still in cache, instead of writing the product out
    and streaming it back through :func:`add`.  ``base`` may be any uint64
    representative; the result is canonical.
    """
    _METRICS.inc("field.scale_add_batches")
    base = np.asarray(base, dtype=np.uint64)
    diff = np.asarray(diff, dtype=np.uint64)
    if base.shape != diff.shape or base.ndim == 0:
        return add(base, mul(diff, np.uint64(int(s) % MODULUS)))
    if not base.flags["C_CONTIGUOUS"]:
        base = np.ascontiguousarray(base)
    if not diff.flags["C_CONTIGUOUS"]:
        diff = np.ascontiguousarray(diff)
    out = np.empty(base.shape, dtype=np.uint64)
    _mul_tiles(diff.ravel(), np.uint64(int(s) % MODULUS), out.ravel(),
               canonical=True, addend=base.ravel())
    return out


@_wrapping
def combine_halves(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact (lo + hi * 2^32) mod p for ANY uint64 inputs.

    The recombine step of every split-accumulate reduction (``vsum``,
    SpMV's segmented sums).  hi * 2^32 never needs a general multiply:
    with hi = hh * 2^32 + hl, it equals hl * 2^32 + hh * 2^64, and
    2^64 = 2^32 - 1 (mod p), so the whole combine is shifts and adds —
    about a third of the passes of :func:`mul`.
    """
    lo = np.asarray(lo, dtype=np.uint64)
    hi = np.asarray(hi, dtype=np.uint64)
    hl = hi & _MASK32
    hh = hi >> _SHIFT32
    hl <<= _SHIFT32                                 # hl * 2^32 < 2^64
    s = lo + hl
    carry = np.empty_like(s)
    np.less(s, hl, out=carry, casting="unsafe")     # 2^64 wrap
    np.left_shift(hh, _SHIFT32, out=hl)             # reuse: hh * 2^32
    hl -= hh                                        # hh * (2^32 - 1) < 2^64
    s += hl
    np.less(s, hl, out=hh, casting="unsafe")        # second wrap
    carry += hh
    carry *= _EPS                                   # total wrap credit < 2^33
    s += carry
    np.less(s, carry, out=hh, casting="unsafe")     # rare third wrap
    hh *= _EPS
    s += hh
    np.less_equal(_P, s, out=hh, casting="unsafe")  # s < 2p: one subtract
    hh *= _P
    s -= hh
    return s


def dot(a: np.ndarray, b: np.ndarray) -> int:
    """Inner product <a, b> in GF(p), returned as a Python int."""
    prods = mul(a, b)
    return vsum(prods)


@_wrapping
def vsum(a: np.ndarray) -> int:
    """Sum of all elements mod p (exact split-accumulate kernel).

    The 32-bit halves of each element are accumulated separately in uint64
    (exact for up to 2^32 terms — the same trick as ``SparseMatrix.matvec``)
    and recombined in Python-int arithmetic, avoiding the object-dtype
    reduction entirely.
    """
    a = np.asarray(a, dtype=np.uint64).ravel()
    if a.size == 0:
        return 0
    if a.size >= (1 << 32):  # keep the uint64 half-sums exact
        return sum(vsum(chunk) for chunk in
                   np.array_split(a, 1 + a.size // (1 << 31))) % MODULUS
    lo_half, hi_half = halves(a)
    lo = int(np.add.reduce(lo_half, dtype=np.uint64))
    hi = int(np.add.reduce(hi_half, dtype=np.uint64))
    return (lo + (hi << 32)) % MODULUS


@_wrapping
def pow_vector(a: np.ndarray, e: int) -> np.ndarray:
    """Element-wise a^e mod p via square-and-multiply."""
    a = np.asarray(a, dtype=np.uint64)
    result = np.ones_like(a)
    base = a.copy()
    while e > 0:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def _scan_products(a: np.ndarray) -> np.ndarray:
    """Inclusive prefix products of ``a`` via a Hillis-Steele doubling scan.

    O(n log n) multiplies, but every pass is one vectorized ``mul`` — much
    faster than the O(n) Python loop it replaces.
    """
    out = a.copy()
    shift = 1
    n = len(out)
    while shift < n:
        out[shift:] = mul(out[shift:], out[:-shift])
        shift <<= 1
    return out


@_wrapping
def inv_vector(a: np.ndarray) -> np.ndarray:
    """Element-wise inverse via batch inversion (one modular exponentiation).

    inv(a[i]) = (prod_{j<i} a_j) * (prod_{j>i} a_j) * (prod_j a_j)^-1, with
    both exclusive products built from vectorized doubling scans.

    Raises ZeroDivisionError if any element is zero.
    """
    a = np.asarray(a, dtype=np.uint64)
    if (a == _ZERO).any():
        raise ZeroDivisionError("inverse of zero in GF(p)")
    n = len(a)
    if n == 0:
        return a.copy()
    prefix = _scan_products(a)
    suffix = _scan_products(a[::-1])[::-1]
    exc_prefix = np.empty_like(prefix)
    exc_prefix[0] = _ONE
    exc_prefix[1:] = prefix[:-1]
    exc_suffix = np.empty_like(suffix)
    exc_suffix[-1] = _ONE
    exc_suffix[:-1] = suffix[1:]
    total_inv = np.uint64(pow(int(prefix[-1]), MODULUS - 2, MODULUS))
    return mul(mul(exc_prefix, exc_suffix), total_inv)


def powers(base: int, n: int) -> np.ndarray:
    """Return [1, base, base^2, ..., base^(n-1)] (vectorized doubling)."""
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    out[0] = 1
    b = base % MODULUS
    filled, step = 1, b
    while filled < n:
        take = min(filled, n - filled)
        # out[filled + i] = out[i] * base^filled for i < take.
        out[filled:filled + take] = mul(out[:take], np.uint64(step))
        filled += take
        step = step * step % MODULUS
    return out


@_wrapping
def vecmat(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Exact coeffs^T @ matrix over GF(p) (row combination kernel).

    One vectorized multiply, then a column reduction that accumulates the
    32-bit halves of every product separately (exact for up to 2^32 rows)
    before recombining mod p — the split-accumulate trick from
    ``SparseMatrix.matvec`` applied to dense row combinations.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("vecmat expects a 2-D matrix")
    if coeffs.shape != (matrix.shape[0],):
        raise ValueError("coefficient count must equal row count")
    if matrix.shape[0] == 0:
        return zeros(matrix.shape[1])
    prods = mul(matrix, coeffs[:, None], canonical=False)
    # Half-sums stay below rows * (2^32 - 1) <= (2^32 - 1)^2 < p: no
    # overflow and already canonical.
    lo = np.add.reduce(prods & _MASK32, axis=0)
    hi = np.add.reduce(prods >> _SHIFT32, axis=0)
    return add(lo, mul(hi, np.uint64((1 << 32) % MODULUS)))


def to_ints(a: np.ndarray) -> list:
    """Convert a field vector to a list of Python ints."""
    return [int(x) for x in a]
