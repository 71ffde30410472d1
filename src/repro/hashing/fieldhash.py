"""SHA3-256 hashing of field elements, mirroring NoCap's Hash FU semantics.

The paper's hash unit (Sec. IV-B) reinterprets each group of four
consecutive 64-bit field elements as one 256-bit value, and hashes pairs of
256-bit values into one 256-bit digest.  We reproduce that packing exactly
so the number of compression calls the functional layer performs matches
what the performance model charges the Hash FU for.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

DIGEST_BYTES = 32
#: Field elements per 256-bit hash word (4 x 64-bit).
ELEMENTS_PER_WORD = 4


def sha3(data: bytes) -> bytes:
    """SHA3-256 of raw bytes."""
    return hashlib.sha3_256(data).digest()


def hash_pair(left: bytes, right: bytes) -> bytes:
    """The Hash FU primitive: two 256-bit inputs -> one 256-bit output."""
    return hashlib.sha3_256(left + right).digest()


def elements_to_words(elements: np.ndarray) -> List[bytes]:
    """Pack field elements into 32-byte words (4 elements per word).

    The tail is zero-padded, matching how vectors are padded into hash
    lanes on the accelerator.
    """
    arr = np.asarray(elements, dtype=np.uint64).ravel()
    pad = (-len(arr)) % ELEMENTS_PER_WORD
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint64)])
    raw = arr.astype("<u8").tobytes()
    return [raw[i : i + DIGEST_BYTES] for i in range(0, len(raw), DIGEST_BYTES)]


def hash_elements(elements: np.ndarray) -> bytes:
    """Hash a vector of field elements down to a single 256-bit digest.

    Words are combined left-to-right with the pairwise primitive — the
    sequential chaining a hash lane performs when a leaf spans multiple
    256-bit words.
    """
    words = elements_to_words(elements)
    if not words:
        return sha3(b"")
    acc = words[0]
    if len(words) == 1:
        # Single word still passes through the FU once (paired with zero).
        return hash_pair(acc, b"\x00" * DIGEST_BYTES)
    for word in words[1:]:
        acc = hash_pair(acc, word)
    return acc


def hash_columns(matrix: np.ndarray) -> List[bytes]:
    """Hash every column of a 2-D field matrix to one digest per column.

    Byte-for-byte equivalent to ``[hash_elements(matrix[:, j]) for j]`` —
    same packing, same left-to-right compression chaining — but the whole
    matrix is packed with ONE transpose + ``tobytes`` pass, and the chain
    walks a flat byte buffer.  This is the batched leaf-hashing kernel the
    Merkle commitment uses (all leaves of a layer stream through the Hash
    FU together, Sec. IV-B).
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("hash_columns expects a 2-D matrix")
    rows, cols = matrix.shape
    if rows == 0:
        return [sha3(b"")] * cols
    pad = (-rows) % ELEMENTS_PER_WORD
    packed = np.zeros((cols, rows + pad), dtype="<u8")
    packed[:, :rows] = matrix.T
    raw = packed.tobytes()
    words = (rows + pad) // ELEMENTS_PER_WORD
    stride = words * DIGEST_BYTES
    _sha3 = hashlib.sha3_256
    out: List[bytes] = []
    if words == 1:
        zero = b"\x00" * DIGEST_BYTES
        for base in range(0, cols * stride, stride):
            out.append(_sha3(raw[base : base + DIGEST_BYTES] + zero).digest())
        return out
    for base in range(0, cols * stride, stride):
        acc = _sha3(raw[base : base + 2 * DIGEST_BYTES]).digest()
        for off in range(base + 2 * DIGEST_BYTES, base + stride, DIGEST_BYTES):
            acc = _sha3(acc + raw[off : off + DIGEST_BYTES]).digest()
        out.append(acc)
    return out


def compression_calls_for_elements(n_elements: int) -> int:
    """Number of Hash-FU pair operations :func:`hash_elements` performs.

    Used by unit tests to pin the functional layer to the cost model.
    """
    words = max(1, (n_elements + ELEMENTS_PER_WORD - 1) // ELEMENTS_PER_WORD)
    return max(1, words - 1) if words > 1 else 1
