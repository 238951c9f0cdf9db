"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, stream_id)``.  Philox is counter-based, so a stream's output is a
pure function of its key and the draw position within the stream: arrays can
be generated in any order (or in parallel, one stream per task) and still
reproduce bit-identically.
"""

from __future__ import annotations

import math

import numpy as np

try:  # the builtin module: hashlib would load OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for sub-stream `stream_id` of master `seed`."""
    key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sphere_points(seed: int, m: int, n: int) -> np.ndarray:
    """`m` points uniform on the sphere |x|^2 = n: normalized Gaussian rows
    of stream 0 of `seed`."""
    g = stream(seed, 0).standard_normal((m, n))
    return math.sqrt(n) * g / np.linalg.norm(g, axis=1, keepdims=True)


def derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named task.

    sha256 of ``"{master_seed}:{name}"``, truncated to 8 bytes.  Adding new
    task names never perturbs the seeds of existing ones.
    """
    digest = sha256(f"{int(master_seed)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
