"""Locate the BLAS numpy itself uses and resolve sgemm/sgemv from it.

The compiled backend does not link a BLAS of its own — it calls the very
same ``cblas_sgemm``/``cblas_sgemv`` entry points numpy dispatches to,
through function pointers injected at runtime.  That is what makes the
big matmuls bit-identical to the numpy reference *by construction*: the
same library code runs on the same operands.

Wheel-built numpy bundles its BLAS as a private shared object under
``numpy.libs/`` (scipy-openblas with ``scipy_``-prefixed, ``64_``-suffixed
ILP64 symbols).  Distro numpys may link a system OpenBLAS with plain
LP64 symbols instead, so several symbol flavours are probed; the ILP64
flag travels with the resolved pair because the generated C must use the
matching integer width.

:func:`set_num_threads` sets that same library's thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["BlasSymbols", "BlasUnavailable", "find_blas", "set_num_threads"]


class BlasUnavailable(RuntimeError):
    """No usable cblas sgemm/sgemv pair could be resolved."""


@dataclass(frozen=True)
class BlasSymbols:
    """A resolved (sgemm, sgemv) pair plus its integer-width contract."""

    path: str  # library the symbols came from ("<global>" for the process)
    sgemm: int  # raw function address, handed to repro_set_blas
    sgemv: int
    ilp64: bool  # True -> dims are int64 (suffix "64_"), else int32


# (sgemm symbol, sgemv symbol, ilp64) in probe order.  The scipy_ pair is
# what numpy>=1.26 wheels actually export.
_SYMBOL_FLAVORS: Tuple[Tuple[str, str, bool], ...] = (
    ("scipy_cblas_sgemm64_", "scipy_cblas_sgemv64_", True),
    ("cblas_sgemm64_", "cblas_sgemv64_", True),
    ("scipy_cblas_sgemm", "scipy_cblas_sgemv", False),
    ("cblas_sgemm", "cblas_sgemv", False),
)


def _candidate_libraries() -> List[str]:
    paths: List[str] = []
    try:
        import numpy as np

        libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        for pattern in ("libscipy_openblas*", "libopenblas*"):
            paths.extend(sorted(glob.glob(os.path.join(libs_dir, pattern))))
        # In-tree/source builds keep the BLAS next to the core module.
        core_dir = os.path.join(os.path.dirname(np.__file__), ".libs")
        paths.extend(sorted(glob.glob(os.path.join(core_dir, "libopenblas*"))))
    except Exception:
        pass
    return paths


def _resolve(lib: ctypes.CDLL, path: str) -> Optional[BlasSymbols]:
    for sgemm_name, sgemv_name, ilp64 in _SYMBOL_FLAVORS:
        try:
            sgemm = ctypes.cast(getattr(lib, sgemm_name), ctypes.c_void_p).value
            sgemv = ctypes.cast(getattr(lib, sgemv_name), ctypes.c_void_p).value
        except AttributeError:
            continue
        if sgemm and sgemv:
            return BlasSymbols(path=path, sgemm=sgemm, sgemv=sgemv, ilp64=ilp64)
    return None


def find_blas() -> BlasSymbols:
    """Resolve numpy's cblas sgemm/sgemv, or raise :class:`BlasUnavailable`."""
    tried: List[str] = []
    for path in _candidate_libraries():
        try:
            lib = ctypes.CDLL(path, mode=ctypes.RTLD_GLOBAL)
        except OSError:
            tried.append(path)
            continue
        found = _resolve(lib, path)
        if found is not None:
            return found
        tried.append(path)
    # Last resort: symbols already present in the process image (numpy
    # linked against a system BLAS).
    try:
        found = _resolve(ctypes.CDLL(None), "<global>")
        if found is not None:
            return found
    except OSError:
        pass
    raise BlasUnavailable(
        "could not resolve cblas_sgemm/cblas_sgemv from numpy's BLAS "
        f"(searched: {tried or 'no candidate libraries'})"
    )


def set_num_threads(n: int) -> bool:
    """Set numpy's OpenBLAS thread count, process-wide; ``False`` when
    no OpenBLAS setter is found (another BLAS is left alone)."""
    for path in [*_candidate_libraries(), None]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(n)
                return True
    return False
