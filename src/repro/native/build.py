"""Stdlib-only build layer for the native replay kernel.

Compiles ``kernel.c`` with whatever C compiler the host offers (``cc`` /
``gcc`` / ``clang``, or an explicit ``REPRO_NATIVE_CC`` override) into a
shared object loaded via :mod:`ctypes` — no new dependencies, no
setuptools.  Artifacts live in an on-disk cache keyed by the source
hash, ABI version, compiler, and :data:`CFLAGS`, so one compile serves
every process and every later invocation; a source, ABI or flag change
produces a new key and a fresh build.  The compile writes to a temp
file and publishes with ``os.replace`` so concurrent builders race
benignly.

Environment knobs:

``REPRO_NATIVE_CC``
    Explicit compiler path/name.  A value that does not resolve means
    "no compiler" (used by CI to prove the pure-python fallback).
``REPRO_NATIVE_CACHE``
    Artifact cache directory (default ``~/.cache/repro-clustering/native``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["ABI_VERSION", "BuildError", "CFLAGS", "artifact_path", "build",
           "cache_dir", "find_compiler", "load", "source_path"]

#: must match ``#define ABI`` in kernel.c; bump on any layout change
ABI_VERSION = 5

#: the one list of compile flags (CI's sanitizer build and the verify
#: skill print it rather than repeat it).
#:
#: ``-O1``, not ``-O2``: the compile is paid by the first run after every
#: checkout (it is most of ``cli_fig2_cold``'s ``setup_s``), its cost
#: grows with the code generated, and the kernel is bound by its cache
#: misses, not by its instruction stream — gcc 12 builds this file in
#: under two thirds of the ``-O2`` time and replays 512x512 LU and the
#: quick grid exactly as fast (docs/MEASURING.md).
#:
#: ``-ffp-contract=off`` is part of the result contract, not an
#: optimisation choice: mesh pricing sums doubles in python's operation
#: order, and a compiler free to fuse ``a * b + c`` (gcc on aarch64 does,
#: by default) would differ from python in the last bit.  No ``-lm``:
#: the kernel rounds by hand.
CFLAGS = ("-O1", "-shared", "-fPIC", "-ffp-contract=off")

_COMPILERS = ("cc", "gcc", "clang")


class BuildError(RuntimeError):
    """Raised when the kernel cannot be built or loaded."""


def source_path() -> Path:
    """Path of the bundled ``kernel.c``."""
    return Path(__file__).resolve().parent / "kernel.c"


def find_compiler() -> str | None:
    """Resolve a usable C compiler, or ``None``.

    ``REPRO_NATIVE_CC`` (when set and non-empty) is authoritative: if it
    does not resolve to an executable there is no compiler, full stop —
    the knob doubles as CI's "mask cc from PATH" switch.
    """
    override = os.environ.get("REPRO_NATIVE_CC")
    if override is not None and override.strip():
        return shutil.which(override)
    if override is not None:  # set but empty: explicit "no compiler"
        return None
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """Artifact cache directory (``REPRO_NATIVE_CACHE`` overrides)."""
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-clustering" / "native"


def _source_key(compiler: str) -> str:
    h = hashlib.sha256()
    h.update(source_path().read_bytes())
    h.update(f"|abi={ABI_VERSION}|cc={os.path.basename(compiler)}"
             f"|{' '.join(CFLAGS)}".encode())
    return h.hexdigest()[:16]


def artifact_path(compiler: str | None = None) -> Path | None:
    """Cached shared-object path for the current source, or ``None``.

    ``None`` means there is no compiler to key the artifact by *and* no
    previously-built artifact to fall back on.
    """
    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        return None
    return cache_dir() / f"kernel-{_source_key(compiler)}.so"


def build(force: bool = False) -> Path:
    """Build (or reuse) the kernel shared object; returns its path."""
    compiler = find_compiler()
    if compiler is None:
        raise BuildError("no C compiler found (cc/gcc/clang, or set "
                         "REPRO_NATIVE_CC)")
    out = artifact_path(compiler)
    assert out is not None
    if out.exists() and not force:
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [compiler, *CFLAGS, "-o", tmp, str(source_path())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}")
        os.replace(tmp, out)  # atomic publish; concurrent builds race OK
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _open(path: Path) -> ctypes.CDLL:
    """``dlopen`` one artifact and verify its ABI stamp."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise BuildError(f"cannot load kernel {path}: {exc}") from exc
    lib.repro_abi.restype = ctypes.c_int64
    lib.repro_abi.argtypes = []
    abi = lib.repro_abi()
    if abi != ABI_VERSION:
        # unload it: the loader would otherwise answer the next dlopen
        # of this path (the rebuilt artifact) with the stale image
        import _ctypes
        if hasattr(_ctypes, "dlclose"):
            _ctypes.dlclose(lib._handle)
        raise BuildError(
            f"kernel {path} reports ABI {abi}, expected {ABI_VERSION}")
    return lib


def load() -> ctypes.CDLL:
    """Build if needed, load via ctypes, and verify the ABI stamp.

    A cached artifact that will not load or carries the wrong ABI stamp
    (truncated by a crash, written by another version) is rebuilt once;
    :class:`BuildError` is raised only if the fresh artifact fails too.
    """
    path = build()
    try:
        lib = _open(path)
    except BuildError:
        lib = _open(build(force=True))
    i64 = ctypes.c_int64
    p = ctypes.POINTER(i64)
    lib.repro_replay.restype = i64
    lib.repro_replay.argtypes = [
        i64, i64, i64,                              # n, ncl, csize
        ctypes.POINTER(p), p,                       # words, lens
        p, p,                                       # t_words, t_off
        p, p, i64,                                  # q_next, q_end, n_queues
        i64, i64,                                   # proto, cap
        i64, i64,                                   # snoop_penalty, c2c
        i64, i64, i64, i64,                         # l_lc, l_rc, l_ldr, l_rd3
        ctypes.c_void_p,                            # mesh (driver._Mesh)
        i64, i64,                                   # lpp, rr_next
        p, p, i64,                                  # page_home, n_ph
        p, p, p, p,                                 # bd, ctr, cio, totals
        ctypes.POINTER(ctypes.c_double),            # peak
    ]
    return lib
