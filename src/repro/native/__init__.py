"""Native replay kernel: selection seam and escape hatch.

``repro.native`` owns the optional C column interpreter
(:mod:`kernel.c <repro.native.build>`) that twins the python compiled
replay (:meth:`Engine.run_compiled <repro.sim.engine.Engine.run_compiled>`
on any of the three memory systems, under either latency provider)
byte-for-byte.  This module decides
*whether* it runs:

* ``REPRO_NATIVE`` env var — ``0``/``off`` disables, ``1``/``on``
  forces (raising if no kernel can be built), unset/``auto`` uses the
  kernel when a compiler or cached artifact is available and falls back
  to pure python otherwise.  Because the knob is an environment
  variable, worker processes inherit the parent's selection
  automatically, whatever the pool's start method.
* :func:`set_native` — programmatic switch (used by the
  ``--native/--no-native`` CLI flags); it writes ``REPRO_NATIVE`` so
  children agree with the parent.

The python replay remains canonical; everything here degrades
gracefully to them (missing compiler, failed build, forced off).
Layer rank 2: imports nothing above :mod:`repro.memory`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from . import build as _build
from .build import ABI_VERSION, BuildError

if TYPE_CHECKING:  # pragma: no cover
    import ctypes

__all__ = ["ABI_VERSION", "BuildError", "available", "build_error",
           "enabled_mode", "kernel", "kernel_name", "selected",
           "set_native", "status"]

_OFF = frozenset(("0", "off", "no", "false"))
_ON = frozenset(("1", "on", "yes", "true"))

# one loaded library per process, keyed by the build-relevant env so
# tests that repoint REPRO_NATIVE_CC / REPRO_NATIVE_CACHE re-resolve
_lib: "ctypes.CDLL | None" = None
_lib_err: str | None = None
_lib_key: tuple | None = None


def enabled_mode() -> str:
    """Current selection mode: ``"on"``, ``"off"``, or ``"auto"``."""
    v = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if v in _OFF:
        return "off"
    if v in _ON:
        return "on"
    return "auto"


def set_native(flag: bool | None) -> None:
    """Set the process-wide (and child-inherited) kernel selection.

    ``True`` forces native, ``False`` forces pure python, ``None``
    restores auto-detection.  Writes ``REPRO_NATIVE`` so every worker
    process started afterwards sees the same selection as the parent.
    """
    if flag is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = "1" if flag else "0"


def _env_key() -> tuple:
    return (os.environ.get("REPRO_NATIVE_CC"),
            os.environ.get("REPRO_NATIVE_CACHE"))


def _load() -> "ctypes.CDLL | None":
    """Build/load the kernel once per process; remember failures."""
    global _lib, _lib_err, _lib_key
    key = _env_key()
    if _lib_key == key and (_lib is not None or _lib_err is not None):
        return _lib
    try:
        _lib = _build.load()
        _lib_err = None
    except BuildError as exc:
        _lib = None
        _lib_err = str(exc)
    _lib_key = key
    return _lib


def kernel() -> "ctypes.CDLL | None":
    """The loaded native kernel, or ``None`` when python should run.

    Returns ``None`` when disabled or (in auto mode) unavailable; raises
    :class:`RuntimeError` when the kernel is *forced* on but cannot be
    had — a forced selection must never silently degrade.
    """
    mode = enabled_mode()
    if mode == "off":
        return None
    lib = _load()
    if lib is None and mode == "on":
        raise RuntimeError(
            f"REPRO_NATIVE=1 but the native kernel is unavailable: "
            f"{_lib_err or 'unknown build failure'}")
    return lib


def selected() -> bool:
    """Whether a replay right now would use the native kernel."""
    if enabled_mode() == "off":
        return False
    return _load() is not None


def kernel_name() -> str:
    """``"native"`` or ``"python"`` — the kernel a replay would use."""
    return "native" if selected() else "python"


def available() -> bool:
    """Whether a kernel *could* be selected (compiler or artifact).

    Passive: never triggers a compile.  A previously loaded library
    counts; otherwise a resolvable compiler does.
    """
    if _lib is not None and _lib_key == _env_key():
        return True
    return _build.find_compiler() is not None


def build_error() -> str | None:
    """Last build/load failure in this process, if any."""
    return _lib_err


def status() -> dict:
    """Selection snapshot for observability (never triggers a compile)."""
    mode = enabled_mode()
    current = _lib_key == _env_key()
    loaded = _lib is not None and current
    # a load failure recorded for this environment means replays run on
    # python, compiler or not
    failed = _lib_err is not None and current
    return {
        "mode": mode,
        "available": available(),
        "loaded": loaded,
        "build_error": _lib_err,
        "compiler": _build.find_compiler(),
        "abi": ABI_VERSION,
        "kernel": ("native" if mode != "off" and not failed
                   and (loaded or available()) else "python"),
    }
