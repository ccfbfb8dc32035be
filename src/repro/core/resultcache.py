"""Persistent on-disk caches: simulation results and compiled traces.

Every sweep point the paper needs is a pure function of (package version,
application name, application kwargs, full :class:`MachineConfig`) — the
simulator is deterministic by construction — so finished points can be
memoized across processes and across invocations.  :class:`ResultCache`
stores each :class:`~repro.core.metrics.RunResult` as one JSON file named
by a SHA-256 content hash of exactly those inputs.

:class:`TraceStore` is the binary sibling used by the compiled-trace layer
(:mod:`repro.sim.compiled`): an opaque content-addressed blob store living
in a ``traces/`` subdirectory of the same cache root.  Both are one
``_Store`` — location resolution, a key's path by suffix, the atomic put,
membership, counting, clearing and the hit/miss summary are written once —
so they share the corruption-degrades-to-miss robustness rules.

Location resolution (first match wins):

1. an explicit ``directory`` argument (the CLI's ``--cache-dir``);
2. the ``REPRO_CACHE_DIR`` environment variable;
3. ``~/.cache/repro-clustering/``.

Robustness rules:

* a corrupted, truncated, or unreadable cache file is a **miss** — the
  point is re-run and the file rewritten, never a crash;
* writes are atomic (temp file + ``os.replace``) so a killed run cannot
  leave a truncated entry behind;
* the package version participates in the key, so upgrading the simulator
  invalidates every stale entry automatically.

``hits`` / ``misses`` counters accumulate over the cache's lifetime and are
reported by the CLI after each command.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

from .config import MachineConfig
from .metrics import RunResult

__all__ = ["ENV_CACHE_DIR", "ResultCache", "TraceStore", "default_cache_dir",
           "point_key"]

#: environment variable overriding the cache directory
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_DEFAULT_DIR = "~/.cache/repro-clustering"


def default_cache_dir() -> Path:
    """Cache directory honouring ``REPRO_CACHE_DIR``."""
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env if env else _DEFAULT_DIR).expanduser()


def _package_version() -> str:
    from .._version import __version__

    return __version__


def point_key(app: str, app_kwargs: Mapping[str, Any],
              config: MachineConfig, version: str | None = None) -> str:
    """Content hash identifying one sweep point.

    The hash covers the package version, the application name, its problem
    kwargs, and the *complete* machine configuration
    (:meth:`MachineConfig.to_dict`), so any input that could change the
    simulation outcome changes the key.
    """
    payload = {
        "version": _package_version() if version is None else version,
        "app": app,
        "app_kwargs": dict(app_kwargs),
        "config": config.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _Store:
    """A content-addressed directory of files named ``<key><SUFFIX>``.

    Parameters
    ----------
    directory:
        Cache **root**; ``None`` resolves via :func:`default_cache_dir`.
    """

    SUFFIX = ""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (Path(directory).expanduser() if directory
                          else default_cache_dir())
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """On-disk location of a key's entry."""
        return self.directory / f"{key}{self.SUFFIX}"

    def put_bytes(self, key: str, data: bytes) -> None:
        """Atomically persist ``data`` under ``key`` (temp file +
        ``os.replace``), so a killed run cannot leave a truncated entry.

        Storage failures (read-only filesystem, disk full) are swallowed:
        a cache that cannot write behaves like a cache that forgets.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, self.path_for(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob(f"*{self.SUFFIX}"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob(f"*{self.SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> str:
        """``'N hits, M misses'`` summary for logs."""
        return f"{self.hits} hits, {self.misses} misses"

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}({str(self.directory)!r}, "
                f"hits={self.hits}, misses={self.misses})")


class ResultCache(_Store):
    """Content-addressed store of :class:`RunResult` JSON files under the
    cache root."""

    SUFFIX = ".json"

    def get(self, key: str) -> RunResult | None:
        """Stored result for ``key``, or ``None`` (counted as a miss).

        Any failure to read or parse the entry — missing file, truncated
        write from a killed process, hand-edited garbage — degrades to a
        miss; the caller re-runs the point and :meth:`put` overwrites the
        bad entry.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = RunResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Atomically persist ``result`` under ``key`` (failures
        swallowed, see :meth:`put_bytes`)."""
        text = json.dumps({"key": key, "result": result.to_dict()},
                          sort_keys=True)
        self.put_bytes(key, text.encode("utf-8"))


class TraceStore(_Store):
    """Content-addressed store of opaque binary blobs (compiled traces).

    Lives in ``<root>/traces/`` so ``ResultCache`` JSON entries and trace
    blobs never collide and can be cleared independently.  Reading is the
    caller's business (:mod:`repro.sim.compiled` maps :meth:`path_for`,
    maintains ``hits``/``misses`` and treats undecodable blobs as misses).
    """

    SUFFIX = ".trace"

    def __init__(self, directory: str | Path | None = None) -> None:
        super().__init__(directory)
        self.directory = self.directory / "traces"
