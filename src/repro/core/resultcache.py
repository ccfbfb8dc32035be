"""Persistent on-disk caches: simulation results and compiled traces.

Every sweep point the paper needs is a pure function of (package version,
application name, application kwargs, full :class:`MachineConfig`) — the
simulator is deterministic by construction — so finished points can be
memoized across processes and across invocations.  :class:`ResultCache`
stores each :class:`~repro.core.metrics.RunResult` as one JSON file —
its canonical text, :meth:`~repro.core.metrics.RunResult.to_json`, and
nothing else — named by a SHA-256 content hash of exactly those inputs.

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
  point is re-run and the file rewritten, never a crash; so is an entry
  in an older format (the ``{"key", "result"}`` envelope), once;
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

#: text budget of :class:`ResultCache`'s hot tier, in bytes (a result's
#: text is ASCII: one byte per character); a module constant, not a knob
_HOT_BYTES = 2_000_000


def default_cache_dir() -> Path:
    """Cache directory honouring ``REPRO_CACHE_DIR``."""
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env if env else _DEFAULT_DIR).expanduser()


def _package_version() -> str:
    from .._version import __version__

    return __version__


def point_key(app: str, app_kwargs: Mapping[str, Any],
              config: MachineConfig) -> str:
    """Content hash identifying one sweep point.

    The hash covers the package version, the application name, its problem
    kwargs, and the *complete* machine configuration
    (:meth:`MachineConfig.to_dict`), so any input that could change the
    simulation outcome changes the key.
    """
    payload = {
        "version": _package_version(),
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
    cache root, with a bounded in-memory hot tier.

    An entry is exactly its result's canonical text,
    :meth:`RunResult.to_json` — the bytes the daemon's wire carries.  An
    entry is served only once :meth:`RunResult.from_json` has accepted
    it; the hot tier (key → text, least recently used out first, at most
    ``_HOT_BYTES`` of text) holds only the re-encoding of a result a
    :meth:`get_text` disk read decoded that way, so a repeated hit costs
    a dict lookup: no file read, no decode.
    """

    SUFFIX = ".json"

    def __init__(self, directory: str | Path | None = None) -> None:
        super().__init__(directory)
        self._hot: dict[str, str] = {}  # insertion order is recency
        self.hot_bytes = 0
        #: hits the hot tier served (also counted in ``hits``)
        self.hot_hits = 0

    def get(self, key: str) -> RunResult | None:
        """Stored result for ``key``, or ``None`` (counted as a miss).

        Any failure to read or parse the entry — missing file, truncated
        write from a killed process, hand-edited garbage, an entry in an
        older format — degrades to a miss; the caller re-runs the point
        and :meth:`put` overwrites the bad entry.  A disk read admits
        nothing to the hot tier (that costs an encode; see
        :meth:`get_text`).
        """
        text = self._hot_get(key)
        if text is not None:
            return RunResult.from_json(text)
        return self._read(key)

    def get_text(self, key: str) -> str | None:
        """``key``'s entry as its validated canonical text, or ``None``
        (counted as a miss, as in :meth:`get`).

        A disk read re-encodes the result it decoded and serves and
        admits that text, so the answer is canonical even for an entry
        :meth:`RunResult.from_json` accepts in another spelling
        (indented, reordered, with a trailing newline)."""
        text = self._hot_get(key)
        if text is not None:
            return text
        result = self._read(key)
        if result is None:
            return None
        text = result.to_json()
        self._admit(key, text)
        return text

    def put(self, key: str, result: RunResult) -> None:
        """Atomically persist ``result`` under ``key`` (failures
        swallowed, see :meth:`put_bytes`)."""
        self.put_text(key, result.to_json())

    def put_text(self, key: str, text: str) -> None:
        """:meth:`put` for a result already encoded by
        :meth:`RunResult.to_json`."""
        self._forget(key)  # re-admitted by the next read that validates
        self.put_bytes(key, text.encode("utf-8"))

    def clear(self) -> int:
        self._hot.clear()
        self.hot_bytes = 0
        return super().clear()

    def hot_info(self) -> dict[str, int]:
        """The hot tier's ``entries``, ``bytes`` and ``hits``."""
        return {"entries": len(self._hot), "bytes": self.hot_bytes,
                "hits": self.hot_hits}

    # ------------------------------------------------------------ hot tier
    def _hot_get(self, key: str) -> str | None:
        """``key``'s hot text (counted as a hit), or ``None``."""
        text = self._hot.pop(key, None)
        if text is not None:
            self._hot[key] = text  # most recently used
            self.hits += 1
            self.hot_hits += 1
        return text

    def _read(self, key: str) -> RunResult | None:
        """``key``'s entry read from disk and decoded (a hit), or
        ``None`` (a miss)."""
        try:
            result = RunResult.from_json(
                self.path_for(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _admit(self, key: str, text: str) -> None:
        if len(text) > _HOT_BYTES:
            return
        self._hot[key] = text
        self.hot_bytes += len(text)
        while self.hot_bytes > _HOT_BYTES:
            self._forget(next(iter(self._hot)))

    def _forget(self, key: str) -> None:
        text = self._hot.pop(key, None)
        if text is not None:
            self.hot_bytes -= len(text)


class TraceStore(_Store):
    """Content-addressed store of opaque binary blobs (compiled traces).

    Lives in ``<root>/traces/`` so ``ResultCache`` JSON entries and trace
    blobs never collide and can be cleared independently.  Reading is the
    caller's business (:mod:`repro.sim.compiled` maps :meth:`path_for`,
    maintains ``hits``/``misses`` and treats undecodable blobs as misses);
    a trace is written by :meth:`put_bytes`, like any entry.
    """

    SUFFIX = ".trace"

    def __init__(self, directory: str | Path | None = None) -> None:
        super().__init__(directory)
        self.directory = self.directory / "traces"
