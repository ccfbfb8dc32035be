"""Declarative run descriptions: what to simulate, resolved how.

:class:`RunRequest` is the canonical "one sweep point" value — which
application, at which cluster size and cache size, with which problem
kwargs, optionally under which interconnect model.  It is frozen,
hashable, order-insensitive in its kwargs, and cheap to pickle, so the
same object flows untouched from grid construction through result-cache
keying to process-pool submission.

:class:`RunPlan` is a request *resolved* against a base
:class:`~repro.core.config.MachineConfig` — the concrete machine the
point will run on.  :class:`~repro.runtime.session.RunSession` consumes
plans; everything above it consumes requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig, NetworkConfig

__all__ = ["RunRequest", "RunPlan"]


@dataclass(frozen=True)
class RunRequest:
    """One sweep point: which app on which machine organisation.

    ``app_kwargs`` is stored as a sorted tuple of items so requests are
    hashable, order-insensitive, and cheap to pickle across processes.
    Build instances with :meth:`make` (which accepts a plain dict).

    ``network`` optionally overrides the base config's interconnect model
    for this point — the contention sweep varies it per point the way
    cluster and cache size always varied.  ``None`` inherits the base.

    ``protocol`` optionally overrides the base config's coherence
    protocol for this point — the protocol sweep varies it per point.
    ``None`` inherits the base (normally ``"directory"``).
    """

    app: str
    cluster_size: int
    cache_kb: float | int | None
    app_kwargs: tuple[tuple[str, Any], ...] = ()
    network: NetworkConfig | None = None
    protocol: str | None = None

    @classmethod
    def make(cls, app: str, cluster_size: int, cache_kb: float | int | None,
             app_kwargs: Mapping[str, Any] | None = None,
             network: NetworkConfig | None = None,
             protocol: str | None = None) -> "RunRequest":
        return cls(app, int(cluster_size), cache_kb,
                   tuple(sorted((app_kwargs or {}).items())), network,
                   protocol)

    @property
    def kwargs(self) -> dict[str, Any]:
        """The app kwargs as a plain dict."""
        return dict(self.app_kwargs)

    def config_for(self, base: MachineConfig) -> MachineConfig:
        """The machine this point runs on, derived from a base template."""
        config = base.with_clusters(self.cluster_size).with_cache_kb(
            None if self.cache_kb is None else float(self.cache_kb))
        if self.network is not None:
            config = config.with_network(self.network)
        if self.protocol is not None:
            config = config.with_protocol(self.protocol)
        return config

    def describe(self) -> str:
        cache = "inf" if self.cache_kb is None else f"{self.cache_kb:g}k"
        kw = (", ".join(f"{k}={v}" for k, v in self.app_kwargs)
              if self.app_kwargs else "defaults")
        net = ""
        if self.network is not None:
            net = (f", {self.network.provider} net "
                   f"@ load {self.network.background_load:g}")
        proto = "" if self.protocol is None else f", {self.protocol}"
        return (f"{self.app} @ {self.cluster_size}/cluster, cache {cache}"
                f"{net}{proto} ({kw})")


@dataclass(frozen=True)
class RunPlan:
    """A :class:`RunRequest` bound to the concrete machine it runs on.

    ``config`` is fully resolved — cluster count, cache sizing, and any
    per-point network override already applied — so the session never
    re-derives machine parameters.
    """

    request: RunRequest
    config: MachineConfig

    @classmethod
    def resolve(cls, request: RunRequest,
                base_config: MachineConfig | None = None) -> "RunPlan":
        """Bind ``request`` to ``base_config`` (default machine if None)."""
        # deferred import: this module must not pull in repro.core at
        # import time — repro.core.executor imports RunRequest from here
        # at module level, and an eager import would close that cycle on
        # a partially-initialized module
        from ..core.config import MachineConfig

        base = base_config or MachineConfig()
        return cls(request=request, config=request.config_for(base))
