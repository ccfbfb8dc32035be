"""``serve``: the long-lived sweep daemon (see ``docs/SERVICE.md``)."""

from __future__ import annotations

import argparse
import sys

from ..service import ServiceDaemon
from . import _base_config, _executor


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived sweep service daemon (see docs/SERVICE.md)."""
    daemon = ServiceDaemon(_executor(args), _base_config(args),
                           host=args.host, port=args.port,
                           drain_deadline=args.drain)
    rc = daemon.run_blocking(announce=True)
    stats = daemon.stats_dict()
    print(f"repro-clustering serve: stopped after {stats['uptime_s']:.1f}s — "
          f"{stats['points']} points ({stats['executed']} executed, "
          f"{stats['cache_hits']} cache hits, {stats['coalesced']} "
          f"coalesced, {stats['errors']} errors)", file=sys.stderr)
    return rc
