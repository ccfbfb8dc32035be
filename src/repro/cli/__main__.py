"""``python -m repro.cli``: the ``repro-clustering`` entry point."""

from . import main

raise SystemExit(main())
