"""Application registry: names → factories, plus the paper's problem sizes.

``build_app`` is the single entry point the study driver, CLI and examples
use.  Default problem sizes are scaled so a full cluster sweep finishes in
minutes on a laptop; :data:`PAPER_PROBLEM_SIZES` holds the sizes of the
paper's Table 2 where the simulation cost allows it (noted per app).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

from ..core.config import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from .base import Application

__all__ = ["APP_NAMES", "PAPER_PROBLEM_SIZES", "QUICK_PROBLEM_SIZES",
           "build_app", "app_class"]

#: name -> implementing class.  A built-in entry names the class in the
#: same-named module (``"barnes"`` -> ``barnes.BarnesApp``) and is imported
#: on first use, so the tables below load without numpy or any app; a
#: class value (as tests insert) is used as is.
_CLASSES: dict[str, type[Application] | str] = {
    "barnes": "BarnesApp",
    "fft": "FFTApp",
    "fmm": "FMMApp",
    "lu": "LUApp",
    "mp3d": "MP3DApp",
    "ocean": "OceanApp",
    "radix": "RadixApp",
    "raytrace": "RaytraceApp",
    "volrend": "VolrendApp",
}

#: canonical application order used throughout the paper's figures
APP_NAMES = ("lu", "fft", "ocean", "barnes", "fmm", "radix", "raytrace",
             "volrend", "mp3d")

#: the paper's Table 2 problem sizes, expressed as constructor overrides.
#: Where the paper's size is impractical for a pure-Python cycle-level
#: simulation the override is the closest feasible size and EXPERIMENTS.md
#: records the substitution.
PAPER_PROBLEM_SIZES: dict[str, dict[str, Any]] = {
    "barnes": {"n_particles": 8192, "theta": 1.0},
    "fft": {"n_points": 65536},
    "fmm": {"n_particles": 8192, "levels": 5},
    "lu": {"n": 512, "block": 16},
    "mp3d": {"n_particles": 50000},
    "ocean": {"n": 128},
    "radix": {"n_keys": 262144, "radix": 256},
    "raytrace": {"width": 64, "height": 64, "n_spheres": 64},
    "volrend": {"volume_side": 64, "width": 64, "height": 64},
}

#: reduced problem sizes for ``--quick`` runs (~10× fewer cycles than the
#: defaults); the one quick table — the CLI, the ``scaling`` study's quick
#: tier and ``benchmarks/e2e`` all read it
QUICK_PROBLEM_SIZES: dict[str, dict[str, Any]] = {
    "barnes": {"n_particles": 512, "n_steps": 1},
    "fft": {"n_points": 16384},
    "fmm": {"n_particles": 512, "levels": 3, "n_steps": 1},
    "lu": {"n": 128, "block": 16},
    "mp3d": {"n_particles": 8000, "n_steps": 2},
    "ocean": {"n": 64, "n_vcycles": 1},
    "radix": {"n_keys": 32768, "radix": 128},
    "raytrace": {"width": 32, "height": 32, "n_spheres": 32},
    "volrend": {"volume_side": 32, "width": 32, "height": 32},
}


def app_class(name: str) -> type[Application]:
    """Class implementing application ``name`` (KeyError with guidance)."""
    try:
        cls = _CLASSES[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; choose from {sorted(_CLASSES)}"
        ) from None
    if isinstance(cls, str):
        cls = getattr(import_module(f".{name}", __package__), cls)
    return cls


def build_app(name: str, config: MachineConfig,
              **overrides: Any) -> Application:
    """Instantiate application ``name`` for ``config``; ``overrides`` are
    constructor arguments (``**PAPER_PROBLEM_SIZES[name]`` for the
    paper's Table 2 size)."""
    return app_class(name)(config, **overrides)

