"""The nine-application workload suite (SPLASH-style, really computing).

A lazy facade: each name imports its submodule on first access, so the
registry's names and size tables load without numpy or any app.
"""

from importlib import import_module

__all__ = [
    "Application", "PhaseBarriers", "proc_grid_shape",
    "BarnesApp", "FFTApp", "FMMApp", "LUApp", "MP3DApp", "OceanApp",
    "RadixApp", "RaytraceApp", "VolrendApp",
    "APP_NAMES", "PAPER_PROBLEM_SIZES", "app_class", "build_app",
]

#: lazily re-exported name -> defining submodule
_LAZY = {
    "Application": ".base", "PhaseBarriers": ".base",
    "proc_grid_shape": ".base",
    "BarnesApp": ".barnes", "FFTApp": ".fft", "FMMApp": ".fmm",
    "LUApp": ".lu", "MP3DApp": ".mp3d", "OceanApp": ".ocean",
    "RadixApp": ".radix", "RaytraceApp": ".raytrace",
    "VolrendApp": ".volrend",
    "APP_NAMES": ".registry", "PAPER_PROBLEM_SIZES": ".registry",
    "app_class": ".registry", "build_app": ".registry",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __name__),
                                      name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
