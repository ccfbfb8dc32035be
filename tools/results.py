#!/usr/bin/env python
"""Check (or re-record) the recorded results against the CLI, by bytes.

``benchmarks/results/MANIFEST.json`` maps every recorded file to the
``repro-clustering`` commands that print it: the file is their stdouts
concatenated, minus the lines starting with ``[`` (wall-clock).  The
simulator is deterministic, so a default-scale run into a throwaway cache
directory reproduces every byte::

    python tools/results.py [--jobs N] [FILE ...]   # check; minutes for all
    python tools/results.py --write [FILE ...]      # the only writer there

Exits 1 naming the first differing line of each differing file.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def regenerate(commands: list[list[str]], env: dict[str, str]) -> str:
    """Concatenated stdout of ``commands``, ``[``-prefixed lines dropped."""
    kept: list[str] = []
    for argv in commands:
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                              cwd=ROOT / "src",  # runs from the checkout
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"repro-clustering {' '.join(argv)} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
        print(f"{time.time() - t0:7.1f}s  repro-clustering {' '.join(argv)}")
        kept += [line for line in proc.stdout.splitlines(keepends=True)
                 if not line.startswith("[")]
    return "".join(kept)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", metavar="FILE", help="default: all")
    ap.add_argument("--write", action="store_true", help="re-record diffs")
    ap.add_argument("--jobs", type=int, default=1, help="files at a time")
    ap.add_argument("--dir", type=Path, default=ROOT / "benchmarks/results")
    args = ap.parse_args(argv)
    manifest = json.loads((args.dir / "MANIFEST.json").read_text())
    names = args.files or list(manifest)
    if unknown := sorted(set(names) - set(manifest)):
        ap.error(f"not in MANIFEST.json: {', '.join(unknown)}")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="repro-results-") as cache, \
            ThreadPoolExecutor(max_workers=args.jobs) as pool:
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        fresh = pool.map(lambda name: regenerate(manifest[name], env), names)
        for name, text in zip(names, fresh):
            path = args.dir / name
            recorded = path.read_text() if path.exists() else ""
            if args.write:
                path.write_text(text)
            elif text != recorded:
                differing += 1
                old, new = recorded.splitlines(), text.splitlines()
                at = next((i for i, (a, b) in enumerate(zip(old, new))
                           if a != b), min(len(old), len(new)))
                print(f"{name}:{at + 1}: recorded {old[at:at + 1] or 'ends'},"
                      f" the CLI prints {new[at:at + 1] or 'ends'}",
                      file=sys.stderr)
    print(f"{differing} of {len(names)} recorded files differ")
    return int(differing > 0)


if __name__ == "__main__":
    raise SystemExit(main())
