"""``scaling``: the §4 pushout study, processor-count scaling clustered
vs unclustered, over the tier presets of :mod:`repro.core.scaling`."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from ..analysis import render_scaling, render_shape_comparison
from ..core.scaling import (compare_shapes, scaling_processor_counts,
                            scaling_study)
from . import _executor


def cmd_scaling(args: argparse.Namespace) -> int:
    """The §4 pushout study: processor-count scaling, clustered vs not."""
    counts = tuple(args.counts) if args.counts else None
    for c in (counts or scaling_processor_counts(args.tier)):
        if c % args.clusters:
            print(f"repro-clustering: cluster size {args.clusters} does "
                  f"not divide processor count {c}", file=sys.stderr)
            return 2

    executor = _executor(args)
    rendered: list[str] = []
    studies: list[dict[str, Any]] = []
    status = 0
    for app in args.apps:
        study = scaling_study(app, args.tier, cluster_size=args.clusters,
                              cache_kb=args.cache,
                              processor_counts=counts,
                              marginal_threshold=args.threshold,
                              executor=executor, protocol=args.protocol)
        studies.append(study)
        text = render_scaling(study)
        rendered.append(text)
        print(text)
        if study["effective_clustered"] < study["effective_unclustered"]:
            status = 1
        if args.compare_tier:
            other = scaling_study(app, args.compare_tier,
                                  cluster_size=args.clusters,
                                  cache_kb=args.cache,
                                  processor_counts=counts,
                                  marginal_threshold=args.threshold,
                                  executor=executor, protocol=args.protocol)
            studies.append(other)
            shape = compare_shapes(study["speedups_clustered"],
                                   other["speedups_clustered"])
            study["shape_vs"] = {"tier": args.compare_tier,
                                 "max_divergence": shape["max_divergence"]}
            text = render_shape_comparison(
                shape, f"{app}@{args.tier}", f"{app}@{args.compare_tier}")
            rendered.append(text)
            print()
            print(text)
            if shape["max_divergence"] > args.shape_tolerance:
                print(f"repro-clustering: shape divergence "
                      f"{shape['max_divergence']:.3f} exceeds tolerance "
                      f"{args.shape_tolerance:.3f}", file=sys.stderr)
                status = 1
        print()

    if args.figure:
        with open(args.figure, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(rendered) + "\n")
        print(f"figure written to {args.figure}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(studies, fh, indent=2, sort_keys=True)
        print(f"study data written to {args.json}")
    return status
