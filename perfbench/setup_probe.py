"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED
    python3 perfbench/setup_probe.py reference

imports diffbridge, builds the workload's schedule, domain pair and exact
models through the public constructors, and prints the seconds that
took.  ``reference`` instead times importing REFERENCE_IMPORTS, the
third-party modules diffbridge imports: on a shared host both slow
together, by up to a fifth between periods, while the reference kernel
of speed.py, which does no file access and no imports, does not.
``build`` is also how the workloads construct those inputs.
"""

from __future__ import annotations

import importlib
import sys
import time

# (domain kind, texture side) of each workload's pair at full size.
PAIRS = {"gmm-bridge": ("gmm", 0), "texture-label": ("texture", 32), "mlp-train": ("texture", 16)}
REFERENCE_IMPORTS = ("numpy", "scipy.special", "scipy.interpolate")
REFERENCE_IMPORT_S = 0.5   # about their import time on a quiet 2-vCPU Xeon VM


def build(kind: str, texture_size: int, seed: int):
    """(schedule, pair, (source model, target model)) for a "gmm" or "texture" pair."""
    import diffbridge as db

    schedule = db.linear_schedule(1000)
    if kind == "gmm":
        pair = db.default_gmm_pair()
        models = tuple(db.AnalyticGmmEpsilon(d, schedule) for d in (pair.source, pair.target))
    else:
        pair = db.make_texture_pair("bandsplit", texture_size, seed)
        models = tuple(
            db.AnalyticFieldEpsilon(d.mode_variances, schedule) for d in (pair.source, pair.target)
        )
    return schedule, pair, models


if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1] == "reference":
        for name in REFERENCE_IMPORTS:
            importlib.import_module(name)
    else:
        build(*PAIRS[sys.argv[1]], int(sys.argv[2]))
    print(repr(time.perf_counter() - start))
