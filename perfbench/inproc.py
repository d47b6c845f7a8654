"""One in-process CLI run in a fresh interpreter, traced or not.

Calls ``clonerestore.cli.main`` directly and times that call alone. With
``--traced`` every public function of each layer is wrapped first (see
``spans.py``); the spans are written to ``--spans`` when the run ends.
The CLI's standard output goes to ``--stdout``. Prints one JSON object:
exit code, wall time of the ``main`` call, the package file and, when
traced, the aggregated per-layer metrics.

    python3 perfbench/inproc.py --traced --stdout OUT --spans SPANS -- verify --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import time
import traceback

import clonerestore
import clonerestore.cli
import numpy as np

import spans


def _plane_points(alpha2, phi, *args, **kwargs) -> int:
    return math.prod(np.broadcast_shapes(np.shape(alpha2), np.shape(phi)))


def _mc_trials(psi, p_bit, p_ph, trials, *args, **kwargs) -> int:
    return int(trials)


COUNTERS = {
    "protocol.exact_fidelity_plane": ("points", _plane_points),
    "protocol.mc_estimate": ("trials", _mc_trials),
}


def write_spans(path: str, tracer: spans.Tracer) -> None:
    """Write spans column-wise; every span of the file shares ``run_id``."""
    with open(path, "w") as fh:
        json.dump({
            "run_id": tracer.run_id,
            "names": tracer.names,
            "name": tracer.name_ids.tolist(), "parent": tracer.parents.tolist(),
            "start": tracer.starts.tolist(), "end": tracer.ends.tolist(),
        }, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--stdout", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.traced:
        tracer = spans.Tracer(args.run_id)
        tracer.install(COUNTERS)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        try:
            code = clonerestore.cli.main(argv)
        except Exception:
            # What the interpreter does with an uncaught exception in the CLI.
            traceback.print_exc()
            code = 1
        wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    with open(args.stdout, "w", newline="") as fh:
        fh.write(captured.getvalue())

    result = {"returncode": code, "wall_s": wall_s, "clonerestore": clonerestore.__file__}
    if tracer is not None:
        result["metrics"] = spans.aggregate(tracer.records(), tracer.names, tracer.counters)
        if args.spans:
            write_spans(args.spans, tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
