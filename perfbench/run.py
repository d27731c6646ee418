"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload propagation --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up (imports, config parsing, model construction and validation) is timed
from the start of the process. Rounds of the workload then repeat until
``--seconds`` of round time have passed; each round's outputs are checked
right after it, outside the timed interval, and then dropped. Peak memory is
read after the first round and before its check, so it does not depend on the
number of rounds. ``--trace 1`` wraps the program's public functions, reports
per-layer metrics instead of the end-to-end ones and writes the spans to
``perfbench/out/``.
"""

import time

_T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def process_age() -> float:
    """Seconds since the kernel started this process (script time as fallback)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_SCRIPT


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import phasefront from this checkout's src/, never from elsewhere.

    BLAS and OpenMP pools are held to one thread before numpy loads: the
    workloads are single-threaded and idle pool threads add noise.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "phasefront" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import phasefront
    if Path(phasefront.__file__).resolve().parent != SRC / "phasefront":
        sys.exit(f"error: phasefront imported from {phasefront.__file__}")
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    machine = import_program()
    import workloads
    from phasefront.errors import PhasefrontError
    from tracer import Tracer, layer_units

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = process_age()

    round_s = []
    attempted = failed = checked = 0
    correct = True
    peak_rss_mb = None
    while not round_s or sum(round_s) < args.seconds:
        if tracer:
            tracer.new_round()
        start = time.perf_counter()
        try:
            out = work.run_round()
        except PhasefrontError as exc:
            out = exc
        round_s.append(time.perf_counter() - start)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += work.ops_per_round
        if isinstance(out, PhasefrontError):
            failed += work.ops_per_round
            print(f"# round {len(round_s)} failed: {type(out).__name__}: {out}")
            continue
        for check in work.check(out):
            correct &= check.ok
            if not checked or not check.ok:
                print(f"# {'ok ' if check.ok else 'BAD'} {check.name}: {check.detail}")
        checked += 1
        del out
    if tracer:
        tracer.uninstall()
    # a run in which no round could be checked shows nothing correct
    correct = correct and checked > 0

    if tracer:
        metrics = tracer.metrics(round_s)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        units = layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items())
          + f" workload={args.workload} seed={args.seed} trace={args.trace}"
          + f" rounds={len(round_s)} round_s="
          + ",".join(f"{s:.3f}" for s in round_s))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
