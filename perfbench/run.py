"""Run one kgalign benchmark workload and print its metrics.

    python3 perfbench/run.py --workload run-default --seed 0 --seconds 20 --trace 0

The program is imported from `src/` of the checkout this file sits in.
Set-up (making the inputs from the seed) runs SETUP_REPEATS times and is
timed apart from the passes.  Passes of the workload then repeat on the
same inputs until their summed wall time reaches `--seconds`; the first
pass's outputs are checked, and every later pass must reproduce them
byte for byte.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics (median pass wall time, median set-up time, peak
RSS, Hits@1, MRR).  With `--trace 1` the package's functions are wrapped
by `spans.Tracer` and the JSON holds the per-layer metrics, medians over
the passes.  Either way a result file with the machine, the seed, the
commit and every pass goes to `perfbench-out/`, and a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "h1": "ratio", "mrr": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"alignment.proposal_precision": "ratio",
            "alignment.state_bytes": "bytes"}.get(name, "count")


def import_program():
    """Import kgalign from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "kgalign" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kgalign package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgalign
    if Path(kgalign.__file__).resolve().parent != SRC / "kgalign":
        sys.exit(f"perfbench: imported kgalign from {kgalign.__file__}, "
                 f"not from {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if one can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def steal_seconds() -> float | None:
    """CPU time the host took from this machine's virtual CPUs so far."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def fingerprint(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def measure(wl, seed: int, seconds: float, tracer, work: Path) -> dict:
    import spans
    setup_s, setup_spans = [], []
    for k in range(SETUP_REPEATS):
        if tracer:
            tracer.pass_label, first = f"setup{k}", len(tracer.spans)
        start = time.perf_counter()
        inputs = wl.setup(seed, work / f"setup{k}")
        setup_s.append(time.perf_counter() - start)
        if tracer:
            setup_spans.append(sum(
                s[spans.END] - s[spans.START] for s in tracer.spans[first:]
                if s[spans.NAME] == "synth.generate_benchmark"))
    setup_prints = {fingerprint(sorted(p for p in (work / f"setup{k}").iterdir()))
                    for k in range(SETUP_REPEATS)}
    for k in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"setup{k}")

    walls, cpus, steals = [], [], []
    prints, layer, errors, fails = [], [], [], []
    first_output = None
    failed = 0
    while sum(walls) < seconds:
        k = len(walls)
        out = work / f"pass{k}"
        if tracer:
            tracer.pass_label, first = f"pass{k}", len(tracer.spans)
        steal = steal_seconds()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            output = wl.run(inputs, out)
        except Exception:  # a failing pass is counted, the run goes on
            output = None
            failed += wl.ops_per_pass
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
        if steal is not None:
            steals.append(steal_seconds() - steal)
        print(f"perfbench: {wl.name} seed {seed} pass {k}: "
              f"{walls[-1]:.3f} s", file=sys.stderr)
        if output is None:
            continue
        if tracer:
            layer.append(spans.pass_metrics(tracer.spans[first:], walls[-1],
                                            inputs.gold))
            parts = sum(v for name, v in layer[-1].items()
                        if name.endswith(".self_s")) + layer[-1]["trace.outside_s"]
            if abs(parts - walls[-1]) > 1e-6:
                fails.append(f"pass {k}: layer self times and time outside "
                             f"spans sum to {parts}, not {walls[-1]}")
        prints.append(fingerprint(wl.outputs(out)))
        if first_output is None:
            first_output = (out, output)
        else:
            shutil.rmtree(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if len(setup_prints) != 1:
        fails.append("set-up repeats made different inputs")
    if len(set(prints)) > 1:
        fails.append("passes on the same inputs gave different outputs")
    facts = dict(inputs.facts)
    if first_output is not None:
        out, output = first_output
        check_fails, facts["check"] = wl.check(inputs, out, output)
        fails += check_fails
        facts["h1_settings"] = [r.h_at_1 for r in output.reports]
        facts["mrr_settings"] = [r.mrr for r in output.reports]
    result = {"attempted": len(walls) * wl.ops_per_pass, "failed": failed,
              "failures": fails, "errors": errors, "facts": facts,
              "pass_wall_s": walls, "pass_cpu_s": cpus,
              "pass_steal_s": steals,
              "setup_s": setup_s,
              "end_to_end": {"wall_s": statistics.median(walls),
                             "setup_s": statistics.median(setup_s),
                             "peak_rss_mb": peak_rss_mb}}
    if first_output is not None:
        result["end_to_end"]["h1"] = statistics.fmean(facts["h1_settings"])
        result["end_to_end"]["mrr"] = statistics.fmean(facts["mrr_settings"])
    if tracer:
        result["per_pass_layers"] = layer
        result["setup_generate_s"] = setup_spans
        if layer:
            per_layer = spans.median_metrics(layer)
            per_layer["synth.generate_s"] = statistics.median(setup_spans)
            result["per_layer"] = per_layer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    tag = f"{wl.name}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        result = measure(wl, args.seed, args.seconds, tracer, work)
    finally:
        if tracer:
            tracer.close()
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": git_commit(),
              "machine": machine(), **result}
    if args.trace:
        untraced = OUT / f"{tag}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["wall_s"]
            record["trace_overhead_s"] = result["end_to_end"]["wall_s"] - base
        with open(OUT / f"{tag}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "layer", "start",
                                  "end", "pass", "attrs"],
                       "spans": tracer.spans}, fh)
    with open(OUT / f"{tag}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    chosen = result.get("per_layer", {}) if args.trace else result["end_to_end"]
    units = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    metrics = {name: {"value": value, "unit": units(name)}
               for name, value in chosen.items()}
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    for fail in result["failures"]:
        print(f"check failed: {fail}", file=sys.stderr)
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
