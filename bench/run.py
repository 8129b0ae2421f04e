"""Cold-start benchmark of the hardlef command line.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1]

Every operation is one `hardlef.cli.main(argv)` call in a fresh
interpreter (bench/worker.py), so no in-process cache (lefschetz._full and
lefschetz._basic are lru_caches keyed by model equality) carries over from
one operation to the next.  The loop is closed and sequential: one client,
one worker process at a time, no threads.  Workloads and their exactness
checks are in bench/workloads.py.

A pass runs every operation of the workload once, after a set-up round
that generates the model files in a worker.  Passes repeat while the next
one is expected to end within --seconds (a run makes at least one pass);
every output is checked.  Each operation's time is the median of its
samples in the run (an operation may run several times per pass, see
workloads.Op.repeat), and the times below sum these medians.

The speed of a shared machine drifts: on the 2-core host the baseline was
recorded on, the same operation took from 1.0 to 2.0 times its fastest
time, in spells of seconds to minutes, with process CPU time tracking wall
time.  Each worker therefore also times a fixed loop of Fraction arithmetic
(worker.reference) before, during and after its operation, and every time
below but setup_s is in reference seconds: an operation's measured
seconds times REF_NOMINAL_S over the median reference time of its own
worker.  setup_s stays in seconds, because process start-up sped up much
less than the loop in fast spells.  The text output prints the run's
median reference time.

wall_s          all operations of the workload (interpreter start and input
                generation excluded)
cohomology_s    the `cohomology --basic U` operations
lefschetz_s     the `lefschetz --mode all` operations
suite_s         the `suite` operations (catalog_suite only; printed, not in
                the result line)
slowest_op_s    the largest operation time
setup_s         interpreter start and `import hardlef` of every worker plus
                model-file generation, summed over a pass; set-up rounds
                without operations are added until there are
                MIN_SETUP_ROUNDS, and the median is reported
peak_rss_mib    the largest ru_maxrss of any worker process
failed_ops_frac operations with an unexpected exit code or a failed exactness
                check, over those attempted (printed; the result line has
                the counts)

With --trace 1, untraced and traced passes alternate; the traced ones run
each operation once with hardlef's public functions wrapped
(bench/tracer.py) and give the per-layer metrics, the median over traced
passes.  trace.overhead_ratio is the traced wall_s over the untraced.

Text lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")
MIN_SETUP_ROUNDS = 3
WORKER_TIMEOUT_S = 170
# Median time of worker.reference on the baseline host (Python 3.11.7).
REF_NOMINAL_S = 0.00125

END_TO_END = (("wall_s", "s"), ("cohomology_s", "s"), ("lefschetz_s", "s"),
              ("slowest_op_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Where a metric named <layer>.<key> is read from, when <layer> is not the
# span name of tracer.py or <key> is not a statistic of tracer.summarize.
SOURCE = {
    "cohomology.class_of": "cohomology.CohomologySpace.class_of",
    "cohomology.space": "cohomology.Subcomplex.space",
    "model.d": "model.StructureModel.d",
    "model.lie_derivative": "model.StructureModel.lie_derivative",
    "exterior.wedge": "exterior.Form.wedge",
    "linalg.rref.cells": ("linalg.rref", "cells"),
    "linalg.rref.nnz": ("linalg.rref", "nnz"),
    "cohomology.space.builds": ("cohomology.CohomologySpace.__init__",
                                "calls"),
}
ALL = set(workloads.NAMES)
CAT = {"catalog_suite"}
# (metric, unit, workloads on which it must record at least one call).
PER_LAYER = [
    ("linalg.express_in_rows.calls", "count", ALL),
    ("linalg.express_in_rows.self_s", "s", ALL),
    ("cohomology.class_of.calls", "count", ALL),
    ("cohomology.class_of.self_s", "s", ALL),
    ("linalg.rref.le16.calls", "count", ALL),
    ("linalg.rref.le16.self_s", "s", ALL),
    ("linalg.rref.le64.calls", "count", ALL),
    ("linalg.rref.le64.self_s", "s", ALL),
    ("linalg.rref.gt64.calls", "count", ALL),
    ("linalg.rref.gt64.self_s", "s", ALL),
    ("linalg.rref.cells", "count", ALL),
    ("linalg.rref.nnz", "count", ALL),
    ("linalg.matmul.self_s", "s", ALL),
    ("linalg.inverse.calls", "count", ALL),
    ("cohomology.full_complex.s", "s", ALL),
    ("cohomology.basic_complex.s", "s", ALL),
    ("cohomology.space.calls", "count", ALL),
    ("cohomology.space.builds", "count", ALL),
    ("cohomology.space.hit_ratio", "ratio", ALL),
    ("cohomology.splitting_check.s", "s", ALL),
    ("model.d.calls", "count", ALL),
    ("model.d.self_s", "s", ALL),
    ("model.lie_derivative.calls", "count", ALL),
    ("exterior.wedge.calls", "count", ALL),
    ("exterior.contract.calls", "count", ALL),
    ("lefschetz.gysin_sequence_check.s", "s", ALL),
    ("lefschetz.de_rham_lefschetz_relation.s", "s", ALL),
    ("lefschetz.basic_lefschetz_relation.s", "s", ALL),
    ("lefschetz.contact_lefschetz_relation.s", "s", ALL),
    ("lefschetz.is_graph_of_isomorphism.s", "s", ALL),
    ("lefschetz.pairing_psi.s", "s", ALL),
    ("lefschetz.uv_basic_lefschetz.s", "s", CAT),
    ("lefschetz.t_map.s", "s", CAT),
    ("lefschetz.betti_parity_check.s", "s", ALL),
    ("lefschetz.lefschetz_equivalence_report.calls", "count", ALL),
    ("structures.vaisman_candidate_report.s", "s", ALL),
    ("structures.validate_lcs.s", "s", ALL),
    ("structures.validate_contact.s", "s", ALL),
    ("structures.quotient_contact.s", "s", ALL),
    ("catalog.run_entry.s", "s", CAT),
    ("modelfile.load_path.s", "s", ALL),
    ("report.to_json.s", "s", ALL),
    ("trace.coverage", "ratio", ALL),
    ("trace.overhead_ratio", "ratio", ALL),
]
# The per-layer metrics of the result line: those nonzero on every
# workload (the others are printed only).
RESULT_LAYERS = [name for name, _, on in PER_LAYER if on == ALL]
MIN_COVERAGE = {"heisenberg_dim8": 0.95}


class WorkerError(RuntimeError):
    pass


def spawn(request: dict) -> tuple[dict, float]:
    """Run one worker to completion; returns (its reply, spawn time)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-I", WORKER],
                          input=json.dumps(request), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1]), t0


def provenance() -> dict:
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hardlef")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git": sha, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


class Run:
    """One workload at one seed: set-up rounds, passes and their checks."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.model_dir = os.path.join(workdir, "models")
        self.out_dir = os.path.join(workdir, "reports")
        self.span_dir = os.path.join(workdir, "spans")
        for d in (self.model_dir, self.out_dir, self.span_dir):
            os.makedirs(d)
        self.ops = workloads.operations(workload, seed, self.model_dir,
                                        self.out_dir)
        self.generates = bool(workloads.model_files(workload))
        self.file_digests: dict | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.maxrss_kib = 0
        self.setup_rounds: list[float] = []
        self.refs: list[float] = []

    def _generate(self) -> float:
        if not self.generates:
            return 0.0
        reply, t0 = spawn({"mode": "generate", "src": SRC,
                           "workload": self.workload, "seed": self.seed,
                           "model_dir": self.model_dir})
        elapsed = time.monotonic() - t0
        self.maxrss_kib = max(self.maxrss_kib, reply["maxrss_kib"])
        digests = {}
        for name in reply["files"]:
            with open(os.path.join(self.model_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        if self.file_digests is None:
            self.file_digests = digests
        elif digests != self.file_digests:
            self.problems.append("regenerated model files differ from the "
                                 "first generation of this seed")
        return elapsed

    def setup_only(self) -> None:
        total = self._generate()
        for _ in range(sum(op.repeat for op in self.ops)):
            reply, t0 = spawn({"mode": "probe", "src": SRC})
            total += reply["ready"] - t0
        self.setup_rounds.append(total)

    def run_pass(self, traced: bool) -> dict:
        """Samples of every operation ({label: [seconds]}) and, when
        traced, the span summary of each operation."""
        setup = self._generate()
        times: dict = {}
        layers: list = []
        for i, op in enumerate(self.ops):
            request = {"mode": "op", "src": SRC, "argv": op.argv}
            if traced:
                request["spans"] = os.path.join(self.span_dir, f"{i}.json")
            for _ in range(1 if traced else op.repeat):
                self.attempted += 1
                try:
                    reply, t0 = spawn(request)
                except (WorkerError, subprocess.TimeoutExpired) as exc:
                    self.failed += 1
                    self.problems.append(f"{op.label}: {exc}")
                    continue
                setup += reply["ready"] - t0
                self.maxrss_kib = max(self.maxrss_kib, reply["maxrss_kib"])
                self.refs += reply["refs"]
                if reply["preloaded"] or not reply["module"].startswith(SRC):
                    self.problems.append(f"{op.label}: hardlef was not "
                                         f"freshly imported from {SRC}")
                bad = workloads.check(op, reply["rc"])
                if bad:
                    self.failed += 1
                    self.problems += bad
                times.setdefault(op.label, []).append(
                    reply["op_s"] * REF_NOMINAL_S
                    / statistics.median(reply["refs"]))
                if traced:
                    with open(request["spans"], encoding="utf-8") as fh:
                        layers.append(tracer.summarize(json.load(fh),
                                                       reply["window"]))
        self.setup_rounds.append(setup)
        return {"ops": times, "layers": layers}


def _layer_values(op_stats: list) -> dict:
    """Per-layer metrics of one traced pass, summed over its operations."""
    out = {}
    for name, _, _ in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        span, key = SOURCE.get(name, (SOURCE.get(layer, layer), key))
        out[name] = sum(s.get(span, {}).get(key, 0) for s in op_stats)
    calls = out["cohomology.space.calls"]
    out["cohomology.space.hit_ratio"] = (
        (calls - out["cohomology.space.builds"]) / calls if calls else 0.0)
    window = sum(s["trace"]["window_s"] for s in op_stats)
    out["trace.coverage"] = (sum(s["trace"]["covered_s"] for s in op_stats)
                             / window)
    return out


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    workdir = os.path.join(WORK, f"{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(workload, seed, workdir)
    plain, traced, durations = [], [], []
    start = time.monotonic()
    while (not plain or (trace and not traced)
           or time.monotonic() - start + statistics.mean(durations)
           <= seconds):
        use_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        (traced if use_trace else plain).append(run.run_pass(use_trace))
        durations.append(time.monotonic() - t0)
    while len(run.setup_rounds) < MIN_SETUP_ROUNDS:
        run.setup_only()
    if not trace:
        shutil.rmtree(workdir, ignore_errors=True)

    med = statistics.median
    samples: dict = {}
    for p in plain:
        for label, values in p["ops"].items():
            samples.setdefault(label, []).extend(values)
    ref = med(run.refs)
    per_op = {label: med(values) for label, values in samples.items()}
    metrics = {
        "wall_s": sum(per_op.values()),
        "slowest_op_s": max(per_op.values(), default=0.0),
        "setup_s": med(run.setup_rounds),
        "peak_rss_mib": run.maxrss_kib / 1024,
        "failed_ops_frac": run.failed / run.attempted,
    }
    for command in ("suite", "cohomology", "lefschetz"):
        if any(op.command == command for op in run.ops):
            metrics[f"{command}_s"] = sum(per_op.get(op.label, 0.0)
                                          for op in run.ops
                                          if op.command == command)
    layers = {}
    if trace:
        values = [_layer_values(p["layers"]) for p in traced]
        layers = {name: med(v[name] for v in values) for name in values[0]}
        traced_wall = med(sum(t for ts in p["ops"].values() for t in ts)
                          for p in traced)
        layers["trace.overhead_ratio"] = traced_wall / metrics["wall_s"]
        for name, _, on in PER_LAYER:
            if workload in on and not layers[name]:
                print(f"WARNING: {name} recorded nothing on {workload}",
                      file=sys.stderr)
        floor = MIN_COVERAGE.get(workload)
        if floor and layers["trace.coverage"] < floor:
            print(f"WARNING: trace.coverage {layers['trace.coverage']:.4f} "
                  f"< {floor} on {workload}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "reference_s": ref,
            "passes": len(plain),
            "traced_passes": len(traced), "ops_per_pass": len(run.ops),
            "attempted": run.attempted, "failed": run.failed,
            "problems": run.problems, "per_op_s": per_op,
            "metrics": metrics, "layers": layers}


def print_report(res: dict) -> None:
    print(f"# workload {res['workload']} seed {res['seed']}: "
          f"{res['passes']} untraced and {res['traced_passes']} traced "
          f"passes, "
          f"{res['ops_per_pass']} operations per pass, "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"median reference loop {res['reference_s']:.6f} s "
          f"(nominal {REF_NOMINAL_S} s)")
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    for label, value in sorted(res["per_op_s"].items()):
        print(f"# op {label:43s} {value:14.6f} s")
    units = dict(END_TO_END, suite_s="s", failed_ops_frac="ratio")
    for name, value in res["metrics"].items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    layer_units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in res["layers"].items():
        print(f"{name:45s} {value:14.6f} {layer_units[name]}")


def result_metrics(res: dict, trace: bool) -> dict:
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": res["layers"][name], "unit": units[name]}
                for name in RESULT_LAYERS}
    return {name: {"value": res["metrics"][name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardlef", "cli.py")):
        print(f"error: no hardlef sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace)
        print_report(res)
        results.append(res)
    if len(results) == 1:
        metrics = result_metrics(results[0], trace)
    else:
        metrics = {f"{res['workload']}.{name}": value for res in results
                   for name, value in result_metrics(res, trace).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
