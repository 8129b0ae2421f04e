"""One benchmark process: a fresh interpreter per operation, as the CLI is.

Reads a JSON request on stdin and prints one JSON line on stdout.  Modes:

op        import hardlef, run `hardlef.cli.main(argv)` once, with the text
          report sent to /dev/null; with "spans" set, trace the public
          functions first and write the spans to that file afterwards.
          The reference loop is timed before and after the operation and,
          untraced, from a SIGALRM handler every REF_INTERVAL_S during it;
          the time spent in the handler is left out of op_s
generate  import hardlef and write the workload's model files
probe     import hardlef and exit (a set-up measurement only)

"ready" is CLOCK_MONOTONIC, which is shared between processes, taken once
hardlef.cli is imported; the parent subtracts its spawn time from it.
"""

import contextlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

REF_INTERVAL_S = 0.25
REF_SAMPLES = 5


def reference() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic (about 1 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
    return time.perf_counter() - start


def main() -> None:
    req = json.loads(sys.stdin.read())
    preloaded = "hardlef" in sys.modules
    sys.path.insert(0, req["src"])
    import hardlef.cli

    out = {"ready": time.monotonic(), "pid": os.getpid(),
           "preloaded": preloaded, "module": hardlef.__file__}
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(1, bench_dir)
    if req["mode"] == "generate":
        import workloads
        paths = workloads.generate(req["workload"], req["seed"],
                                   req["model_dir"])
        out["files"] = [os.path.basename(p) for p in paths]
    elif req["mode"] == "op":
        tracer = None
        if req.get("spans"):
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        refs = [reference() for _ in range(REF_SAMPLES)]
        in_handler = [0.0]

        def sample(signum, frame):
            t0 = time.perf_counter()
            refs.append(reference())
            in_handler[0] += time.perf_counter() - t0

        signal.signal(signal.SIGALRM, sample)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer is None:
                signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S,
                                 REF_INTERVAL_S)
            start = time.perf_counter()
            try:
                out["rc"] = hardlef.cli.main(req["argv"])
            finally:
                end = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        out["op_s"] = end - start - in_handler[0]
        out["refs"] = refs + [reference() for _ in range(REF_SAMPLES)]
        if tracer is not None:
            out["window"] = [start, end]
            tracer.write(req["spans"])
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
