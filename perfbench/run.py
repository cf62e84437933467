"""Benchmark of the `nambu` CLI on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohom_sparse --seed 1 --seconds 30 --trace 0

The program under test is the `src/nambu` next to this directory. Set-up
generates the workload's inputs from the seed (through `nambu`) under
`perfbench/out/`. The run then answers every request of the workload in
passes, back to back through `nambu.cli.main(argv)` in this one process, until
another pass would overrun `--seconds` (at least one pass). Every answer of the
first pass is checked; every later pass must reproduce it byte for byte.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, with the end-to-end metrics for `--trace 0` and the per-layer
metrics for `--trace 1`. End-to-end times are reference seconds: raw seconds
scaled by a speed probe timed during the run (see PROBE_REFERENCE_S). A failed check is printed to stderr with the
request, the check and the values that disagree.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cohom_sparse", "cohom_dense", "ext_tstar")
# Input generation is repeated, at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and its median taken: one sub-second generation moves by a
# tenth on its own.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# The speed of the machine drifts by up to 40 % in phases of minutes, longer
# than a run, and process CPU time moves with wall time. So the run also times
# a fixed probe (an exact Fraction elimination of about 25 ms): PROBE_BLOCK
# times before the first pass and after the last, and between requests at
# most once per PROBE_EVERY_S. Every reported time is scaled to the speed at
# which the probe takes PROBE_REFERENCE_S: raw seconds * PROBE_REFERENCE_S /
# mean probe time. The raw seconds and the probe times go to the times file.
PROBE_EVERY_S = 0.5
PROBE_BLOCK = 20
PROBE_REFERENCE_S = 0.025


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import `nambu` from this checkout's src/, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nambu", "cli.py")):
        sys.exit(f"perfbench: no program to measure: {src}/nambu/cli.py is missing")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import nambu
    from nambu import cli

    if os.path.dirname(os.path.abspath(nambu.__file__)) != os.path.join(src, "nambu"):
        sys.exit(f"perfbench: imported nambu from {nambu.__file__}, not from {src}")
    return cli


def run_request(cli, req):
    """Answer one request in-process; returns (seconds, Result, traceback or None)."""
    from workloads import Result, fresh

    if req.out is not None:
        fresh(req.out)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request, reported below
            code = None
            crash = traceback.format_exc()
    seconds = time.perf_counter() - t0
    out_text = None
    if req.out is not None and os.path.exists(req.out):
        with open(req.out) as fh:
            out_text = fh.read()
    return seconds, Result(code, out.getvalue(), err.getvalue(), out_text), crash


class SpeedProbe:
    def __init__(self):
        from fractions import Fraction

        self.matrix = [[Fraction((i * j) % 7 + 1, (i + 2 * j) % 5 + 1) for j in range(16)] for i in range(16)]
        self.samples = []
        self.last = 0.0

    def run(self):
        from checks import rref_rank

        t0 = time.perf_counter()
        for _ in range(3):
            rref_rank(self.matrix, 16)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def block(self):
        for _ in range(PROBE_BLOCK):
            self.run()

    def maybe(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.run()

    def scale(self):
        """Factor from raw seconds to reference seconds."""
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


def outcome_problems(req, res, crash):
    if crash is not None:
        return [("raised", crash.strip().splitlines()[-1])]
    problems = []
    if res.code != req.expect_code:
        problems.append(("exit-code", f"expected {req.expect_code}, got {res.code}; stderr {res.stderr.strip()!r}"))
    elif not res.stderr.startswith(req.expect_stderr) or bool(res.stderr) != bool(req.expect_stderr):
        problems.append(("stderr", f"expected {req.expect_stderr!r}..., got {res.stderr!r}"))
    elif req.check is not None:
        try:
            name = req.check.__qualname__.split(".")[0].strip("_")
            problems += [(name, p) for p in req.check(res)]
        except Exception:  # a checker that cannot read the answer rejects it
            problems.append(("unreadable-answer", traceback.format_exc().strip().splitlines()[-1]))
    return problems


def report(pass_no, req, check, detail):
    print(f"FAIL pass={pass_no} request={' '.join(req.argv)!r} [{req.label}] check={check}: {detail}",
          file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    import workloads

    import_s = time.perf_counter() - START
    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    generation = []
    while len(generation) < SETUP_REPEATS or sum(generation) < SETUP_SECONDS:
        t0 = time.perf_counter()
        suite = workloads.BUILDERS[args.workload](random.Random(args.seed), outdir)
        generation.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(generation)
    requests = suite.requests
    largest = [i for i, r in enumerate(requests) if r.largest]
    if len(largest) != 1:
        sys.exit(f"perfbench: workload {args.workload} names {len(largest)} largest requests, not 1")
    largest = largest[0]

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    probe = SpeedProbe()
    probe.block()
    passes = []  # per pass: list of request seconds
    first = None  # pass 0 results, checked
    bad = set()  # requests whose pass-0 outcome was rejected
    wrong = False  # some answer was rejected by a check, not just raised
    attempted = failed = 0
    t_run = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        pass_no = len(passes)
        seconds, results = [], []
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request, tracer.pass_no = i, pass_no
            probe.maybe()
            dt, res, crash = run_request(cli, req)
            seconds.append(dt)
            results.append(res)
            attempted += 1
            if first is None:
                for check, detail in outcome_problems(req, res, crash):
                    report(pass_no, req, check, detail)
                    bad.add(i)
                    wrong = wrong or check != "raised"
            elif i in bad:
                pass  # counted below, reported on pass 0
            elif crash is not None or res != first[i]:
                report(pass_no, req, "repeatable", "answer differs from pass 0")
                bad.add(i)
                wrong = True
        if first is None:
            for cross in suite.cross_checks:
                for i, check, detail in cross(results):
                    report(pass_no, requests[i], check, detail)
                    bad.add(i)
                    wrong = True
            first = results
        failed += len(bad)
        passes.append(seconds)
        wall = time.perf_counter() - t_pass
        if time.perf_counter() - t_run + wall > args.seconds:
            break

    probe.block()
    batch = statistics.median(sum(p) for p in passes)
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.per_layer(len(passes))
        tracer.dump(
            os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"),
            [r.label for r in requests],
            {"workload": args.workload, "seed": args.seed, "passes": len(passes), "traced_batch_s": batch},
        )
        print(f"traced batch_s {batch * probe.scale():.4f} s (raw {batch:.4f} s) over {len(passes)} passes;"
              " tracing overhead = this minus the untraced batch_s", file=sys.stderr)
    else:
        raw = {
            "setup_s": setup_s,
            "batch_s": batch,
            "largest_request_s": statistics.median(p[largest] for p in passes),
            "other_requests_s": statistics.median(sum(p) - p[largest] for p in passes),
        }
        scale = probe.scale()
        metrics = {k: {"value": v * scale, "unit": "s"} for k, v in raw.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.4f} {m['unit']}" + (f" (raw {raw[name]:.4f} s)" if name in raw else ""))
        print(f"largest request: {requests[largest].label}; {len(passes)} passes of {len(requests)} requests;"
              f" speed scale {scale:.4f} from {len(probe.samples)} probes")
    with open(os.path.join(HERE, "out", f"times-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"labels": [r.label for r in requests], "passes": passes, "setup_generation_s": generation,
                   "import_s": import_s, "probes_s": probe.samples}, fh)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
