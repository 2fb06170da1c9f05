"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (import and generate inputs, then time the calibration
kernel), ``run`` (timed closed loop, with the calibration kernel between ops), ``trace`` (the same loop with a span around every public function),
``count`` (one pass counting products, allocations and matmuls) or
``micro`` (the micro-kernels).  The worker prints one JSON line per op
and a final ``{"summary": ...}`` line on stdout.  A pass is one run of the
workload's op list; the loop runs whole passes until SECONDS have passed.

Set-up time runs from the spawn to ``t_ready``: interpreter start-up,
``import qqwalk`` and input generation.  The harness imports its own
modules after that, inside the functions that need them.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

#: Calibration kernel runs in each set-up interpreter, after ``t_ready``.
SETUP_CAL_RUNS = 5


def run_op(cli_main, argv):
    """Run ``qqwalk`` in-process; returns (exit code, ns, stdout, stderr).

    The exit code is the traceback text when the command raises.
    """
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = traceback.format_exc()
    ns = time.perf_counter_ns() - t0
    return rc, ns, out.getvalue(), err.getvalue()


class _Emitter:
    """Writes op records; an output's text is sent once per distinct digest."""

    def __init__(self, stream):
        import hashlib
        import json

        self._stream, self._json, self._sha256 = stream, json, hashlib.sha256
        self._sent = set()
        self.output_bytes = 0

    def op(self, index, rc, ns, text, err, cal_ns=None):
        """``cal_ns`` is the calibration kernel's time before and after the op."""
        data = text.encode()
        self.output_bytes += len(data)
        record = {"op": index, "rc": rc, "ns": ns,
                  "sha": self._sha256(data).hexdigest()}
        if cal_ns is not None:
            record["cal_ns"] = cal_ns
        if record["sha"] not in self._sent:
            self._sent.add(record["sha"])
            record["out"] = text
        if err:
            record["err"] = err[-2000:]
        self.line(record)

    def line(self, payload):
        self._stream.write(self._json.dumps(payload) + "\n")
        self._stream.flush()


def _peak_rss_kb() -> int:
    """High-water resident set of this process image (``VmHWM``, Linux).

    ``ru_maxrss`` would do, except that Linux carries the spawning
    process's resident set over into it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _loop(cli_main, ops, seconds, emit, end_of_pass):
    """Whole passes until ``seconds`` have passed.

    The calibration kernel runs before the first op and after each op, so
    every op is recorded with the kernel times on either side of it.
    """
    from calibration import kernel_ns

    before = kernel_ns()
    start = time.monotonic()
    while True:
        pass_ns = []
        for index, op in enumerate(ops):
            rc, ns, text, err = run_op(cli_main, op["argv"])
            pass_ns.append(ns)
            after = kernel_ns()
            emit.op(index, rc, ns, text, err, (before, after))
            before = after
        end_of_pass(pass_ns)
        if time.monotonic() - start >= seconds:
            return


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, SRC)
    import qqwalk.cli
    import workloads

    ops = workloads.build(workload, seed)
    t_ready = time.monotonic_ns()

    if not os.path.abspath(qqwalk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qqwalk imported from {qqwalk.__file__}, not {SRC}")
    emit = _Emitter(sys.stdout)
    summary = {"t_ready": t_ready}

    if mode == "run":
        passes = []
        _loop(qqwalk.cli.main, ops, seconds, emit, lambda ns: passes.append(sum(ns)))
        summary.update(passes=passes, peak_rss_kb=_peak_rss_kb())
    elif mode == "trace":
        import tracing

        tracer = tracing.Tracer().install()
        passes = []

        def end_of_pass(ns):
            passes.append({"wall_ns": sum(ns), "stats": tracer.take()})

        # looked up after install, so that cli.main itself is traced
        _loop(qqwalk.cli.main, ops + [workloads.probe(seed)], seconds, emit, end_of_pass)
        tracer.uninstall()
        summary.update(passes=passes)
    elif mode == "count":
        import tracing

        counter = tracing.Counter().install()
        for index, op in enumerate(ops + [workloads.probe(seed)]):
            emit.op(index, *run_op(qqwalk.cli.main, op["argv"]))
        counter.uninstall()
        summary.update(counts=counter.counts, output_bytes=emit.output_bytes)
    elif mode == "micro":
        import micro
        summary.update(micro=micro.run(seed))
    elif mode == "setup":
        from calibration import kernel_ns
        summary.update(cal_ns=[kernel_ns() for _ in range(SETUP_CAL_RUNS)])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    emit.line({"summary": summary})


if __name__ == "__main__":
    main(sys.argv[1:])
