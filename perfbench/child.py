"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py REPORT MODE [CLI ARGS...]

MODE is ``setup`` (import only), ``run`` (call ``nlresolvent.cli.main``
with the CLI arguments) or ``trace`` (the same with the tracer
installed).  The child times the import of the package and the
``cli.main`` call and writes them, with its exit code and peak RSS,
as JSON to REPORT.  ``nlresolvent`` must be importable, e.g. through
PYTHONPATH.

While it runs, a timer signal every PROBE_PERIOD_S runs a fixed loop
and records how long it took.  The host's speed drifts (other virtual
machines share its cores), and these probes measure that speed during
the very interval being timed; ``run.py`` uses them to rescale each
time to a fixed host speed.  The loop does dict lookups and float
multiplies, like the solver's inner loops.  On a 2-vCPU Intel Xeon
virtual machine its duration tracked the workloads' slowdowns with an
elasticity of 1.0-1.2; a loop of integer arithmetic reached only
1/1.5 of them.
"""

import signal
import sys
import time

PROBE_PERIOD_S = 0.005
PROBE_KEYS = 512


class SpeedProbe:
    """Durations of a fixed loop, sampled on a wall-clock timer signal."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._keys = list(range(PROBE_KEYS))
        self._values = {k: float(k) for k in self._keys}

    def _sample(self, signum, frame):
        start = time.perf_counter()
        acc = 0.0
        for k in self._keys:
            acc += self._values[k] * 1.0001
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def harmonic_mean(self, t0: float, t1: float) -> float:
        """Harmonic mean of the loop durations sampled in [t0, t1].

        Samples are evenly spaced in time, and the harmonic mean of
        time-per-loop weights them the way they slow fixed work.
        """
        durations = [d for start, d in self.samples if t0 <= start <= t1]
        if not durations:
            raise RuntimeError(f"no speed probe in an interval of {t1 - t0:.3f} s")
        return len(durations) / sum(1.0 / d for d in durations)


def main() -> None:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    __import__("nlresolvent.cli")
    t1 = time.perf_counter()
    report = {"setup_s": t1 - t0}
    if mode != "setup":
        cli = sys.modules["nlresolvent.cli"]
        entry = cli.main
        if mode == "trace":
            import tracer

            rec = tracer.Tracer()
            tracer.install(rec)
            entry = rec.traced("cli.main", entry)
        t2 = time.perf_counter()
        report["exit_code"] = entry(argv)
        t3 = time.perf_counter()
        probe.stop()
        report["run_s"] = t3 - t2
        report["run_probe_s"] = probe.harmonic_mean(t2, t3)
        if mode == "trace":
            report["trace"] = rec.report()
    probe.stop()
    report["setup_probe_s"] = probe.harmonic_mean(t0, t1)

    import json
    import resource

    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
