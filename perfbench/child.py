"""Regenerate one figure in this process and print its measurements.

Usage: ``python3 perfbench/child.py WORKLOAD SEED {plain,traced}``

``run.py`` starts one fresh process per regeneration: repeating the figure
inside one process drifts upward and carries memory over from the earlier
runs.  The last line of standard output is one JSON object.  A failure
before the workload is ready (the program cannot be imported) exits with a
non-zero code and prints nothing; a failure of the figure itself is
reported in the JSON, with its traceback on standard error.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from typing import List, Tuple

# set-up is counted from process start: the interpreter's own start-up is
# part of the process's CPU time before this line runs

#: CPU seconds between two host-speed probes
PROBE_INTERVAL_S = 0.05
#: iterations of the probe loop, about 0.1 ms of work
PROBE_LOOP = 1000


class HostSpeed:
    """Samples the host's core speed while this process computes.

    The shared host's speed drifts by a third over minutes as other
    tenants come and go, and the CPU time of any fixed work drifts with
    it.  Every :data:`PROBE_INTERVAL_S` of CPU time a profiling-timer
    signal runs a fixed arithmetic loop and records its wall time.  The
    loop touches no object of the program and allocates nothing, so it
    times the core, not the code under test.  The median probe of a phase
    says how fast the host ran during that phase.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._mark = 0
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _probe(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        x = 1
        for i in range(PROBE_LOOP):
            x = (x * 31 + i) & 0xFFFF
        self.samples.append(time.perf_counter() - t0)

    def phase(self) -> Tuple[float, float]:
        """(median probe, total probe time) since the previous call."""
        taken = self.samples[self._mark:]
        self._mark = len(self.samples)
        if not taken:
            return float("nan"), 0.0
        return statistics.median(taken), sum(taken)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)


def main(argv: List[str]) -> int:
    workload_name, seed_text, mode = argv
    seed = int(seed_text)
    speed = HostSpeed()
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import hashlib
    import importlib
    import json
    import resource
    import traceback

    import layers
    from workloads import SCALE, WORKLOADS

    workload = WORKLOADS[workload_name]
    fig = importlib.import_module(workload.module)
    from repro.experiments.runner import result_to_dict

    for args in workload.configs:
        fig.configure(SCALE, *args)
    jobs = layers.JobLog(fig, workload.app_runner)
    tracer = layers.Tracer(fig) if mode == "traced" else None
    setup_s = time.process_time()
    probe, probed = speed.phase()
    record: dict = {"setup_cpu_s": setup_s - probed, "setup_probe_s": probe}
    try:
        t0 = time.process_time()
        if tracer is None:
            out = fig.run(SCALE, seed)
        else:
            with tracer.profiler:
                out = fig.run(SCALE, seed)
        cpu = time.process_time() - t0
        speed.stop()
        probe, probed = speed.phase()
        record["figure_cpu_s"] = cpu - probed
        record["figure_probe_s"] = probe
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        record["verdicts_hold"] = out.all_verdicts_hold()
        canonical = json.dumps(result_to_dict(out), sort_keys=True)
        record["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    except Exception as exc:  # a failed regeneration is a measured outcome
        traceback.print_exc()
        record["error"] = repr(exc)
    record["jobs"] = jobs.totals()
    record["apps.simulate_s"] = jobs.simulate_s
    if tracer is not None:
        record["layers"] = tracer.results()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
