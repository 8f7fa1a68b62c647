"""Benchmark: erasure-coded placement and degraded-read reconstruction.

One seeded file-per-task workload swept over protection scheme (plain,
2- and 3-way mirrors, k+m codes) x stall severity.  The benchmark
regenerates the ``erasure`` experiment at small scale and asserts its
verdicts, so the timing record doubles as a reproduction check of the
tentpole acceptance criteria: an m=1 code matches the 2-way mirror's
read-tail improvement within 10% while writing ~1/k redundant bytes to
the mirror's 1.0x, and the averted-fault analysis names the stalled
device from the trace alone.
"""

from repro.experiments import fig_erasure


def test_erasure(run_once, benchmark):
    out = run_once(fig_erasure.run, scale="small")
    benchmark.extra_info["runs"] = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
        for r in out.series["rows"]
    ]
    benchmark.extra_info["redundant_ec41_x"] = round(
        out.summary["redundant_ec41_x"], 3
    )
    benchmark.extra_info["redundant_mirror2_x"] = round(
        out.summary["redundant_mirror2_x"], 3
    )
    benchmark.extra_info["located_ost"] = out.summary["located_ost"]
    assert out.all_verdicts_hold(), out.verdicts
    # the headline claim: equal fault tolerance (one device) for a
    # quarter of the mirror's redundant write traffic, same tail
    assert out.summary["redundant_ec41_x"] < 0.3
    assert (
        out.summary["tail_light_ec41_s"]
        <= 1.1 * out.summary["tail_light_mirror2_s"]
    )
