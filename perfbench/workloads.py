"""The benchmark's workloads: which figure driver each one runs, and the
output digest each one must reproduce.

Every workload regenerates one paper figure at ``small`` scale by calling
``repro.experiments.<fig>.run("small", seed)``.  The seed is the only input
the driver receives.  Why each workload was chosen, and which layers it
loads or bypasses, is recorded in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SCALE = "small"


@dataclass(frozen=True)
class Workload:
    name: str
    #: the figure driver module, imported in the measuring process
    module: str
    #: the application entry point the driver calls once per simulated job
    app_runner: str
    #: argument tuples for ``module.configure(SCALE, *args)``: the config
    #: and machine construction that set-up covers
    configs: Tuple[Tuple[str, ...], ...]
    #: sha256 of ``json.dumps(result_to_dict(run(SCALE, 0)), sort_keys=True)``
    seed0_digest: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ior_modes",
            module="repro.experiments.fig1_ior_modes",
            app_runner="run_ior",
            configs=((),),
            seed0_digest=(
                "5db7f0b3e157ac63e34d4380ac403b86"
                "ddad31f2745c788e84e9e939fb1f8ce6"
            ),
        ),
        Workload(
            name="madbench_rw",
            module="repro.experiments.fig4_madbench",
            app_runner="run_madbench",
            configs=(("franklin",), ("jaguar",)),
            seed0_digest=(
                "7f1291609ed319a5b561dff43c56c2cc"
                "9b19088dc9e569205a846533dbacf7c7"
            ),
        ),
        Workload(
            name="gcrm_meta",
            module="repro.experiments.fig6_gcrm",
            app_runner="run_gcrm",
            configs=(
                ("baseline",),
                ("cb",),
                ("cb+align",),
                ("cb+align+meta",),
            ),
            seed0_digest=(
                "22be015a162ee651358ceb08278bbb0b"
                "0337b9b1765979c2eefdc69da691db87"
            ),
        ),
    )
}

