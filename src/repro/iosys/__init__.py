"""Simulated Lustre/Cray-XT parallel I/O substrate."""

from .cache import PageCache
from .client import FsArbiter, IoResult, LustreClient
from .erasure import ErasureCodedLayout, ParityUpdate, ReconstructionStep
from .faults import DEGRADE, MDS_HICCUP, STALL, TAIL_BURST, FaultSchedule, FaultWindow
from .locks import ExtentLockTracker
from .machine import GiB, KiB, MachineConfig, MiB
from .mds import MetadataServer
from .ost import OstPool
from .posix import O_CREAT, O_RDONLY, O_RDWR, O_SYNC, O_WRONLY, IoSystem, PosixIo, SimFile
from .readahead import ReadAheadEngine, ReadPlan, StreamState
from .replication import ReplicatedLayout
from .scheduler import (
    BurstArrivals,
    Facility,
    FacilityResult,
    JobResult,
    PoissonArrivals,
    TenantJob,
    TraceArrivals,
    WORKLOADS,
    assign_arrivals,
    parse_arrival_spec,
    parse_tenant_spec,
)
from .striping import Extent, Placement, StripeLayout
from .telemetry import JobWindow, TelemetryCollector, TelemetryTimeline

__all__ = [
    "PageCache",
    "FsArbiter",
    "IoResult",
    "LustreClient",
    "ExtentLockTracker",
    "FaultSchedule",
    "FaultWindow",
    "DEGRADE",
    "STALL",
    "MDS_HICCUP",
    "TAIL_BURST",
    "GiB",
    "KiB",
    "MachineConfig",
    "MiB",
    "MetadataServer",
    "OstPool",
    "O_CREAT",
    "O_SYNC",
    "O_RDONLY",
    "O_RDWR",
    "O_WRONLY",
    "IoSystem",
    "PosixIo",
    "SimFile",
    "ReadAheadEngine",
    "ReadPlan",
    "StreamState",
    "ReplicatedLayout",
    "ErasureCodedLayout",
    "ParityUpdate",
    "ReconstructionStep",
    "Extent",
    "Placement",
    "StripeLayout",
    "TenantJob",
    "PoissonArrivals",
    "BurstArrivals",
    "TraceArrivals",
    "assign_arrivals",
    "parse_tenant_spec",
    "parse_arrival_spec",
    "Facility",
    "JobResult",
    "FacilityResult",
    "WORKLOADS",
    "JobWindow",
    "TelemetryCollector",
    "TelemetryTimeline",
]
