"""Cluster occupancy: schedule the trace onto a GPU fleet.

Replays the synthetic trace onto a 512-server fleet under FIFO with
:func:`repro.sched.run_schedule`, reproduces the Sec. II-A2 claim that
distributed training consumes more than 85% of compute resources, and
renders a per-step timeline of one simulated job for good measure.

Run with::

    python examples/cluster_occupancy.py
"""

from repro.core import Architecture, TABLE_VI_EFFICIENCIES, testbed_v100_hardware
from repro.graphs import Deployment, build_resnet50
from repro.sched import FifoPolicy, Fleet, run_schedule
from repro.sim import render_timeline, simulate_step
from repro.trace import generate_trace


def main() -> None:
    jobs = generate_trace(num_jobs=3000)
    result = run_schedule(
        jobs, Fleet(512), FifoPolicy(), collect_telemetry=False
    )

    print(
        f"scheduled {len(result.outcomes)} jobs on "
        f"{result.total_gpus} GPUs "
        f"({len(result.rejected)} rejected: they cannot fit the fleet)"
    )
    print(f"makespan: {result.makespan_hours / 24:.1f} days")
    print(f"average queueing delay: {result.mean_queueing_delay_hours:.2f} h")
    print(f"cluster utilization: {result.utilization():.1%}")
    print(
        f"distributed-training resource share: "
        f"{result.distributed_resource_share():.1%} (paper: >85%)"
    )

    print("\nGPU-hours by workload type:")
    by_type = result.gpu_hours_by_type()
    total = sum(by_type.values())
    for arch, hours in sorted(by_type.items(), key=lambda kv: -kv[1]):
        print(f"  {str(arch):18s} {hours:12.0f} GPU-h  ({hours / total:.1%})")

    print("\none simulated ResNet50 step on the testbed (timeline view):")
    measurement = simulate_step(
        build_resnet50(),
        Deployment(Architecture.ALLREDUCE_LOCAL, 4),
        testbed_v100_hardware(),
        TABLE_VI_EFFICIENCIES["ResNet50"],
    )
    print(render_timeline(measurement, width=64, max_resources=7))


if __name__ == "__main__":
    main()
