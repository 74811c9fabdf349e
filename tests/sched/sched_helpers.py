"""Shared job factory and outcome digest for the scheduling-subsystem tests."""

import hashlib
import json
from itertools import compress

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.trace.schema import JobRecord


def make_job(
    job_id,
    architecture=Architecture.SINGLE,
    num_cnodes=1,
    submit_day=0,
    weight_traffic=1e6,
):
    """One synthetic trace job with the given deployment shape."""
    features = WorkloadFeatures(
        name=f"job-{job_id}",
        architecture=architecture,
        num_cnodes=num_cnodes,
        batch_size=32,
        flop_count=1e9,
        memory_access_bytes=1e6,
        input_bytes=1e3,
        weight_traffic_bytes=(
            0.0 if architecture is Architecture.SINGLE else weight_traffic
        ),
        dense_weight_bytes=1e6,
    )
    return JobRecord(job_id=job_id, features=features, submit_day=submit_day)


def placement_pairs(placement):
    """Sorted nonzero ``(server, gpus)`` pairs of a placement."""
    counts = placement.gpus_by_server
    return list(compress(enumerate(counts), counts))


def outcome_digest(outcome):
    """SHA-256 of everything a scheduling run produced.

    Covers the policy name, every job outcome in order (arrival,
    service hours, retries and each segment's hours and placement), the
    rejected job ids in order, and the fleet telemetry.  Floats are
    serialized with ``repr`` (JSON), which round-trips exactly, and
    placements as sorted nonzero ``(server, gpus)`` pairs, so the digest
    does not depend on how a placement is stored in memory.
    """
    telemetry = outcome.telemetry
    document = {
        "policy": outcome.policy,
        "total_gpus": outcome.total_gpus,
        "jobs": [
            [
                o.job.job_id,
                o.arrival_hour,
                o.service_hours,
                o.retries,
                [
                    [s.start_hour, s.end_hour, placement_pairs(s.placement)]
                    for s in o.segments
                ],
            ]
            for o in outcome.outcomes
        ],
        "rejected": [job.job_id for job in outcome.rejected],
        "telemetry": None
        if telemetry is None
        else [
            telemetry.total_gpus,
            telemetry.active_gpu_hours,
            [
                [
                    s.hour,
                    s.busy_gpus,
                    s.free_gpus,
                    s.running_jobs,
                    s.queue_depth,
                    s.fragmentation,
                ]
                for s in telemetry.samples
            ],
        ],
    }
    text = json.dumps(document, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
