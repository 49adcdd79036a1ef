"""Prometheus text-format rendering of service counters.

Hand-rolled exposition (text format 0.0.4) — the format is a stable,
trivial contract and taking a client-library dependency for counter
lines would invert the cost/benefit.  Tenant names are validated to a
label-safe alphabet at creation, so no escaping is needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .app import ServeApp

__all__ = ["render_metrics"]


def _line(
    name: str, value: "int | float", labels: "dict[str, str] | None" = None
) -> str:
    if labels:
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
        return f"{name}{{{inner}}} {value}"
    return f"{name} {value}"


def render_metrics(app: "ServeApp") -> str:
    """The full exposition for one service instance."""
    out: list[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {kind}")

    queue = app.queue
    family("repro_serve_queue_depth", "gauge", "Jobs waiting in the ingest queue.")
    out.append(_line("repro_serve_queue_depth", queue.depth()))
    family("repro_serve_queue_capacity", "gauge", "Bound of the ingest queue.")
    out.append(_line("repro_serve_queue_capacity", queue.capacity))
    family(
        "repro_serve_jobs_admitted_total", "counter",
        "Ingest jobs admitted to the queue.",
    )
    out.append(_line("repro_serve_jobs_admitted_total", queue.admitted))
    family(
        "repro_serve_jobs_rejected_total", "counter",
        "Ingest jobs rejected with 429 (queue full).",
    )
    out.append(_line("repro_serve_jobs_rejected_total", queue.rejected))
    family(
        "repro_serve_jobs_drained_total", "counter",
        "Ingest jobs drained into engines.",
    )
    out.append(_line("repro_serve_jobs_drained_total", queue.drained))

    tenants = app.registry.tenants()
    family("repro_serve_tenants", "gauge", "Live tenants.")
    out.append(_line("repro_serve_tenants", len(tenants)))

    family(
        "repro_serve_updates_ingested_total", "counter",
        "Edge updates absorbed into sketch state, per tenant.",
    )
    for t in tenants:
        out.append(_line(
            "repro_serve_updates_ingested_total",
            t.updates_ingested, {"tenant": t.name},
        ))
    family(
        "repro_serve_batches_ingested_total", "counter",
        "Batches absorbed into sketch state, per tenant.",
    )
    for t in tenants:
        out.append(_line(
            "repro_serve_batches_ingested_total",
            t.batches_ingested, {"tenant": t.name},
        ))
    family(
        "repro_serve_batches_deduplicated_total", "counter",
        "Batch submissions answered from the idempotency store.",
    )
    for t in tenants:
        out.append(_line(
            "repro_serve_batches_deduplicated_total",
            t.batches_deduplicated, {"tenant": t.name},
        ))
    family(
        "repro_serve_drain_errors_total", "counter",
        "Admitted jobs that failed while draining.",
    )
    for t in tenants:
        out.append(_line(
            "repro_serve_drain_errors_total",
            t.drain_errors, {"tenant": t.name},
        ))
    family(
        "repro_serve_queries_total", "counter",
        "Queries answered, per tenant and capability.",
    )
    for t in tenants:
        for capability, count in sorted(t.queries.items()):
            out.append(_line(
                "repro_serve_queries_total",
                count, {"tenant": t.name, "capability": capability},
            ))
    family(
        "repro_serve_query_seconds_total", "counter",
        "Wall-clock seconds spent answering queries, per tenant.",
    )
    for t in tenants:
        out.append(_line(
            "repro_serve_query_seconds_total",
            t.query_seconds, {"tenant": t.name},
        ))
    family(
        "repro_serve_query_payload_bytes_total", "counter",
        "Serialised sketch bytes loaded to answer queries, per tenant.",
    )
    for t in tenants:
        out.append(_line(
            "repro_serve_query_payload_bytes_total",
            t.query_payload_bytes, {"tenant": t.name},
        ))

    from .. import kernels

    family(
        "repro_kernel_backend_info", "gauge",
        "Active kernel backend (value is always 1).",
    )
    out.append(_line(
        "repro_kernel_backend_info", 1, {"backend": kernels.backend_name()},
    ))
    family(
        "repro_kernel_calls_total", "counter",
        "Kernel invocations, per kernel and backend.",
    )
    stats = kernels.kernel_stats()
    for row in stats:
        out.append(_line(
            "repro_kernel_calls_total", row["calls"],
            {"kernel": row["kernel"], "backend": row["backend"]},
        ))
    family(
        "repro_kernel_seconds_total", "counter",
        "Wall-clock seconds inside kernels, per kernel and backend.",
    )
    for row in stats:
        out.append(_line(
            "repro_kernel_seconds_total", row["seconds"],
            {"kernel": row["kernel"], "backend": row["backend"]},
        ))
    return "\n".join(out) + "\n"
