"""End-of-run component scraping into the metrics registry.

Event-driven push sites (NIC tx, drops, barrier waits) populate the
registry *during* the run; this module adds the complementary pull pass:
after ``sim.run()`` drains, :func:`scrape_cluster` walks the cluster and
copies each component's cumulative counters into **gauges** (idempotent —
scraping twice overwrites rather than double-counts).  Together they give
one registry snapshot per run covering every layer the paper's telemetry
touches: NIC counters and per-band HTB occupancy, switch port busy time
and drops, transport totals, host CPU busy time, and the TensorLights
deployment cost (tc reconfigurations).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.net.qdisc.htb import HTBQdisc
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.tensorlights.controller import TensorLights


def scrape_cluster(
    registry: MetricsRegistry,
    cluster: "Cluster",
    controller: Optional["TensorLights"] = None,
) -> None:
    """Copy cumulative component counters into gauges on ``registry``.

    Safe on a disabled registry (no-op) and on any topology — switch
    introspection is skipped for fabrics without a single ``switch``
    attribute (e.g. the two-tier network).
    """
    if not registry.enabled:
        return
    gauge = registry.gauge

    for host_id in cluster.host_ids:
        host = cluster.host(host_id)
        nic = host.nic
        if nic is not None:
            gauge("nic_bytes_tx_total", host=host_id).set(nic.bytes_tx)
            gauge("nic_bytes_rx_total", host=host_id).set(nic.bytes_rx)
            gauge("nic_segments_tx_total", host=host_id).set(nic.segments_tx)
            gauge("nic_segments_rx_total", host=host_id).set(nic.segments_rx)
            gauge("nic_busy_seconds_total", host=host_id).set(
                nic.utilization_snapshot()["busy_time"]
            )
            gauge("nic_backlog_segments", host=host_id).set(len(nic.qdisc))
            scrape_qdisc(registry, host_id, nic.qdisc)
        gauge("host_cpu_busy_seconds_total", host=host_id).set(
            host.cpu.utilization_snapshot()
        )

    network = cluster.network
    for host_id, transport in network.transports.items():
        gauge("transport_messages_sent_total", host=host_id).set(
            transport.messages_sent
        )
        gauge("transport_messages_delivered_total", host=host_id).set(
            transport.messages_delivered
        )
        gauge("transport_messages_unrouted_total", host=host_id).set(
            transport.messages_unrouted
        )
        gauge("transport_segments_lost_total", host=host_id).set(
            transport.segments_lost
        )
        gauge("transport_retransmits_total", host=host_id).set(
            transport.segments_retransmitted
        )

    switch = getattr(network, "switch", None)
    if switch is not None:
        for host_id in cluster.host_ids:
            port = switch.port(host_id)
            if port is None:
                continue
            gauge("switch_port_bytes_tx_total", port=host_id).set(port.bytes_tx)
            gauge("switch_port_busy_seconds_total", port=host_id).set(
                port.busy_time
            )
            gauge("switch_port_max_backlog_segments", port=host_id).set(
                port.max_backlog
            )
            gauge("switch_port_drops_total", port=host_id).set(port.drops)
        gauge("switch_segments_forwarded_total").set(switch.segments_forwarded)
        gauge("switch_drops_total").set(switch.total_drops)

    if controller is not None:
        gauge("tl_reconfigurations_total").set(controller.reconfigurations)


def scrape_qdisc(registry: MetricsRegistry, host_id: str, qdisc) -> None:
    """Per-band HTB sent and backlog bytes, when ``qdisc`` is an HTB."""
    if not isinstance(qdisc, HTBQdisc):
        return
    for leaf in qdisc.leaves:
        registry.gauge(
            "qdisc_band_sent_bytes_total", host=host_id,
            classid=leaf.classid, prio=leaf.prio,
        ).set(leaf.sent_bytes)
        registry.gauge(
            "qdisc_band_backlog_bytes", host=host_id,
            classid=leaf.classid, prio=leaf.prio,
        ).set(leaf.queued_bytes)
    registry.gauge("qdisc_drops_total", host=host_id).set(qdisc.drops)
