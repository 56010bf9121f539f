"""Talk to the stencil-compute service: submit, observe the cache tiers.

Run with::

    python examples/service_client.py

The example is self-contained: it starts a service on a background thread
(ephemeral port, temporary store — exactly what ``repro-serve`` runs), then
walks the request lifecycle a deployment would see:

1. submit a ``plan`` request and inspect the compiled configuration,
2. submit the *same* request again — served from the in-memory cache,
3. submit an ``estimate`` and a sharded ``study`` (method × unroll sweep),
4. simulate a small grid and get the final values back as a NumPy array,
5. restart the service over the same store directory and resubmit: the
   answer now comes from the persistent store, byte-identical, with no
   recomputation,
6. dump the ``/stats`` surface: per-kind counters, cache hit rates, queue
   depth, latency histograms.

The client keeps its connection open between requests; the ``with`` block
closes it.  Against a long-running server, replace :func:`serve_background`
with the URL of your deployment::

    with ServiceClient("http://my-host:8750") as client:
        ...
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.service import ServiceClient, ServiceConfig, serve_background


def main() -> None:
    store = Path(tempfile.mkdtemp(prefix="repro-service-example-")) / "store"

    def fresh_service():
        return serve_background(ServiceConfig(port=0, store_path=str(store), workers=0))

    handle = fresh_service()
    print(f"service up at {handle.base_url}, store at {store}")
    with ServiceClient(handle.base_url) as client:
        # -------------------------------------------------------------- #
        # 1-2. a plan request, twice: computed, then an in-memory cache hit
        # -------------------------------------------------------------- #
        plan_request = {"kind": "plan", "stencil": "2d9p", "method": "folded", "m": 2}
        reply = client.submit(plan_request)
        print(f"\nplan: served_from={reply['served_from']} key={reply['key']}")
        print(
            f"  label={reply['result']['label']!r} "
            f"steps/update={reply['result']['steps_per_update']}"
        )

        reply = client.submit(plan_request)
        print(f"plan again: served_from={reply['served_from']} ({reply['elapsed_ms']:.2f} ms)")

        # -------------------------------------------------------------- #
        # 3. an estimate and a study (the service shards the cross-product)
        # -------------------------------------------------------------- #
        reply = client.submit({"kind": "estimate", "stencil": "2d9p", "m": 4})
        result = reply["result"]
        print(f"\nestimate: {result['gflops']:.1f} GFLOPS ({result['bound']}-bound)")

        reply = client.submit(
            {
                "kind": "study",
                "stencil": "2d9p",
                "axes": {"method": ["folded", "multiple_loads"], "m": [1, 2, 4]},
            }
        )
        print(f"study: {reply['result']['cells']} cells")
        for row in reply["result"]["rows"]:
            print(f"  {row['method']:>15s} m={row['m']}: {row['gflops']:7.1f} GFLOPS")

        # -------------------------------------------------------------- #
        # 4. simulate: the values come back as a real NumPy array
        # -------------------------------------------------------------- #
        simulate_request = {
            "kind": "simulate",
            "stencil": "1d-heat",
            "m": 2,
            "shape": [128],
            "steps": 8,
        }
        reply = client.submit(simulate_request)
        values = reply["result"]["values"]
        print(
            f"\nsimulate: values {values.shape} {values.dtype}, "
            f"{reply['result']['instructions']['total']} simulated instructions"
        )

    handle.stop()

    # ------------------------------------------------------------------ #
    # 5. restart over the same store: the repeat is a persistent-store hit
    # ------------------------------------------------------------------ #
    print("\nservice stopped; restarting over the same store...")
    handle = fresh_service()
    with ServiceClient(handle.base_url) as client:
        reply = client.submit(simulate_request)
        print(
            f"simulate after restart: served_from={reply['served_from']} "
            f"({reply['elapsed_ms']:.2f} ms, no recomputation)"
        )
        assert reply["served_from"] == "store"

        # -------------------------------------------------------------- #
        # 6. the /stats surface
        # -------------------------------------------------------------- #
        stats = client.stats()
    handle.stop()
    totals = stats["service"]["totals"]
    print(
        f"\nstats: {totals['received']} received, "
        f"{totals['store_hits']} store hits, "
        f"hit rate {stats['service']['hit_rate']:.2f}"
    )
    print(f"  store: {stats['store']['entries']} entries, {stats['store']['bytes']} bytes")


if __name__ == "__main__":
    main()
