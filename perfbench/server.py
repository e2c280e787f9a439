"""The served side of an end-to-end run: W-USA behind ``GatewayApp`` on a socket.

Started by ``e2e.py`` as its own process (with ``src`` on ``PYTHONPATH``).
It sets the deployment up ``SETUPS`` times, timing each set-up from graph
generation to a listening socket, keeps the last one serving, and speaks a
line protocol on its standard streams:

* stdout, once listening: ``{"port", "setup_s": [...], "index_mb"}``;
* stdin ``stop``: close everything, then stdout ``{"rss_mb"}`` and exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from repro.datasets import load_dataset
from repro.gateway import GatewayApp, GatewayConfig
from repro.gateway.server import serve_in_background
from repro.serving import EngineHost
from repro.traffic import TrafficController

from workloads import DATASET, DEPLOYMENT, NUM_POINTS, SETUPS, SPEC

#: The edge guards stay in place but can never fire at this benchmark's load
#: (one reader connection and one writer), so no request is refused.
GATEWAY = GatewayConfig(
    rate_limit_qps=1e9, rate_limit_burst=10**9, max_in_flight=10**6
)


def set_up():
    """Graph, index build, deployment, gateway and controller, listening."""
    graph = load_dataset(DATASET, num_points=NUM_POINTS)
    host = EngineHost()
    host.deploy(DEPLOYMENT, SPEC, graph)
    controller = TrafficController(host, DEPLOYMENT)
    app = GatewayApp(host, config=GATEWAY)
    app.attach_controller(controller)
    handle = serve_in_background(app)
    return host, controller, handle


def tear_down(host, controller, handle) -> None:
    handle.close()
    controller.close()
    host.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    setup_s = []
    served = None
    for i in range(SETUPS):
        started = time.perf_counter()
        served = set_up()
        setup_s.append(time.perf_counter() - started)
        if i < SETUPS - 1:
            tear_down(*served)
    host, controller, handle = served
    snapshot = host.snapshot(DEPLOYMENT, args.workdir / "deployed")
    index_bytes = sum(p.stat().st_size for p in snapshot.rglob("*") if p.is_file())
    print(
        json.dumps({"port": handle.port, "setup_s": setup_s, "index_mb": index_bytes / 1e6}),
        flush=True,
    )
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    tear_down(host, controller, handle)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rss_mb": rss_mb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
