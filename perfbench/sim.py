"""The benchmark's simulated robot controller, in a process of its own.

Binds an ephemeral port on 127.0.0.1, prints "port N" on one line, and then
serves connections one after another until its stdin closes, which also
happens when the process that started it dies. A client's
QUIT ends only that connection (stop_on_quit=False), so one controller, and
one seeded tie-failure stream, serves a whole benchmark run.

    PYTHONPATH=src python3 perfbench/sim.py --seed 1
"""

import argparse
import os
import sys
import threading

from rebartie.robot import SimRobotConfig, SimRobotServer

from inputs import TIE_FAILURE_RATE, WORKSPACE_CENTER, WORKSPACE_RADIUS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    config = SimRobotConfig(
        workspace_center=WORKSPACE_CENTER,
        workspace_radius=WORKSPACE_RADIUS,
        tie_failure_rate=TIE_FAILURE_RATE,
        seed=args.seed,
    )
    server = SimRobotServer(config, port=0, stop_on_quit=False)
    print(f"port {server.port}", flush=True)
    threading.Thread(target=_exit_at_eof, daemon=True).start()
    server.serve_forever()


def _exit_at_eof():
    sys.stdin.read()
    os._exit(0)


if __name__ == "__main__":
    main()
