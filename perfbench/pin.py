"""Regenerate the pinned outputs in ``expected.json``.

Run from the repository root, on the commit whose outputs are the
reference (pins must change only when a change means to alter results)::

    python3 perfbench/pin.py --seeds 0 1 2

Each workload runs one untraced cycle per seed; its outputs must pass the
range invariants before their digests are pinned.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    workloads, _ = run.load_program()
    pins = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            state = workload.prepare(seed, run.SCRATCH / f"pin-{name}")
            try:
                outputs = {}
                passes = run.run_cycle(workload, state.items, run.HostClock())
                for item, timed in zip(state.items, passes):
                    if workloads.failures(workload, item, timed.outputs, None):
                        run.log(f"{name} seed {seed}: invalid outputs, not pinned")
                        return 1
                    outputs.update(workloads.digests(timed.outputs))
            finally:
                workload.cleanup(state)
            pins.setdefault(name, {})[str(seed)] = outputs
            run.log(f"pinned {name} seed {seed}: {len(outputs)} operations")
    run.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
