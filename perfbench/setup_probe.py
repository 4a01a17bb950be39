"""Time one set-up in a fresh process and print it as JSON.

Set-up is importing `starkzz` and loading, validating and building every
preset a workload uses (the device-a bare-parameter fit included).  Run as
`python3 perfbench/setup_probe.py WORKLOAD` from the repository root.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import chain_overrides, presets  # noqa: E402


def main(workload: str) -> None:
    start = time.perf_counter()
    import starkzz.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from starkzz.config import apply_override, load_preset, to_system
    for name, cut in presets(workload):
        doc = load_preset(name)
        if cut:
            for assignment in chain_overrides(doc):
                doc = apply_override(doc, assignment)
        to_system(doc)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1])
