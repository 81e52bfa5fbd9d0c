"""Set-up probe: a fresh interpreter imports the CLI, loads the workload's
config and builds its target, then prints "ready".  run.py times a launch
from the start of the process to that line.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/setup_probe.py CONFIG
"""

import sys

from isalib import cli

cli.build_target(cli.RunConfig.load(sys.argv[1]))
print("ready", flush=True)
