"""The set-up every `ovc` run pays before its first check.

Usage: python3 perfbench/setup_child.py CONFIG_JSON

Imports the CLI, validates the configuration with `RunConfig` and builds the
two spaces `ovc verify` builds (the configured one and the d=1, k=4 scalar
one).  The benchmark times this process from spawn to exit.
"""

import json
import sys

from ovc.cli import RunConfig

with open(sys.argv[1]) as fh:
    config = RunConfig(json.load(fh))
config.build_space()
config.build_space(d=1, k=4)
