"""Lets ``python3 -m pytest perfbench`` import the benchmark modules and rews."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

env.prepare()
