#!/usr/bin/env python3
"""Toy-problem study: MCMC-initialized and mixture-initialized iterative
importance sampling on the 2-d multimodal target, one `isalib run` each with
configs/toy2d_mcmc.json and configs/toy2d_gmm.json.  Extra arguments, such as
--seed, go to both runs; the exit code is the first nonzero one."""

import sys

from isalib.cli import main

if __name__ == "__main__":
    codes = [main(["run", "--config", f"configs/toy2d_{init}.json"] + sys.argv[1:])
             for init in ("mcmc", "gmm")]
    sys.exit(next((code for code in codes if code), 0))
