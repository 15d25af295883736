#!/usr/bin/env python3
"""Directional study: cluster weighting strategies under 85/15 imbalance.

Fine-tunes the same pretrained checkpoint with idro / groupdro / uniform
weighting on the imbalanced source task and reports final retrieval loss on
the rare query group and on all queries (fixed model-independent negatives).
Expected qualitative ordering of seed means: groupdro lowest on the rare
group but with a worse average than idro; idro below uniform on the rare
group.
"""

import argparse
import logging
import sys

import numpy as np

from robustdr.experiments import run_idro_directional


def main(argv=None) -> int:
    """Print each seed's values and the verdict; the exit code is 1 on FAIL."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR)

    runs = []
    for seed in args.seeds:
        r = run_idro_directional(seed)
        runs.append(r)
        row = "  ".join(
            f"{w}: rare={r[w].rare:.4f} avg={r[w].average:.4f}"
            for w in ("idro", "groupdro", "uniform")
        )
        print(f"seed {seed}  {row}")

    means = {
        w: (
            float(np.mean([r[w].rare for r in runs])),
            float(np.mean([r[w].average for r in runs])),
        )
        for w in ("idro", "groupdro", "uniform")
    }
    print("\nseed means:")
    for w, (rare, avg) in means.items():
        print(f"  {w:9s} rare={rare:.4f} avg={avg:.4f}")
    ok = (
        means["idro"][0] < means["uniform"][0]
        and means["groupdro"][0] <= means["idro"][0]
        and means["groupdro"][1] > means["idro"][1]
    )
    print(f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
