#!/usr/bin/env python3
"""Write the synthetic benchmarks to disk in BEIR-style file layouts.

Produces <out>/source and <out>/target (the two-domain benchmark with disjoint
topical vocabularies) plus <out>/imbalanced (the 85/15 source task), each with
corpus.jsonl, queries.jsonl and qrels.tsv, ready for the CLI.
"""

import argparse
import json
from pathlib import Path

from robustdr import blobfile
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark, write_task_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()

    out = Path(args.out)
    source, target = make_two_domain_benchmark(seed=args.seed)
    write_task_dir(source, out / "source")
    write_task_dir(target, out / "target")
    imbalanced, groups = make_imbalanced_source(seed=args.seed + 1000)
    write_task_dir(imbalanced, out / "imbalanced")
    with blobfile.atomic_open(out / "imbalanced" / "groups.json", "w") as fh:
        fh.write(json.dumps(groups, sort_keys=True, indent=2))
    for bundle in (source, target, imbalanced):
        print(f"{bundle.name}: {len(bundle.corpus)} docs, {len(bundle.queries)} queries")


if __name__ == "__main__":
    main()
