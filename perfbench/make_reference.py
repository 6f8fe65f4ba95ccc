"""Build the benchmark's fixed reference files.

    python3 perfbench/make_reference.py checkpoint   # ~7 min on 2 cores
    python3 perfbench/make_reference.py outputs      # ~2 min

``checkpoint`` trains the reference model through the CLI with the recipe of
the acceptance test's noisy system and records the recipe and the sha256 of
the file. ``outputs`` runs each workload once on the default seed and records
what its correctness checks compare against. Rebuilding either changes what
later runs are checked against, so do it only on purpose.
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

CHECKPOINT_RECIPE = {
    "samples": 5000,
    "seed": 0,
    "noise": common.QUICKSTART_NOISE,
    "model": {"n_merges": "200", "dropout": "0"},
    "epochs": 10,
    "learning_rate": 0.001,
    "batch_size": 32,
}


def build_checkpoint():
    from spellcap.cli import main

    r = CHECKPOINT_RECIPE
    with tempfile.TemporaryDirectory(dir=common.ROOT) as tmp:
        noise = common.write_kv(os.path.join(tmp, "noise.cfg"), r["noise"])
        model = common.write_kv(os.path.join(tmp, "model.cfg"), r["model"])
        corpus = os.path.join(tmp, "train.txt")
        ckpt = os.path.join(tmp, "model.ckpt")
        argv = ["generate", "--n", str(r["samples"]), "--seed", str(r["seed"]),
                "--noise", noise, "--out", corpus]
        if main(argv) != 0:
            raise SystemExit("generate failed")
        argv = ["train", "--train", corpus, "--out", ckpt, "--model-config", model,
                "--epochs", str(r["epochs"]), "--learning-rate", str(r["learning_rate"]),
                "--batch-size", str(r["batch_size"]), "--seed", str(r["seed"])]
        if main(argv) != 0:
            raise SystemExit("train failed")
        os.replace(ckpt, common.CHECKPOINT)
    record = {
        "recipe": r,
        "commands": [
            "spellcap generate --n 5000 --seed 0 --noise noise.cfg --out train.txt",
            "spellcap train --train train.txt --out model.ckpt --model-config model.cfg"
            " --epochs 10 --learning-rate 0.001 --batch-size 32 --seed 0",
        ],
        "sha256": common.sha256_file(common.CHECKPOINT),
    }
    with open(common.CHECKPOINT_RECIPE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.CHECKPOINT} sha256 {record['sha256']}")


def build_outputs():
    import workloads

    refs = {}
    for name in workloads.WORKLOADS:
        for size in ("full", "tiny"):
            run = workloads.run_workload(name, common.DEFAULT_SEED, 0, size=size)
            if run.problems:
                raise SystemExit(f"{name} ({size}) failed its checks: {run.problems}")
            refs.setdefault(name, {})[size] = run.recorded
            print(f"{name} ({size}): recorded {sorted(run.recorded)}")
    with open(common.REFERENCE_OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": common.DEFAULT_SEED, "workloads": refs}, fh,
                  indent=None, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.REFERENCE_OUTPUTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("checkpoint", "outputs"))
    args = parser.parse_args()
    common.use_checkout_sources()
    common.REFERENCE_DIR.mkdir(exist_ok=True)
    if args.what == "checkpoint":
        build_checkpoint()
    else:
        build_outputs()


if __name__ == "__main__":
    main()
