"""Paths, input recipes and small helpers shared by the benchmark scripts.

The benchmark runs from the root of a source checkout and imports spellcap
from its ``src/`` directory; nothing needs to be installed.
"""

import hashlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
CHECKPOINT = REFERENCE_DIR / "model.ckpt"
CHECKPOINT_RECIPE = REFERENCE_DIR / "checkpoint.json"
REFERENCE_OUTPUTS = REFERENCE_DIR / "outputs.json"
WORK_DIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 1

# README quick-start channel plus a 3-best list, as the rule baseline sees it.
QUICKSTART_NOISE = {
    "letter_sub_prob": "0.15",
    "nato_prob": "0.3",
    "fullname_prob": "0.2",
    "nbest_size": "3",
}
# The paper's NATO-heavy slice: every letter expanded, whole-name patterns only.
NATO_NOISE = {
    "letter_sub_prob": "0.15",
    "nato_prob": "1.0",
    "fullname_prob": "0.2",
    "nbest_size": "3",
    "pattern_weights": "0,0,0,1,1",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or references)."""


def use_checkout_sources():
    """Import spellcap from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "spellcap" / "cli.py").is_file():
        raise SetupError(f"no spellcap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import spellcap

    if Path(spellcap.__file__).resolve().parent != SRC / "spellcap":
        raise SetupError(f"imported spellcap from {spellcap.__file__}, not {SRC}")


def write_kv(path, values: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")
    return str(path)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def data_seed(seed: int, offset: int) -> int:
    """Input seed for one workload; offsets keep every stream apart from the
    reference checkpoint's training corpus (generated with seed 0)."""
    return 1000 * (seed + 1) + offset
