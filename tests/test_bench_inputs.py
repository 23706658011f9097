"""The benchmark's generated inputs are pinned.

Each side of a benchmark comparison generates its inputs with its own
``cubeplan``, so a change to a walk, a writer or an oracle would change
what is measured without any timing showing it.  These digests pin every
workload's files and reference answers for two seeds; a change that
moves one changes the benchmark and must say so.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "perfbench" / "bench_inputs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_inputs = load_bench_inputs()

DIGESTS = {
    ("hex-local", 1): "9b124746aaa0d7d5cd64c3ca729b9ecf5ab0448c7897e2199b47fa6fe641b03b",
    ("hex-local", 2): "604659a2b700707569f3bdeb5ed445393d9371ccaf4b2c0fd7a78bea2cf82a17",
    ("hex-connected", 1): "2e594649add62bc133741dcaa7c8391e972cdab86343256916b3045e5b2116a0",
    ("hex-connected", 2): "fbbf9659d23c3d76b3108b5b9e0021f082dd8ae04c764c9c74b4aef6b314b9ea",
    ("arm-topology", 1): "e805a5266da4d1c020a7e979e4c7645170cd6c59ba8ae6d69a51c1cdfc08c443",
    ("arm-topology", 2): "6883bec9568b0453d1345b29b876cbd34251f6958c7ff8a40db354206712beb0",
    ("paths-shapes", 1): "2d6f826ff3cbe431f6b05b6dfe1a19a5003a77da66c40134d59697ebde4406a9",
    ("paths-shapes", 2): "d11d5ff295cbd61ca8c915865dcc8316c451d4831c7fb74184b7217fe6ba2fa5",
}


def test_every_workload_and_seed_is_pinned():
    assert set(DIGESTS) == {(w, s) for w in bench_inputs.WORKLOADS for s in (1, 2)}


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_generated_inputs_match_their_digest(workload, seed, tmp_path):
    """sha256 over each file in sorted relative POSIX path order (path
    bytes, then content bytes), then the references as sorted-key JSON."""
    out = tmp_path / f"{workload}-{seed}"
    out.mkdir()
    refs = bench_inputs.generate(workload, seed, out)
    digest = hashlib.sha256()
    for name in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        digest.update(name.encode())
        digest.update((out / name).read_bytes())
    digest.update(json.dumps(refs, sort_keys=True).encode())
    assert digest.hexdigest() == DIGESTS[workload, seed]
