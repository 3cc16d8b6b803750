"""The benchmark's outputs on its own inputs: every item of each workload at
seed 7, sized for 16 seconds, run once, and the item digests hashed as
`bench/worker.measure` hashes them into the digest a run prints.

An output change on the benchmark's inputs fails here, not only in a
benchmark run.  From Python 3.12 on, `sum()` of floats is compensated, and
the population and audit workloads add their costs with it, so their
digests are pinned on 3.10 and 3.11 only.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

PINNED = {
    "fig3": "fff6be96118cf308abb92254363409641ad2732a46a4a5562b88b3d1090423ce",
    "swarm8": "2734cdac4737227fdd652b0b3039d863af021411e668c4d893c284cfb3b3cb5c",
    "population": "a492d6c5c646162802575fa20279d82c15e1ac2eafad44620b573a12c06cf49e",
    "audit": "b5ea352293e56c3e28ef2b776d49e6673a7b7d699f46e77a5570eefdbb8608ca",
}

COMPENSATED_SUM = sys.version_info >= (3, 12)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize(
    "name",
    [
        "fig3",
        "swarm8",
        pytest.param("population", marks=pytest.mark.skipif(COMPENSATED_SUM, reason="the bench sums with sum()")),
        pytest.param("audit", marks=pytest.mark.skipif(COMPENSATED_SUM, reason="the bench sums with sum()")),
    ],
)
def test_seed_7_digest(workloads, tmp_path, name):
    workload = workloads.make(name, tmp_path, 7, 16)
    workload.setup()
    items = [workload.run_item(j) for j in range(workload.n_items)]
    assert not any(failed for item in items for failed in item.failed)
    assert hashlib.sha256("".join(item.digest for item in items).encode()).hexdigest() == PINNED[name]
