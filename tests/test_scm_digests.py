"""The SCM generator's seeded output, pinned: sha256 digests of random_scm documents.

Each case is ``json_text(scm_to_dict(random_scm(p, ALPHA, config, seed)))``
for p in P_VALUES, both modes, both coefficient laws, with and without
hidden confounders, and seeds 0-4. The generator draws permutations,
binomials, choices and uniforms, never a Pareto value, so its stream depends
on the numpy version only: the digests are compared under the numpy version
that recorded them and the test is skipped under any other.

Record path, for a change that alters the generator's output on purpose
(and says so in CHANGES.md): ``PYTHONPATH=src python tests/test_scm_digests.py``
rewrites ``tests/scm_digests.json`` from the code in the checkout.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from heavytail.formats import json_text, scm_from_dict, scm_to_dict
from heavytail.graph import COEFFICIENT_LAWS, MODES, GeneratorConfig, random_scm

FIXTURE = Path(__file__).with_name("scm_digests.json")
P_VALUES = (1, 4, 10, 30)
SEEDS = range(5)
ALPHA = 1.5


def cases():
    """(key, p, config, seed) of every pinned draw."""
    for p, mode, law, confounded, seed in itertools.product(
            P_VALUES, MODES, COEFFICIENT_LAWS, (False, True), SEEDS):
        key = f"p={p} mode={mode} law={law} confounders={int(confounded)} seed={seed}"
        yield key, p, GeneratorConfig(mode, law, confounded), seed


def digest(p: int, config: GeneratorConfig, seed: int) -> str:
    text = json_text(scm_to_dict(random_scm(p, ALPHA, config, seed)))
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> None:
    digests = {key: digest(p, config, seed) for key, p, config, seed in cases()}
    FIXTURE.write_text(json_text({"numpy": np.__version__, "digests": digests}),
                       encoding="utf-8")


def test_random_scm_documents_match_the_recorded_digests():
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if np.__version__ != fixture["numpy"]:
        pytest.skip(f"digests recorded under numpy {fixture['numpy']}, "
                    f"running {np.__version__}: its streams may differ")
    computed = {key: digest(p, config, seed) for key, p, config, seed in cases()}
    assert computed.keys() == fixture["digests"].keys()
    changed = [key for key in computed if computed[key] != fixture["digests"][key]]
    assert changed == []


@pytest.mark.parametrize("confounded", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_scm_documents_round_trip(mode, confounded):
    for seed in SEEDS:
        scm = random_scm(10, ALPHA, GeneratorConfig(mode, hidden_confounders=confounded), seed)
        back = scm_from_dict(scm_to_dict(scm))
        assert back.coefficients == scm.coefficients
        assert back.hidden == scm.hidden
        assert back.dag == scm.dag


if __name__ == "__main__":
    record()
