"""The golden corpus: outputs as they were when each slice was written (see tests/golden)."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from golden.make_golden import SLICES, environment

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(SLICES))
def test_the_golden_corpus_repeats(name):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())[name]
    with np.load(GOLDEN / f"{name}.npz") as stored:
        want = {key: stored[key] for key in stored.files}
    got = SLICES[name]()
    assert sorted(got) == sorted(want)
    exact = manifest["environment"] == environment()
    if not exact:
        warnings.warn(
            f"golden slice {name} written in {manifest['environment']}, compared in {environment()}: "
            "within 1e-12 relative, not bit for bit, and checkpoint hashes not compared"
        )
    for key in want:
        if exact:
            assert got[key].shape == want[key].shape and got[key].tobytes() == want[key].tobytes(), key
        elif not key.endswith(".sha256"):
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
