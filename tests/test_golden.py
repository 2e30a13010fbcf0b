"""The golden corpus: train() outputs as they were when the corpus was written (see tests/golden)."""

import json
import warnings
from pathlib import Path

import numpy as np

from golden.make_golden import corpus, environment

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_the_mlp_training_corpus_repeats():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    with np.load(GOLDEN / "mlp.npz") as stored:
        want = {key: stored[key] for key in stored.files}
    got = corpus()
    assert sorted(got) == sorted(want)
    exact = manifest["environment"] == environment()
    if not exact:
        warnings.warn(
            f"golden corpus written in {manifest['environment']}, compared in {environment()}: "
            "within 1e-12 relative, not bit for bit"
        )
    for key in want:
        if exact:
            assert got[key].shape == want[key].shape and got[key].tobytes() == want[key].tobytes(), key
        else:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
