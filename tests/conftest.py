"""Fixtures shared by several test modules."""
import pytest

from cdpm import data, ops
from cdpm.annotations import load_annotations


@pytest.fixture(scope="module")
def tiny_bench(tmp_path_factory):
    """A 6-identity synthetic benchmark and its annotations."""
    root = tmp_path_factory.mktemp("tinybench")
    index = data.generate_benchmark(
        root, train_identities=6, images_per_identity=4,
        test_identities=3, test_images_per_identity=3, seed=2,
    )
    anns = load_annotations(index.annotations_path)
    return index, anns


@pytest.fixture
def block_passes(monkeypatch):
    """Two block workers, and one entry per block pass started from here on:
    False until the pass's wait handle has joined its workers, then True."""
    monkeypatch.setattr(ops, "WORKERS", 2)
    passes = []
    run_blocks = ops._run_blocks

    def recorded_run_blocks(*args, **kwargs):
        wait, index = run_blocks(*args, **kwargs), len(passes)
        passes.append(False)

        def joined():
            result = wait()
            passes[index] = True
            return result

        return joined

    monkeypatch.setattr(ops, "_run_blocks", recorded_run_blocks)
    return passes
