"""Fixtures shared by several test modules."""
import pytest

from cdpm import data
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
