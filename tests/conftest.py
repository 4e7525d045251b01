from pathlib import Path

import pytest

from .samples import implicit_sample, remote_sample

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def remote_passage():
    return remote_sample()


@pytest.fixture
def implicit_passage():
    return implicit_sample()


@pytest.fixture
def data_dir():
    return DATA_DIR
