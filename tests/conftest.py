import sys
from pathlib import Path

import pytest
from hypothesis import settings

# fixed examples, no database and no timing: the suite is reproducible and
# its run time bounded
settings.register_profile("symlie", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("symlie")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return ROOT / "corpus"
