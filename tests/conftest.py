import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def pytest_configure(config):
    if not __debug__:  # python -O strips asserts, so the fixtures would pass vacuously
        pytest.exit("python -O strips assert statements; run the tests without -O", pytest.ExitCode.USAGE_ERROR)
