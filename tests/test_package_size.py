"""The package stays within the line count of the seed commit."""

from pathlib import Path

import wavereg

SEED_LINES = 1567  # `wc -l src/wavereg/*.py` at the seed commit


def test_package_is_no_longer_than_the_seed():
    package = Path(wavereg.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert lines <= SEED_LINES
