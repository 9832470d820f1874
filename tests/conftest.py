import os
import time
from pathlib import Path

import pytest


@pytest.fixture
def settle():
    """Wait until the file system stamps a new file later than the last
    change of each given file: a file read from then on is older than the
    read, so the parse cache keeps its table."""

    def wait(*paths):
        last = max(max(os.stat(p).st_ctime_ns, os.stat(p).st_mtime_ns) for p in paths)
        probe = Path(paths[0]).parent / ".settle-probe"
        while True:
            probe.touch()
            made = os.stat(probe).st_ctime_ns
            probe.unlink()
            if made > last:
                return
            time.sleep(0.001)

    return wait
