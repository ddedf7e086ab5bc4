import os

import perilame


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src first on sys.path, ahead of
    # PYTHONPATH; the header shows which package tree the run tests
    return f"perilame imported from {os.path.dirname(perilame.__file__)}"
