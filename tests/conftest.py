import re

import pytest

import soar.index

_CRITERIA: list[tuple[int, bool, str]] = []
_COLLECTED: set[int] = set()


def pytest_runtest_setup(item):
    m = re.match(r"test_criterion_(\d+)_", item.name)
    if m:
        _COLLECTED.add(int(m.group(1)))


@pytest.fixture(scope="session")
def criterion_report():
    """Collects one (number, passed, detail) entry per acceptance criterion;
    the terminal summary prints them as PASS/FAIL lines."""

    def record(number: int, passed: bool, detail: str) -> bool:
        _CRITERIA.append((number, passed, detail))
        return passed

    return record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    recorded = {number for number, _, _ in _CRITERIA}
    rows = sorted(_CRITERIA) + [
        (number, False, "test errored before recording a result")
        for number in sorted(_COLLECTED - recorded)
    ]
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(rows):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{word} criterion-{number}: {detail}")


class _HalfWriter:
    """A file that takes half the bytes, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")


@pytest.fixture()
def fill_disk(monkeypatch):
    """Call it to make every file that soar.index opens for writing
    (index.write_atomic, through which every index, vecs, synth and CSV
    file is written) take half of each write and then fail like a full
    disk; reading an index still works. monkeypatch.undo() ends it."""
    real_open = open

    def half_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if "w" in mode else fh

    def fill():
        monkeypatch.setattr(soar.index, "open", half_open, raising=False)

    return fill
