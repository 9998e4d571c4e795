"""Fuzz of the .soar reader: a damaged file either fails with
IndexFormatError or loads as an index that is itself valid, and loading it
from a file (a read-only mapping) gives the same outcome as deserializing
its bytes."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soar.core import Dataset
from soar.index import HEADER_BYTES, IndexFormatError, build, deserialize, load, sections, serialize

N, D, C, S = 60, 6, 7, 4
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def blobs():
    X = Dataset(np.random.default_rng(3).standard_normal((N, D)).astype(np.float32))
    return {policy: serialize(build(X, c=C, policy=policy, s=S, seed=2))
            for policy in ("none", "naive", "soar")}


def _posting_section(blob: bytes) -> tuple[int, int]:
    """Where the counts start and the full store starts, from the section
    table: after the header and codebooks, and the store's size before the
    end. Neither depends on the spill."""
    sizes = [size for _, size in sections(N, D, C, S, spilled=False)]
    return sum(sizes[:3]), len(blob) - sizes[-1]


def _load_file(blob: bytes):
    """load() of a file holding blob: the index, or the IndexFormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blob.soar"
        path.write_bytes(blob)
        try:
            return load(path)
        except IndexFormatError as exc:
            return exc


def _check(blob: bytes) -> None:
    mapped = _load_file(blob)
    try:
        index = deserialize(blob)
    except IndexFormatError as exc:
        assert isinstance(mapped, IndexFormatError)
        assert (mapped.section, str(mapped)) == (exc.section, str(exc))
        return
    assert not isinstance(mapped, IndexFormatError), mapped
    assert serialize(mapped) == serialize(index)
    again = serialize(index)
    assert serialize(deserialize(again)) == again
    assert index.assignment.primary.shape == (index.n,)


policies = st.sampled_from(["none", "naive", "soar"])


@FUZZ
@given(policy=policies, data=st.data())
def test_single_byte_mutation(blobs, policy, data):
    blob = bytearray(blobs[policy])
    pos = data.draw(st.integers(0, len(blob) - 1))
    blob[pos] = data.draw(st.integers(0, 255))
    _check(bytes(blob))


@FUZZ
@given(policy=policies, data=st.data())
def test_posting_section_mutation(blobs, policy, data):
    blob = bytearray(blobs[policy])
    start, end = _posting_section(blob)
    pos = data.draw(st.integers(start, end - 1))
    blob[pos] = data.draw(st.integers(0, 255))
    _check(bytes(blob))


@FUZZ
@given(policy=policies, data=st.data())
def test_truncation(blobs, policy, data):
    blob = blobs[policy]
    _check(blob[: data.draw(st.integers(0, len(blob) - 1))])


@pytest.mark.parametrize("cut", [0, 1, HEADER_BYTES // 2, HEADER_BYTES - 1])
def test_file_cut_inside_header(blobs, cut):
    """An empty file, which cannot be mapped, and one cut inside the header
    both fail as a truncated header."""
    _check(blobs["soar"][:cut])
    error = _load_file(blobs["soar"][:cut])
    assert isinstance(error, IndexFormatError)
    assert str(error) == f"header: truncated: wanted {HEADER_BYTES} bytes, {cut} left"
