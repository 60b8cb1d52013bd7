"""The six output hashes of `identity.py`, one test each."""

import pytest

import identity


@pytest.mark.parametrize("name", list(identity.EXPECTED))
def test_identity_hash(name):
    assert identity.HASHES[name]() == identity.EXPECTED[name]
