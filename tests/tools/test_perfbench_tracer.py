"""perfbench/instrument.py: the traced run's wrappers find every entry
point they patch and put the originals back.

``Tracer._patch`` reads a class attribute from the class's own
``__dict__``, so an entry point that moves into a base class makes the
traced benchmark fail with a ``KeyError``; this test fails the same way.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "perfbench"))

import instrument  # noqa: E402


def current(owner, attr):
    """What ``Tracer._patch`` reads as the original."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize(
    "install", [instrument.install_simulator, instrument.install_engine], ids=lambda f: f.__name__
)
def test_installed_restores_every_patched_attribute(install):
    tracer = instrument.Tracer()
    with tracer.installed(install):
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert current(owner, attr) is not original
    assert tracer._patches == []
    for owner, attr, original in patched:
        assert current(owner, attr) is original, f"{owner!r}.{attr} not restored"

