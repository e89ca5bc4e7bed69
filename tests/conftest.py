"""What every test must leave as it found it."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _gc_state_is_kept():
    """The cyclic collector stays on or off, with as many frozen objects.
    cli.run() turns it off and freezes the heap for a command's process;
    run unpatched inside this process, it would change both for every
    later test."""
    before = gc.isenabled(), gc.get_freeze_count()
    yield
    after = gc.isenabled(), gc.get_freeze_count()
    if after != before:
        pytest.fail("gc (enabled, frozen) went from %r to %r"
                    % (before, after))
