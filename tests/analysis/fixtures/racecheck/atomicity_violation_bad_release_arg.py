"""A grant released through ``Resource.release(handle)`` guards nothing after.

The check-then-act runs after the release, so it is the same lost update
as ``atomicity_violation_bad.py``: the ``resource.release(handle)`` form
must end the grant exactly like ``handle.release()`` does.
"""

from repro.sim.events import Sleep, WaitFor


class Channel:
    def open_session(self):
        grant = self.lock.request()
        try:
            yield WaitFor(grant)
        finally:
            self.lock.release(grant)
        if not self.opened:
            yield Sleep(10.0)
            self.opened = True

    def reset(self):
        self.opened = False
        yield Sleep(1.0)
