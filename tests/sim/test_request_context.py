"""Runtime behaviour of the ``with resource.request()`` pattern.

The static side (semcheck's ``resource-leak`` rule) flags request/release
pairings whose release is unreachable on some path; these tests pin the
runtime contract that makes the with-block the fix: release on normal
exit, release on an interrupt — an exception arriving at a yield inside
the block, here a failed event the body waits on — and idempotent
``release()`` so an early explicit release composes.
"""

import pytest

from repro.sim import Resource, Simulator


def test_with_block_releases_on_normal_exit():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder(name):
        with res.request() as request:
            yield request
            log.append((name, "acquired", sim.now))
            yield sim.timeout(10)
        log.append((name, "released", sim.now))

    sim.process(holder("a"))
    sim.process(holder("b"))
    sim.run()
    acquired = [(n, t) for n, kind, t in log if kind == "acquired"]
    assert acquired == [("a", 0), ("b", 10)]
    assert res.in_use == 0 and res.queue_length == 0


def test_interrupt_inside_with_block_releases_the_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    cancel = sim.event(name="cancel")
    log = []

    def holder():
        with res.request() as request:
            yield request
            yield sim.timeout(100)
        log.append(("holder-done", sim.now))

    def victim():
        try:
            with res.request() as request:
                yield sim.any_of([request, cancel])
                log.append(("victim-acquired", sim.now))
                yield sim.timeout(100)
        except ValueError:
            log.append(("victim-cancelled", sim.now))

    sim.process(holder())
    sim.process(victim())

    def canceller():
        # The victim is still queued behind the holder at t=5: the
        # with-block must withdraw the pending request, not leak it.
        yield sim.timeout(5)
        assert res.queue_length == 1
        cancel.fail(ValueError("cancelled"))
        yield sim.timeout(1)
        assert res.queue_length == 0

    sim.process(canceller())
    sim.run()
    assert ("victim-cancelled", 5) in log
    # The holder's slot was never disturbed by the withdrawal.
    assert ("holder-done", 100) in log
    assert res.in_use == 0


def test_interrupt_while_holding_releases_the_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    abort = sim.event(name="abort")
    log = []

    def victim():
        try:
            with res.request() as request:
                yield request
                yield abort
        except ValueError:
            log.append(("interrupted", sim.now))

    def successor():
        with res.request() as request:
            yield request
            log.append(("successor-acquired", sim.now))

    sim.process(victim())
    sim.process(successor())
    sim.schedule_callback(5, lambda _e: abort.fail(ValueError("aborted")))
    sim.run()
    # The failed wait freed the slot at once: the successor got it at
    # the same tick the victim unwound.
    assert log == [("interrupted", 5), ("successor-acquired", 5)]
    assert res.in_use == 0


def test_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def body():
        with res.request() as request:
            yield request
            # Early explicit release (the fastrpc timeout-withdrawal
            # pattern) must compose with the with-block exit.
            request.release()
        request.release()  # and further calls stay no-ops

    sim.process(body())
    sim.run()
    assert res.in_use == 0 and res.queue_length == 0


def test_release_of_foreign_request_still_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)

    def body():
        request = other.request()
        yield request
        with pytest.raises(ValueError):
            res.release(request)
        request.release()

    sim.process(body())
    sim.run()
