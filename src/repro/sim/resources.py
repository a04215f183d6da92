"""Shared resources with FIFO queueing.

The DSP in the simulated SoC is a capacity-1 :class:`Resource`: the paper
observes that "most hardware today supports the execution of one model at
a time", and the linear latency growth in Fig. 9 is exactly the queueing
delay this models.
"""

from repro.sim.events import Event


class _RequestEvent(Event):
    """Event handed to a requester; succeeds when the resource is granted.

    A request is also a context manager: ``with resource.request() as
    req: yield WaitFor(req); ...`` releases the slot on *every* exit
    path — including an exception thrown into the body at a yield
    inside the block (a failed event it waits on), the path a bare
    ``try/finally`` placed after the wait misses. ``release()`` is
    idempotent through the ``released`` flag, so an early explicit
    release (e.g. withdrawing a timed-out queue entry) composes with
    the with-block exit.
    """

    def __init__(self, sim, resource, name):
        super().__init__(sim, name=name)
        self.resource = resource
        self.granted = False
        self.released = False

    def release(self):
        if self.released:
            return
        self.released = True
        self.resource.release(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False


class Resource:
    """A resource with ``capacity`` concurrent slots and a FIFO queue."""

    def __init__(self, sim, capacity=1, name=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self.users = []
        self._waiting = []

    @property
    def queue_length(self):
        return len(self._waiting)

    @property
    def in_use(self):
        return len(self.users)

    def request(self):
        """Return an event that succeeds when a slot is available.

        The caller must eventually call ``.release()`` on the returned
        request. The robust pattern is the with-block — it releases on
        every exit path, including an exception thrown at a yield::

            with resource.request() as req:
                yield WaitFor(req)
                ...  # hold the slot

        (semcheck's ``resource-leak`` rule flags manual pairings whose
        release is reachable on only some paths.)
        """
        request = _RequestEvent(
            self.sim, self, name=f"{self.name}:request"
        )
        self._waiting.append(request)
        self._grant()
        return request

    def release(self, request):
        """Free the slot held by ``request``."""
        if request in self.users:
            self.users.remove(request)
        elif request in self._waiting:
            self._waiting.remove(request)
        else:
            raise ValueError("release() of a request this resource never granted")
        self._grant()

    def _grant(self):
        while self._waiting and len(self.users) < self.capacity:
            request = self._waiting.pop(0)
            request.granted = True
            self.users.append(request)
            request.succeed(self)


class Store:
    """An unbounded FIFO buffer of items (used for frame queues)."""

    def __init__(self, sim, name=None, capacity=None):
        self.sim = sim
        self.name = name or "store"
        self.capacity = capacity
        self.items = []
        self._getters = []

    def put(self, item):
        """Add an item; drops the oldest when capacity is exceeded.

        Dropping the oldest frame mirrors camera HALs, whose buffer queues
        recycle stale frames when the consumer falls behind.
        """
        self.items.append(item)
        dropped = 0
        if self.capacity is not None and len(self.items) > self.capacity:
            self.items.pop(0)
            dropped = 1
        self._dispatch()
        return dropped

    def get(self):
        """Return an event yielding the next item (FIFO)."""
        event = Event(self.sim, name=f"{self.name}:get")
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        while self.items and self._getters:
            event = self._getters.pop(0)
            event.succeed(self.items.pop(0))
