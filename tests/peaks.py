"""The tracemalloc peaks that the memory pins read: of an untaped call, and
of a backward sweep above what its forward holds. Each warms the caches it
would otherwise fill inside the trace (the einsum plans among them) with one
run outside it."""

import tracemalloc

from mvse import autodiff


def untaped_peak(run) -> int:
    """The tracemalloc peak of one untaped call of ``run``, with its caches
    warmed by a call outside the trace."""
    with autodiff.no_tape():
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def backward_peak(loss_of) -> int:
    """The tracemalloc peak of one backward sweep above the memory that its
    forward holds when the sweep starts. ``loss_of()`` records a scalar loss
    on the active tape; a first forward and sweep, outside the trace, warm
    the caches."""
    with autodiff.Tape() as tape:
        tape.backward(loss_of())
    tracemalloc.start()
    try:
        with autodiff.Tape() as tape:
            loss = loss_of()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
