"""Timing helper for the pipelines' broker pumps."""

import threading
import time


def stop_seconds_mid_poll(session, stop):
    """Seconds stop() takes when called just as the pump enters session.poll.

    An idle pump spends nearly all its time blocked in poll, so this times
    the common case of stopping a pipeline that has nothing to do.
    """
    entered = threading.Event()
    poll = session.poll

    def marked_poll(timeout_s=0.0):
        entered.set()
        return poll(timeout_s)

    session.poll = marked_poll
    assert entered.wait(2.0), "pump never polled"
    entered.clear()
    assert entered.wait(2.0), "pump never polled again"
    t0 = time.monotonic()
    stop()
    return time.monotonic() - t0
