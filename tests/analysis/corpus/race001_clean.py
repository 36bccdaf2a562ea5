"""Clean twin of race001: only one same-tick handler writes the attribute.

``close_now`` also stores ``position`` but is never registered with the
kernel, so it cannot tie with ``on_open`` at one timestamp.
"""


class Valve:
    def __init__(self, kernel):
        self.kernel = kernel
        self.position = "closed"

    def start(self):
        self.kernel.schedule(5.0, self.on_open)
        self.kernel.schedule(5.0, self.on_log)

    def close_now(self):
        self.position = "closed"

    def on_log(self):
        return self.kernel

    def on_open(self):
        self.position = "open"
