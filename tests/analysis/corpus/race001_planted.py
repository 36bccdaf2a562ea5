"""Planted RACE001: two same-tick handlers write one attribute.

Both stores sit in the handler bodies themselves, so this is a k = 0
conflict anchored on the first writer's ``def`` line.
"""


class Valve:
    def __init__(self, kernel):
        self.kernel = kernel
        self.position = "closed"

    def start(self):
        self.kernel.schedule(5.0, self.on_open)
        self.kernel.schedule(5.0, self.on_close)

    def on_close(self):  # expect: RACE001
        self.position = "closed"

    def on_open(self):
        self.position = "open"
