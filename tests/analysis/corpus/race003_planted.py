"""Planted RACE003: a same-tick handler mutates a list another iterates.

The append is a write and the iteration a read, so the direct conflict
is also reported as the write-read RACE002 on the same line.
"""


class Registry:
    def __init__(self, kernel):
        self.kernel = kernel
        self.watches = []

    def start(self):
        self.kernel.schedule(1.0, self.on_add)
        self.kernel.schedule(1.0, self.on_sweep)

    def on_add(self):  # expect: RACE002, RACE003
        self.watches.append("w")

    def on_sweep(self):
        for watch in self.watches:
            watch.poll()
