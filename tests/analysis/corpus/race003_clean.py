"""Clean twin of race003: the handlers touch different containers.

``on_add`` stages into ``pending`` while ``on_sweep`` walks ``active``,
so no same-tick mutation can change what is being iterated.
"""


class Registry:
    def __init__(self, kernel):
        self.kernel = kernel
        self.pending = []
        self.active = []

    def start(self):
        self.kernel.schedule(1.0, self.on_add)
        self.kernel.schedule(1.0, self.on_sweep)

    def on_add(self):
        self.pending.append("w")

    def on_sweep(self):
        for watch in self.active:
            watch.poll()
