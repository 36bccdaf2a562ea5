"""Clean twin of race002: the reporter reads a published snapshot.

``publish`` copies the reading outside the tick, so the same-tick
handlers touch disjoint state.
"""


class Gauge:
    def __init__(self, kernel):
        self.kernel = kernel
        self.reading = 0
        self.published = 0

    def start(self):
        self.kernel.schedule(1.0, self.on_sample)
        self.kernel.schedule(1.0, self.on_report)

    def publish(self):
        self.published = self.reading

    def on_report(self):
        return self.published

    def on_sample(self):
        self.reading = 42
