"""Clean twin of race102: writer and reader are both direct.

Reported once, as the k = 0 RACE002 — never as RACE102.
"""


class Gauge:
    def __init__(self, kernel):
        self.kernel = kernel
        self.reading = 0

    def start(self):
        self.kernel.schedule(1.0, self.on_update)
        self.kernel.schedule(1.0, self.on_report)

    def on_update(self):  # expect: RACE002
        self.reading = 42

    def on_report(self):
        return self.reading
