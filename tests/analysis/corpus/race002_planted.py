"""Planted RACE002: a same-tick handler reads what another writes.

``on_report`` sees the old or the new reading depending only on the
order the two callbacks were scheduled in.
"""


class Gauge:
    def __init__(self, kernel):
        self.kernel = kernel
        self.reading = 0

    def start(self):
        self.kernel.schedule(1.0, self.on_sample)
        self.kernel.schedule(1.0, self.on_report)

    def on_report(self):
        return self.reading

    def on_sample(self):  # expect: RACE002
        self.reading = 42
