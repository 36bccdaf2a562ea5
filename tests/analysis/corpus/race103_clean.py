"""Clean twin of race103: mutation and iteration both direct.

Reported at k = 0 (RACE003 plus its RACE002 write-read) — never RACE103.
"""


class Spool:
    def __init__(self, kernel):
        self.kernel = kernel
        self.items = []

    def start(self):
        self.kernel.schedule(2.0, self.on_flush)
        self.kernel.schedule(2.0, self.on_scan)

    def on_flush(self):  # expect: RACE002, RACE003
        self.items.append(1)

    def on_scan(self):
        total = 0
        for item in self.items:
            total += item
        return total
