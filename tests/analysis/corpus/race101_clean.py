"""Clean twin of race101: both writes are direct.

No helper hop is involved, so the conflict is reported (and
suppressible) exactly once, as the k = 0 RACE001 — never as RACE101.
"""


class Widget:
    def __init__(self, kernel):
        self.kernel = kernel
        self.state = 0

    def start(self):
        self.kernel.schedule(5.0, self.on_tick)
        self.kernel.schedule(5.0, self.on_poll)

    def on_poll(self):  # expect: RACE001
        self.state = 2

    def on_tick(self):
        self.state = 1
