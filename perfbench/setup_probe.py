"""Set-up time in a fresh interpreter: import hyperweave, parse and lower.

Reads ``{"src": <dir holding the package>, "programs": [[text, atomic], ...]}``
as JSON from stdin and prints the seconds that importing the package and
loading every program took.
"""

import json
import sys
import time

job = json.load(sys.stdin)
t0 = time.perf_counter()
sys.path.insert(0, job["src"])
from hyperweave import frontend  # noqa: E402  (timed import)

for text, atomic in job["programs"]:
    frontend.load_program(text, atomic=atomic)
print(time.perf_counter() - t0)
