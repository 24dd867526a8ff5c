"""One hypothesis profile for every property test: the same examples on
every run (derandomize, which also keeps no example database), and no
per-example deadline on a loaded machine.  A test's own @settings still
sets its example budget."""

from hypothesis import settings

settings.register_profile("w23", derandomize=True, deadline=None)
settings.load_profile("w23")
