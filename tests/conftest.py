"""One hypothesis profile for the suite: no per-example deadline, since an
example's time moves with the host's speed.  Each test keeps its own
max_examples."""

from hypothesis import settings

settings.register_profile("zddgb", deadline=None)
settings.load_profile("zddgb")
