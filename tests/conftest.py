from hypothesis import settings

# Property tests draw the same examples on every run, with no per-example
# deadline, so the suite stays deterministic on slow or loaded machines.
settings.register_profile("peermesh", derandomize=True, deadline=None)
settings.load_profile("peermesh")
